//! Fixture: every kernel loop polls the budget, argues a bound in a
//! suppression, or lives in test code.

fn scan_candidates(xs: &[u32], ticker: &mut BudgetTicker) -> u32 {
    let mut acc = 0;
    for &x in xs {
        if ticker.check().is_some() {
            break;
        }
        acc += x;
    }
    acc
}

// nsky-lint: allow(poll-reachability) — bounded near-linear peel per call, ticked by the caller
fn bounded_helper(xs: &[u32]) -> u32 {
    let mut acc = 0;
    for &x in xs {
        acc = acc.max(x);
    }
    acc
}

fn loop_free(x: u32) -> u32 {
    x + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_loop_freely() {
        let mut s = 0;
        for i in 0..10 {
            s += i;
        }
        assert_eq!(s, 45);
    }
}
