//! Fixture: an uninstrumented module carrying a justified suppression,
//! plus a module-private helper R9 never looks at.

/// Paper-faithful scan kept deliberately free of instrumentation.
// nsky-lint: allow(obs-instrumented) — measured through refine_sky_with in refine.rs
pub fn base_sky(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap_or(0)
}

fn private_helper(x: u32) -> u32 {
    x + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_fns_are_exempt() {
        assert_eq!(super::private_helper(1), 2);
    }
}
