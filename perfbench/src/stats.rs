//! Sample statistics and the in-memory span log of the traced run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The median of `reps` timed calls of `f`, in milliseconds.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t)
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Milliseconds elapsed since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The smallest number of samples a `_p90_` metric needs: ten lie
/// beyond the 90th percentile.
pub const P90_MIN_SAMPLES: usize = 100;

/// One traced interval: a layer boundary crossed by one request.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of the traced run, kept in memory and written once at the end.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the trace origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id (for children to name).
    pub fn push(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Moves another trace's spans in, renumbering their ids.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: (count, median self time in ms). Self time is the
    /// span's duration minus the part of it that its children cover.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s.id);
            }
        }
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let mut covered: Vec<(u64, u64)> = children[s.id]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let (mut union, mut reach) = (0_u64, 0_u64);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(union);
            by_name
                .entry(s.name.clone())
                .or_default()
                .push(self_ns as f64 / 1e6);
        }
        by_name
            .into_iter()
            .map(|(name, xs)| (name, (xs.len(), median(&xs).unwrap_or(0.0))))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let root = t.push(1, None, "root", 0, 100);
        t.push(1, Some(root), "a", 10, 40);
        t.push(1, Some(root), "b", 30, 60);
        t.push(1, Some(root), "c", 90, 150);
        let st = t.self_times();
        let ms = |n: f64| n / 1e6;
        assert_eq!(st["root"], (1, ms(100.0 - 50.0 - 10.0)));
        assert_eq!(st["c"], (1, ms(60.0)));
    }
}
