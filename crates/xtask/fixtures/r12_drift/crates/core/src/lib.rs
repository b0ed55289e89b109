//! Fixture: a crate whose public API drifted from its committed baseline.

/// Counts vertices. Renamed from `order` after the baseline was blessed.
pub fn vertex_count(n: usize) -> usize {
    n
}

/// Stable since the baseline.
pub fn edge_count(m: usize) -> usize {
    m
}
