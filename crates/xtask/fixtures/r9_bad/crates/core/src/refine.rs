//! Fixture: a kernel module whose public entry points never accept an
//! observability recorder.

/// Computes the skyline with no way to observe its counters.
pub fn refine_sky(xs: &[u32]) -> u32 {
    xs.iter().copied().max().unwrap_or(0)
}

/// A second uninstrumented entry point: still one violation per module.
pub fn refine_sky_early_exit(xs: &[u32]) -> u32 {
    refine_sky(xs)
}
