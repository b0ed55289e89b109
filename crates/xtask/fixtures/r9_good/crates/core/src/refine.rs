//! Fixture: an instrumented kernel module — one entry point takes the
//! execution context (which carries the recorder), covering the module.

/// Open-loop entry point (uninstrumented on purpose).
pub fn refine_sky(xs: &[u32]) -> u32 {
    refine_sky_with(xs, &mut ExecutionContext::new())
}

/// The one entry point: flushes counters into the context's recorder.
pub fn refine_sky_with(xs: &[u32], ctx: &mut ExecutionContext<'_>) -> u32 {
    let out = xs.iter().copied().max().unwrap_or(0);
    ctx.effective_recorder()
        .add(Counter::CandidatesEmitted, u64::from(out));
    out
}
