//! Fixture: a dynamic-maintenance module whose public entry points
//! never accept an observability recorder or execution context.

/// Applies a delta batch with no way to observe its counters: the
/// context (and its `Recorder`) is built inside, out of the caller's
/// reach, so mentioning one in the body does not count.
pub fn apply_batch(deltas: &[u32]) -> u32 {
    let ctx: ExecutionContext<'_> = ExecutionContext::new();
    let rec: &dyn Recorder = ctx.effective_recorder();
    rec.add(Counter::DeltasApplied, 0);
    deltas.iter().copied().sum()
}
