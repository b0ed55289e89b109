//! Fixture: an instrumented dynamic-maintenance module — a method taking
//! the execution context covers the module.

/// A stand-in incremental engine.
pub struct Engine;

impl Engine {
    /// Open-loop entry point (uninstrumented on purpose).
    pub fn apply_batch(&mut self, deltas: &[u32]) -> u32 {
        self.apply_batch_with(deltas, &mut ExecutionContext::new())
    }

    /// The one entry point: flushes the batch counters into the context.
    pub fn apply_batch_with(&mut self, deltas: &[u32], ctx: &mut ExecutionContext<'_>) -> u32 {
        let out = deltas.iter().copied().sum();
        ctx.effective_recorder()
            .add(Counter::DeltasApplied, u64::from(out));
        out
    }
}
