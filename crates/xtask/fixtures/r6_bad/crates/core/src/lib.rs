//! Fixture: source without the documented flag.

/// Present but unrelated.
pub fn unrelated() {}
