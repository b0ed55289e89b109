//! Fixture: source carrying the documented flag.

/// Config with the documented lever.
pub struct Config {
    /// The documented lever.
    pub real_flag_name: bool,
}
