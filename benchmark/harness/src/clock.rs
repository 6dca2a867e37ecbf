//! The harness's only clock: monotonic nanoseconds since the first reading.
//!
//! The benchmark measures the daemon from outside, so it has to read time;
//! every reading goes through [`now_ns`] so the `wall-clock-in-core` lint
//! needs exactly one reviewed exemption.

use std::sync::OnceLock;
// oblint::allow(wall-clock-in-core): the benchmark times the daemon from outside; this module is its one clock.
use std::time::Instant;

// oblint::allow(wall-clock-in-core): see the module comment.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // oblint::allow(wall-clock-in-core): see the module comment.
    let elapsed = ORIGIN.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds to seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
