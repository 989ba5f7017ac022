//! The time domain `T` (Definition 2 of the model): discrete, ordered,
//! millisecond-granularity timestamps, plus the clock abstraction that lets
//! identical router/joiner code run against wall-clock time (live threaded
//! runtime) or virtual time (deterministic simulator).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A point in the discrete time domain, in milliseconds.
///
/// Both harnesses use the same representation; the live runtime anchors
/// `Ts(0)` at process start, the simulator at experiment start.
pub type Ts = u64;

/// Milliseconds in one second, for readability at call sites.
pub const SECOND: Ts = 1_000;
/// Milliseconds in one minute.
pub const MINUTE: Ts = 60 * SECOND;

/// A source of "now" for components that must run under either harness.
///
/// Implementations must be cheap (called on every tuple) and monotonic.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time in milliseconds since the clock's epoch.
    fn now(&self) -> Ts;
}

/// Wall-clock time relative to clock creation; used by the live runtime.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Create a wall clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock { epoch: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Ts {
        self.epoch.elapsed().as_millis() as Ts
    }
}

/// A manually advanced clock shared by every component of a simulation.
///
/// Cloning is cheap (`Arc` inside); all clones observe the same time.
/// Advancing time never moves backwards — [`VirtualClock::advance_to`]
/// with a smaller value is a no-op, which makes drivers that process
/// slightly out-of-order event batches safe by construction.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A virtual clock starting at `t`.
    pub fn starting_at(t: Ts) -> Self {
        let c = Self::new();
        c.now.store(t, Ordering::Relaxed);
        c
    }

    /// Move time forward to `t` (no-op if `t` is in the past).
    pub fn advance_to(&self, t: Ts) {
        self.now.fetch_max(t, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Ts {
        self.now.load(Ordering::Relaxed)
    }
}

/// A one-shot wall-time stopwatch for benchmark and experiment timing.
///
/// This is the sanctioned way to measure elapsed wall time outside the
/// live executors: raw `Instant::now()` is confined to this module by the
/// `cargo xtask lint` wallclock rule, so simulations stay deterministic
/// and every real-time measurement is greppable through one type.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { started: Instant::now() }
    }

    /// Elapsed wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Elapsed seconds as a float.
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Elapsed milliseconds as a float.
    pub fn elapsed_ms_f64(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed microseconds as a float.
    pub fn elapsed_us_f64(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        c.advance_to(42);
        assert_eq!(c.now(), 42);
    }

    #[test]
    fn virtual_clock_never_goes_backwards() {
        let c = VirtualClock::starting_at(100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance_to(7);
        assert_eq!(b.now(), 7);
    }

    #[test]
    fn wall_clock_is_monotonic_and_near_zero_at_start() {
        let c = WallClock::new();
        let t0 = c.now();
        let t1 = c.now();
        assert!(t1 >= t0);
        assert!(t0 < 1_000, "fresh wall clock should be near zero");
    }

    #[test]
    fn constants_relate() {
        assert_eq!(MINUTE, 60 * SECOND);
    }
}
