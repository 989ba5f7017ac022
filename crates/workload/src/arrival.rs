//! Arrival processes: when does the next tuple of a stream arrive?

use crate::schedule::RateSchedule;
use bistream_types::time::Ts;
use rand::Rng;

/// How inter-arrival gaps are drawn for a stream.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Deterministic gaps: exactly `rate` tuples per second, evenly spaced.
    Constant {
        /// Tuples per second.
        rate: f64,
    },
    /// Exponential gaps (Poisson process) with intensity `rate`/second.
    Poisson {
        /// Mean tuples per second.
        rate: f64,
    },
    /// Deterministic gaps whose rate follows a [`RateSchedule`].
    Scheduled {
        /// The step function of rates.
        schedule: RateSchedule,
    },
}

impl ArrivalProcess {
    /// Build a stateful arrival clock starting at time `start`.
    pub fn clock(&self, start: Ts) -> ArrivalClock {
        ArrivalClock { process: self.clone(), next: start, carry_ms: 0.0 }
    }
}

/// Stateful generator of arrival timestamps.
///
/// Sub-millisecond gaps are handled by fractional carry, so a 3,000 t/s
/// constant process emits exactly ~3 tuples per millisecond over time
/// instead of collapsing to the millisecond grid.
#[derive(Debug, Clone)]
pub struct ArrivalClock {
    process: ArrivalProcess,
    next: Ts,
    carry_ms: f64,
}

impl ArrivalClock {
    /// Timestamp of the next arrival (and advance the clock).
    pub fn next_arrival<R: Rng>(&mut self, rng: &mut R) -> Ts {
        let at = self.next;
        let rate = match &self.process {
            ArrivalProcess::Constant { rate } => *rate,
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Scheduled { schedule } => schedule.rate_at(at),
        };
        let gap_ms = match &self.process {
            ArrivalProcess::Poisson { .. } => {
                // Exponential(rate/s) in ms: -ln(U) * 1000 / rate.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() * 1_000.0 / rate.max(1e-9)
            }
            _ => 1_000.0 / rate.max(1e-9),
        };
        let total = gap_ms + self.carry_ms;
        let whole = total.floor();
        self.carry_ms = total - whole;
        self.next = at + whole as Ts;
        at
    }

    /// Peek at the next arrival time without advancing.
    pub fn peek(&self) -> Ts {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_rate_spacing() {
        let mut c = ArrivalProcess::Constant { rate: 100.0 }.clock(0);
        let mut r = rng();
        let times: Vec<Ts> = (0..5).map(|_| c.next_arrival(&mut r)).collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn fractional_rates_carry() {
        // 300/s = 3.33ms gaps; over 300 arrivals we should span ~1s.
        let mut c = ArrivalProcess::Constant { rate: 300.0 }.clock(0);
        let mut r = rng();
        let mut last = 0;
        for _ in 0..301 {
            last = c.next_arrival(&mut r);
        }
        assert!((995..=1005).contains(&last), "300 arrivals ≈ 1s, got {last}ms");
    }

    #[test]
    fn poisson_mean_rate_close_to_lambda() {
        let mut c = ArrivalProcess::Poisson { rate: 1_000.0 }.clock(0);
        let mut r = rng();
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = c.next_arrival(&mut r);
        }
        let measured = n as f64 / (last as f64 / 1_000.0);
        assert!((measured - 1_000.0).abs() < 50.0, "poisson rate {measured} ≉ 1000");
    }

    #[test]
    fn scheduled_rate_steps_change_spacing() {
        let sched = RateSchedule::new(vec![(0, 100.0), (100, 10.0)]);
        let mut c = ArrivalProcess::Scheduled { schedule: sched }.clock(0);
        let mut r = rng();
        // First phase: 10ms gaps.
        let mut t = 0;
        while t < 100 {
            t = c.next_arrival(&mut r);
        }
        // Now gaps become 100ms.
        let a = c.next_arrival(&mut r);
        let b = c.next_arrival(&mut r);
        assert_eq!(b - a, 100);
    }

    #[test]
    fn starts_at_given_time_and_peek_is_stable() {
        let mut c = ArrivalProcess::Constant { rate: 1.0 }.clock(5_000);
        assert_eq!(c.peek(), 5_000);
        assert_eq!(c.peek(), 5_000);
        let mut r = rng();
        assert_eq!(c.next_arrival(&mut r), 5_000);
        assert_eq!(c.peek(), 6_000);
    }
}
