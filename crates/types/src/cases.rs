//! Seeded case runner for property tests.
//!
//! A property is a closure over a [`Gen`]: it draws its inputs and asserts.
//! [`for_cases`] runs it `n` times. Case `i` draws from a seed that is a
//! pure function of `(test name, i)`, so a run is reproducible without any
//! state on disk, and collection sizes ramp up with `i`, so the first case
//! to fail is a small one. A failing case is reported with its seed and
//! the [`replay`] call that re-runs exactly that case. There is no
//! shrinker: the size ramp stands in for one.

use crate::fault::{mix, SplitMix64};
use crate::hash::map_hash;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The input source handed to a property: every draw is a pure function
/// of the case seed and the draws before it.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
    /// Percentage (1..=100) of a length range's width this case may use.
    size: u32,
}

/// Values an unbounded integer draw returns more often than chance.
const EDGE_INTS: [i64; 5] = [0, 1, -1, i64::MIN, i64::MAX];
/// Values an unbounded float draw returns more often than chance.
const EDGE_FLOATS: [f64; 8] =
    [0.0, -0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE];

impl Gen {
    fn new(seed: u64, size: u32) -> Gen {
        Gen { rng: SplitMix64::new(seed), size: size.clamp(1, 100) }
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Any `i64`; one draw in eight is 0, ±1 or an extreme.
    pub fn i64(&mut self) -> i64 {
        if self.rng.next_below(8) == 0 {
            *self.pick(&EDGE_INTS)
        } else {
            self.u64() as i64
        }
    }

    /// Any `f64` bit pattern, NaNs and infinities included; one draw in
    /// four is a special value.
    pub fn f64(&mut self) -> f64 {
        if self.rng.next_below(4) == 0 {
            *self.pick(&EDGE_FLOATS)
        } else {
            f64::from_bits(self.u64())
        }
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// An integer in `range`; one draw in eight is an endpoint. Panics on
    /// an empty range.
    pub fn uint(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        match self.rng.next_below(16) {
            0 => range.start,
            1 => range.end - 1,
            _ => range.start + self.rng.next_below(range.end - range.start),
        }
    }

    /// A signed integer in `range`, endpoints favoured as in [`Gen::uint`].
    pub fn int(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let width = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.uint(0..width) as i64)
    }

    /// An index in `range`, endpoints favoured as in [`Gen::uint`].
    pub fn index(&mut self, range: Range<usize>) -> usize {
        self.uint(range.start as u64..range.end as u64) as usize
    }

    /// A finite float in `lo..=hi`; one draw in eight is an endpoint.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        match self.rng.next_below(16) {
            0 => lo,
            1 => hi,
            _ => lo + (self.u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo),
        }
    }

    /// One element of `items`. Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.next_below(items.len() as u64) as usize]
    }

    /// A length in `range`, drawn from the part of the range this case's
    /// size allows (early cases stay near `range.start`).
    pub fn len(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range {range:?}");
        let width = (range.end - range.start) as u64;
        let allowed = (width * u64::from(self.size)).div_ceil(100).max(1);
        range.start + self.rng.next_below(allowed) as usize
    }

    /// A vector whose length is drawn by [`Gen::len`] and whose elements
    /// are drawn by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.len(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A string of characters of `alphabet`, length drawn by [`Gen::len`].
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.len(len);
        (0..n).map(|_| *self.pick(&chars)).collect()
    }

    /// Arbitrary bytes, length drawn by [`Gen::len`].
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |g| g.u64() as u8)
    }
}

/// The first failing case of a property.
struct Failure {
    case: u32,
    /// What [`replay`] takes to run this case again.
    seed: u64,
    size: u32,
    /// The panic message of the failing assertion.
    message: String,
}

/// Seed of case `case` of the property named `name`.
fn case_seed(name: &str, case: u32) -> u64 {
    mix(map_hash(name), u64::from(case))
}

/// Size of case `case` of `n`: ramps linearly to 100 over the first half
/// of the run, so half the cases draw from the full length ranges.
fn case_size(case: u32, n: u32) -> u32 {
    (200 * (u64::from(case) + 1) / u64::from(n.max(1))).clamp(1, 100) as u32
}

/// Run `prop` on `n` cases and return the first that panics, if any.
fn find_failure(name: &str, n: u32, prop: impl Fn(&mut Gen)) -> Option<Failure> {
    (0..n).find_map(|case| {
        let (seed, size) = (case_seed(name, case), case_size(case, n));
        let payload = catch_unwind(AssertUnwindSafe(|| prop(&mut Gen::new(seed, size)))).err()?;
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Some(Failure { case, seed, size, message })
    })
}

/// Run `prop` on `n` cases; panic on the first failing one with its seed
/// and the call that replays it.
pub fn for_cases(name: &str, n: u32, prop: impl Fn(&mut Gen)) {
    if let Some(f) = find_failure(name, n, prop) {
        panic!(
            "property `{name}` failed at case {}/{n}: {}\n  replay with: \
             bistream_types::cases::replay({:#x}, {}, <the property>)",
            f.case, f.message, f.seed, f.size
        );
    }
}

/// Re-run one case: `seed` and `size` as a failing [`for_cases`] reported them.
pub fn replay(seed: u64, size: u32, prop: impl Fn(&mut Gen)) {
    prop(&mut Gen::new(seed, size));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// One draw of every kind, rendered comparably.
    fn draw_all(g: &mut Gen) -> String {
        format!(
            "{} {} {:?} {} {} {} {} {:?} {:?} {:?}",
            g.u64(),
            g.i64(),
            g.f64().to_bits(),
            g.bool(),
            g.uint(3..9),
            g.int(-4..4),
            g.float(-1.0, 1.0),
            g.vec(0..10, |g| g.index(0..5)),
            g.string("abc", 0..6),
            g.bytes(0..4),
        )
    }

    #[test]
    fn same_name_and_case_give_the_same_draws() {
        let run = |name: &str| {
            let seen = RefCell::new(Vec::new());
            for_cases(name, 16, |g| seen.borrow_mut().push(draw_all(g)));
            seen.into_inner()
        };
        assert_eq!(run("a"), run("a"));
        assert_ne!(run("a"), run("b"), "the test name is part of the seed");
        let a = run("a");
        assert_ne!(a[0], a[1], "the case index is part of the seed");
    }

    #[test]
    fn a_false_property_fails_and_its_seed_replays_the_failure() {
        let seen = RefCell::new(Vec::new());
        let prop = |g: &mut Gen| {
            let v = g.vec(0..40, |g| g.uint(0..100));
            seen.borrow_mut().push(v.clone());
            assert!(v.len() < 10, "too long: {}", v.len());
        };
        let f = find_failure("false_property", 64, prop).expect("the property is false");
        assert!(f.message.starts_with("too long"), "{}", f.message);
        assert!(f.case > 0, "the size ramp keeps case 0 short");
        let failing = seen.borrow().last().cloned().expect("ran");
        // The first failure is a small one: barely past the threshold.
        assert!(failing.len() < 20, "first failure has {} elements", failing.len());

        seen.borrow_mut().clear();
        let replayed = catch_unwind(AssertUnwindSafe(|| replay(f.seed, f.size, prop)));
        assert!(replayed.is_err(), "the replayed case must fail again");
        assert_eq!(seen.borrow().as_slice(), &[failing], "and on the same input");

        let report = catch_unwind(|| for_cases("false_property", 64, |_| panic!("boom")))
            .expect_err("for_cases must propagate the failure");
        let report = report.downcast_ref::<String>().expect("formatted report");
        let seed = format!("replay({:#x}, ", case_seed("false_property", 0));
        assert!(report.contains("boom") && report.contains(&seed), "{report}");
    }

    #[test]
    fn ranged_draws_honour_their_bounds_at_every_size() {
        for size in [1, 50, 100] {
            let mut g = Gen::new(case_seed("bounds", size), size);
            let (mut lo_seen, mut hi_seen) = (false, false);
            for _ in 0..2_000 {
                let u = g.uint(10..20);
                assert!((10..20).contains(&u));
                lo_seen |= u == 10;
                hi_seen |= u == 19;
                assert!((-5..5).contains(&g.int(-5..5)));
                assert!((i64::MIN..i64::MAX).contains(&g.int(i64::MIN..i64::MAX)));
                assert_eq!(g.index(7..8), 7);
                let f = g.float(-2.5, 2.5);
                assert!((-2.5..=2.5).contains(&f), "{f}");
                let n = g.len(3..50);
                assert!((3..50).contains(&n));
                assert!(size > 1 || n == 3, "size 1 allows only the shortest length, got {n}");
                let s = g.string("xy", 2..5);
                assert!((2..5).contains(&s.len()) && s.chars().all(|c| c == 'x' || c == 'y'));
                assert!(*g.pick(&[1, 2, 3]) <= 3);
            }
            assert!(lo_seen && hi_seen, "both endpoints of a range must be reachable");
        }
        // The ramp itself: short first, full range from the midpoint on.
        assert_eq!(case_size(0, 256), 1);
        assert_eq!(case_size(127, 256), 100);
        assert_eq!(case_size(255, 256), 100);
        assert_eq!(case_size(0, 4), 50);
        assert_eq!(case_size(0, 1), 100);
    }
}
