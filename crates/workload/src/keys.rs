//! Join-key distributions.
//!
//! Skew is the axis that separates the routing strategies (E5): hash
//! routing collapses under a hot key, random routing is immune, ContRand
//! sits between. `KeyDist` provides uniform, Zipf, and time-shifting Zipf
//! keys over a fixed key universe `[0, n)`; the shifting variant is the
//! adversary for the skew-adaptive router (the hot set rotates every
//! period, so a tuned strategy must re-tune to keep up).

use bistream_types::time::Ts;
use rand::Rng;

/// A distribution over the key universe `0..n`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform {
        /// Universe size.
        n: u64,
    },
    /// Zipf with exponent `theta` (0 = uniform-ish, 0.99 = heavily
    /// skewed; YCSB's default is 0.99). Key 0 is the hottest.
    Zipf {
        /// Universe size.
        n: u64,
        /// Skew exponent in `(0, 1)`.
        theta: f64,
    },
    /// Exact Zipf (any `theta > 0`, including ≥ 1) whose rank→key mapping
    /// rotates every `period_ms`: the identity of the hot keys jumps to a
    /// deterministic pseudo-random offset each period while the *shape*
    /// of the skew stays fixed. This is the adversary the skew-adaptive
    /// router must chase — a strategy tuned to one hot set goes stale one
    /// period later.
    ShiftingZipf {
        /// Universe size.
        n: u64,
        /// Skew exponent (`> 0`; values ≥ 1 give the heavy adversarial
        /// skew the adaptive-routing acceptance runs use).
        theta: f64,
        /// How long one hot set stays put, in stream-time milliseconds.
        period_ms: u64,
    },
}

impl KeyDist {
    /// Universe size.
    pub fn universe(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } | KeyDist::Zipf { n, .. } | KeyDist::ShiftingZipf { n, .. } => {
                *n
            }
        }
    }

    /// Build a stateful sampler for this distribution.
    pub fn sampler(&self) -> KeySampler {
        match *self {
            KeyDist::Uniform { n } => KeySampler::Uniform { n: n.max(1) },
            KeyDist::Zipf { n, theta } => KeySampler::Zipf(ZipfSampler::new(n.max(1), theta)),
            KeyDist::ShiftingZipf { n, theta, period_ms } => {
                KeySampler::Shifting(ShiftingZipf::new(n.max(1), theta, period_ms.max(1)))
            }
        }
    }
}

/// A ready-to-sample key generator.
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `0..n`.
    Uniform {
        /// Universe size.
        n: u64,
    },
    /// Zipfian (see [`ZipfSampler`]).
    Zipf(ZipfSampler),
    /// Time-varying Zipf (see [`ShiftingZipf`]).
    Shifting(ShiftingZipf),
}

impl KeySampler {
    /// Draw one key, ignoring stream time (shifting distributions use
    /// their `ts = 0` hot set).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.sample_at(rng, 0)
    }

    /// Draw one key for a tuple stamped `ts`. Stationary distributions
    /// ignore `ts`; [`KeySampler::Shifting`] rotates its hot set to the
    /// period `ts` falls in. Every variant consumes exactly the draws of
    /// its stationary counterpart, so switching a sweep to a shifting
    /// distribution does not perturb arrival times.
    pub fn sample_at<R: Rng>(&self, rng: &mut R, ts: Ts) -> u64 {
        match self {
            KeySampler::Uniform { n } => rng.gen_range(0..*n),
            KeySampler::Zipf(z) => z.sample(rng),
            KeySampler::Shifting(s) => s.sample_at(rng, ts),
        }
    }
}

/// SplitMix64 — derives the per-period rotation offsets.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact Zipf sampling by inversion over a precomputed cumulative table.
///
/// Unlike [`ZipfSampler`] (the YCSB constant-time approximation, valid
/// only for `theta` in `(0, 1)`), this pays `O(n)` memory and `O(log n)`
/// per draw for an *exact* distribution at any exponent — including the
/// `theta ≥ 1` regimes where a single key draws an outright majority of
/// the stream. Universes in the experiments are ≤ ~1e6, so the table is
/// at most a few MB and is built once per run.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    /// `cdf[i]` = P(rank ≤ i); strictly increasing, last entry 1.0.
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build the cumulative table for universe `n` (≥ 1) and exponent
    /// `theta` (clamped to ≥ 0).
    pub fn new(n: u64, theta: f64) -> ZipfTable {
        let n = n.max(1);
        let theta = theta.max(0.0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfTable { cdf }
    }

    /// Draw one popularity rank (0 hottest) by binary-searching the table.
    pub fn sample_rank<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }

    /// Analytic probability of rank 0.
    pub fn hottest_probability(&self) -> f64 {
        self.cdf[0]
    }
}

/// Exact Zipf whose rank→key mapping rotates each period: during period
/// `p = ts / period_ms` the key of popularity rank `r` is
/// `(r + offset(p)) mod n`, with `offset` a SplitMix64-derived
/// pseudo-random jump. The mapping stays a bijection inside every period
/// (the skew shape never changes) while the hot-key *identities* move
/// far on each boundary — the worst case for a strategy that froze its
/// hot set.
#[derive(Debug, Clone)]
pub struct ShiftingZipf {
    table: ZipfTable,
    n: u64,
    period_ms: u64,
}

impl ShiftingZipf {
    /// Build for universe `n`, exponent `theta`, hot-set lifetime
    /// `period_ms` (all clamped to ≥ 1).
    pub fn new(n: u64, theta: f64, period_ms: u64) -> ShiftingZipf {
        let n = n.max(1);
        ShiftingZipf { table: ZipfTable::new(n, theta), n, period_ms: period_ms.max(1) }
    }

    /// The rotation offset of the period containing `ts`.
    pub fn offset_at(&self, ts: Ts) -> u64 {
        splitmix64(ts / self.period_ms) % self.n
    }

    /// The key holding popularity rank `rank` at stream time `ts`.
    pub fn key_of_rank(&self, rank: u64, ts: Ts) -> u64 {
        (rank + self.offset_at(ts)) % self.n
    }

    /// Draw one key for a tuple stamped `ts` (exactly one `f64` draw).
    pub fn sample_at<R: Rng>(&self, rng: &mut R, ts: Ts) -> u64 {
        let rank = self.table.sample_rank(rng);
        self.key_of_rank(rank, ts)
    }

    /// The configured universe size.
    pub fn universe(&self) -> u64 {
        self.n
    }
}

/// Constant-time Zipf sampling after Gray et al. ("Quickly generating
/// billion-record synthetic databases", SIGMOD '94), the formulation used
/// by YCSB's `ZipfianGenerator`.
///
/// Popularity rank 0 is the hottest key. `theta = 0` degenerates to a
/// near-uniform distribution; values around 0.99 give the classic heavy
/// skew where the top key draws a double-digit percentage of samples.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Precompute the sampling constants for universe `n` and skew `theta`.
    ///
    /// `theta` is clamped into `(0, 1)` exclusive — the harmonic formulas
    /// are singular at 1.0 — with `0` mapped to a tiny positive skew, which
    /// keeps `KeyDist::Zipf { theta: 0.0 }` usable as "no skew" in sweeps.
    pub fn new(n: u64, theta: f64) -> ZipfSampler {
        let theta = theta.clamp(1e-9, 0.999_999);
        let zeta_n = Self::zeta(n, theta);
        let zeta_2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        ZipfSampler { n, theta, alpha, zeta_n, eta }
    }

    /// The generalised harmonic number `H_{n,theta}`.
    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; universes in the experiments are <= ~1e6 and
        // samplers are built once per run.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw one key (popularity rank, 0 hottest).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The configured universe size.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// Analytic probability of rank 0 (the hottest key); used by tests to
    /// sanity-check the empirical skew.
    pub fn hottest_probability(&self) -> f64 {
        1.0 / self.zeta_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB15)
    }

    #[test]
    fn uniform_covers_universe_evenly() {
        let s = KeyDist::Uniform { n: 10 }.sampler();
        let mut counts = [0usize; 10];
        let mut r = rng();
        for _ in 0..10_000 {
            counts[s.sample(&mut r) as usize] += 1;
        }
        for c in counts {
            assert!(c > 800 && c < 1_200, "{counts:?}");
        }
    }

    #[test]
    fn zipf_is_skewed_toward_rank_zero() {
        let z = ZipfSampler::new(1_000, 0.99);
        let mut r = rng();
        let mut hot = 0usize;
        let total = 20_000;
        for _ in 0..total {
            if z.sample(&mut r) == 0 {
                hot += 1;
            }
        }
        let empirical = hot as f64 / total as f64;
        let analytic = z.hottest_probability();
        assert!(
            (empirical - analytic).abs() < 0.03,
            "empirical {empirical} vs analytic {analytic}"
        );
        assert!(empirical > 0.08, "theta=0.99 should make rank 0 hot: {empirical}");
    }

    #[test]
    fn zipf_theta_zero_is_near_uniform() {
        let z = ZipfSampler::new(100, 0.0);
        let mut r = rng();
        let mut hot = 0usize;
        for _ in 0..20_000 {
            if z.sample(&mut r) == 0 {
                hot += 1;
            }
        }
        let p = hot as f64 / 20_000.0;
        assert!(p < 0.03, "near-uniform hot key probability, got {p}");
    }

    #[test]
    fn zipf_stays_in_universe() {
        for theta in [0.0, 0.5, 0.9, 0.99] {
            let z = ZipfSampler::new(7, theta);
            let mut r = rng();
            for _ in 0..5_000 {
                assert!(z.sample(&mut r) < 7);
            }
        }
    }

    #[test]
    fn skew_increases_with_theta() {
        let mut r = rng();
        let mut hot_share = |theta: f64| {
            let z = ZipfSampler::new(1_000, theta);
            let mut hot = 0usize;
            for _ in 0..20_000 {
                if z.sample(&mut r) < 10 {
                    hot += 1;
                }
            }
            hot as f64 / 20_000.0
        };
        let low = hot_share(0.3);
        let high = hot_share(0.95);
        assert!(high > low + 0.1, "theta 0.95 ({high}) ≫ theta 0.3 ({low})");
    }

    #[test]
    fn determinism_same_seed_same_keys() {
        let s = KeyDist::Zipf { n: 50, theta: 0.8 }.sampler();
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(1);
            (0..100).map(|_| s.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(1);
            (0..100).map(|_| s.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_universe() {
        let s = KeyDist::Uniform { n: 0 }.sampler(); // clamped to 1
        let mut r = rng();
        assert_eq!(s.sample(&mut r), 0);
        let z = ZipfSampler::new(1, 0.9);
        assert_eq!(z.sample(&mut r), 0);
    }

    #[test]
    fn zipf_table_is_exact_at_steep_theta() {
        // theta = 1.2 is past where the YCSB approximation is valid; the
        // table sampler must still match its own analytic rank-0 mass.
        let t = ZipfTable::new(1_000, 1.2);
        let analytic = t.hottest_probability();
        // 1 / H(1000, 1.2) = 0.2306…
        assert!((analytic - 0.2306).abs() < 1e-3, "theta=1.2 rank-0 mass: {analytic}");
        let mut r = rng();
        let total = 20_000;
        let hot = (0..total).filter(|_| t.sample_rank(&mut r) == 0).count();
        let empirical = hot as f64 / total as f64;
        assert!(
            (empirical - analytic).abs() < 0.03,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn zipf_table_stays_in_universe() {
        for theta in [0.0, 0.99, 1.2, 2.0] {
            let t = ZipfTable::new(13, theta);
            let mut r = rng();
            for _ in 0..5_000 {
                assert!(t.sample_rank(&mut r) < 13);
            }
        }
    }

    #[test]
    fn shifting_zipf_rotates_the_hot_key_between_periods() {
        let s = ShiftingZipf::new(10_000, 1.2, 1_000);
        // Within one period the mapping is constant…
        assert_eq!(s.key_of_rank(0, 0), s.key_of_rank(0, 999));
        // …and across periods the hot key identity jumps.
        let hot0 = s.key_of_rank(0, 0);
        let mut moved = 0;
        for p in 1..=8u64 {
            if s.key_of_rank(0, p * 1_000) != hot0 {
                moved += 1;
            }
        }
        assert!(moved >= 7, "hot key should move nearly every period: {moved}/8");
    }

    #[test]
    fn shifting_zipf_concentrates_on_the_period_hot_key() {
        let dist = KeyDist::ShiftingZipf { n: 1_000, theta: 1.2, period_ms: 500 };
        let s = dist.sampler();
        let KeySampler::Shifting(inner) = &s else {
            panic!("sampler variant");
        };
        for ts in [0u64, 1_700, 9_999] {
            let hot = inner.key_of_rank(0, ts);
            let mut r = rng();
            let total = 10_000;
            let hits = (0..total).filter(|_| s.sample_at(&mut r, ts) == hot).count();
            let share = hits as f64 / total as f64;
            // The rank-0 mass at n = 1000, theta = 1.2 is 0.2306.
            assert!((share - 0.2306).abs() < 0.03, "ts={ts}: hot key share {share}");
        }
    }

    #[test]
    fn shifting_zipf_is_deterministic_and_time_stationary_in_draw_count() {
        let s = KeyDist::ShiftingZipf { n: 64, theta: 1.5, period_ms: 100 }.sampler();
        let run = || {
            let mut r = StdRng::seed_from_u64(7);
            (0..200u64).map(|i| s.sample_at(&mut r, i * 10)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // A shifting draw consumes exactly one f64, like the stationary
        // table sampler: feeding the same seed through both must leave the
        // RNGs in lock-step (sample() is sample_at(.., 0) by definition).
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for i in 0..200u64 {
            let _ = s.sample_at(&mut r1, i * 10);
            let _ = s.sample(&mut r2);
        }
        assert_eq!(s.sample(&mut r1), s.sample(&mut r2), "RNGs diverged");
    }
}
