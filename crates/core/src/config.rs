//! Engine configuration.

use bistream_types::error::{Error, Result};
use bistream_types::predicate::JoinPredicate;
use bistream_types::time::Ts;
use bistream_types::window::WindowSpec;

/// How the router distributes tuples over the biclique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingStrategy {
    /// Store on a uniformly random unit of the own side; broadcast the
    /// join copy to *every* unit of the opposite side. Correct for any
    /// predicate; per-tuple fan-out is `1 + |opposite side|`.
    Random,
    /// Content-sensitive: hash the join key to one unit on each side.
    /// Only valid for equi predicates; fan-out is 2 but a skewed key
    /// distribution concentrates load.
    Hash,
    /// The paper's hybrid: each side is split into `subgroups` subgroups;
    /// the key hash picks the subgroup (content-sensitive across
    /// subgroups), storage lands on a random unit *within* the subgroup,
    /// and the join copy is broadcast to the matching subgroup of the
    /// opposite side. Only valid for equi predicates; fan-out is
    /// `1 + |opposite side| / subgroups`, skew is diluted over a subgroup.
    ContRand {
        /// Number of subgroups per side (`d` in the model).
        subgroups: usize,
    },
    /// Self-tuning ContRand ([`core::adaptive`](crate::adaptive)): a
    /// hot-key sketch in the router hot path classifies keys into a hot
    /// tier (widened fan-out: store anywhere on the own side, probe the
    /// whole opposite side) and a cold tier (ContRand under the current
    /// `d`), and a periodic tuning step re-tunes `d` from the per-unit
    /// load series. Strategy switches install as punctuation-fenced epoch
    /// changes. Only valid for equi predicates. Tuning knobs live in
    /// [`EngineConfig::adaptive`].
    Adaptive {
        /// Initial number of subgroups per side (the epoch-0 `d`).
        subgroups: usize,
    },
}

impl RoutingStrategy {
    /// Subgroups per side the layout starts with: `d` for the ContRand
    /// family, 1 for the strategies that do not subgroup.
    pub fn subgroups(&self) -> usize {
        match *self {
            RoutingStrategy::ContRand { subgroups } | RoutingStrategy::Adaptive { subgroups } => {
                subgroups
            }
            RoutingStrategy::Random | RoutingStrategy::Hash => 1,
        }
    }

    /// Is this strategy applicable to `predicate`?
    pub fn supports(&self, predicate: &JoinPredicate) -> bool {
        match self {
            RoutingStrategy::Random => true,
            RoutingStrategy::Hash
            | RoutingStrategy::ContRand { .. }
            | RoutingStrategy::Adaptive { .. } => predicate.is_equi(),
        }
    }
}

/// Tuning knobs of the adaptive router (see
/// [`core::adaptive`](crate::adaptive)). All thresholds are integers so
/// configs stay `Eq`-comparable and byte-stable as JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveTuning {
    /// Punctuation rounds between tuning steps.
    pub tune_every_puncts: u32,
    /// Maximum hot-tier size per plan.
    pub hot_capacity: usize,
    /// Minimum share of the observed stream (parts per million) for a
    /// key to enter the hot tier.
    pub hot_min_share_ppm: u32,
}

impl Default for AdaptiveTuning {
    fn default() -> AdaptiveTuning {
        AdaptiveTuning { tune_every_puncts: 4, hot_capacity: 16, hot_min_share_ppm: 20_000 }
    }
}

/// Full configuration of a biclique engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Initial number of R-side joiners (`n`).
    pub r_joiners: usize,
    /// Initial number of S-side joiners (`m`).
    pub s_joiners: usize,
    /// The join predicate.
    pub predicate: JoinPredicate,
    /// The window specification.
    pub window: WindowSpec,
    /// Routing strategy.
    pub routing: RoutingStrategy,
    /// Archive period `P` of the chained index, in ms.
    pub archive_period_ms: Ts,
    /// Punctuation interval of the ordering protocol, in ms.
    pub punctuation_interval_ms: Ts,
    /// Whether joiners run the order-consistent protocol. Disabling it
    /// exposes the duplicate/missed-result races (experiment E7) and
    /// removes the punctuation wait from the latency path.
    pub ordering: bool,
    /// Micro-batch size: how many tuple copies a router accumulates per
    /// destination before flushing one [`bistream_types::TupleBatch`]
    /// frame (pending batches also flush on every punctuation, so a
    /// punctuation never overtakes the data it covers). `1` reproduces
    /// per-tuple framing exactly; larger values amortise framing, queue
    /// hand-off and index-probe overhead without touching sequence
    /// assignment or results.
    pub batch_size: usize,
    /// Tuning knobs of [`RoutingStrategy::Adaptive`]; ignored by the
    /// static strategies.
    pub adaptive: AdaptiveTuning,
    /// Seed for the router's random placement decisions.
    pub seed: u64,
}

impl EngineConfig {
    /// A small sane default: 2×2 units, equi-join on attribute 0, 10 s
    /// window, hash routing.
    pub fn default_equi() -> EngineConfig {
        EngineConfig {
            r_joiners: 2,
            s_joiners: 2,
            predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            window: WindowSpec::sliding(10_000),
            routing: RoutingStrategy::Hash,
            archive_period_ms: 1_000,
            punctuation_interval_ms: 20,
            ordering: true,
            batch_size: 1,
            adaptive: AdaptiveTuning::default(),
            seed: 0xB1C1,
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.r_joiners == 0 || self.s_joiners == 0 {
            return Err(Error::Config("each side needs at least one joiner".into()));
        }
        if !self.routing.supports(&self.predicate) {
            return Err(Error::Config(format!(
                "routing {:?} requires an equi predicate, got {}",
                self.routing, self.predicate
            )));
        }
        if let JoinPredicate::Band { band, .. } = self.predicate {
            // A negative band matches no pair and asks the index for a
            // range that ends before it starts.
            if band.is_nan() || band < 0.0 {
                return Err(Error::Config(format!("band must be non-negative, got {band}")));
            }
        }
        if let RoutingStrategy::ContRand { subgroups } | RoutingStrategy::Adaptive { subgroups } =
            self.routing
        {
            if subgroups == 0 {
                return Err(Error::Config("subgrouped routing needs at least one subgroup".into()));
            }
            if subgroups > self.r_joiners || subgroups > self.s_joiners {
                return Err(Error::Config(format!(
                    "{:?} with {subgroups} subgroups needs at least that many joiners per side \
                     (have {}×{})",
                    self.routing, self.r_joiners, self.s_joiners
                )));
            }
        }
        if let RoutingStrategy::Adaptive { .. } = self.routing {
            if self.adaptive.tune_every_puncts == 0 {
                return Err(Error::Config(
                    "adaptive routing needs a positive tuning interval".into(),
                ));
            }
            if self.adaptive.hot_capacity == 0 {
                return Err(Error::Config("adaptive routing needs a positive hot capacity".into()));
            }
        }
        if self.punctuation_interval_ms == 0 {
            return Err(Error::Config("punctuation interval must be positive".into()));
        }
        if self.batch_size == 0 {
            return Err(Error::Config("batch size must be at least 1".into()));
        }
        if self.batch_size > bistream_types::batch::MAX_BATCH_LEN {
            return Err(Error::Config(format!(
                "batch size {} exceeds the frame limit {}",
                self.batch_size,
                bistream_types::batch::MAX_BATCH_LEN
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::predicate::CmpOp;

    #[test]
    fn default_is_valid() {
        assert!(EngineConfig::default_equi().validate().is_ok());
    }

    #[test]
    fn hash_routing_rejects_non_equi() {
        let mut c = EngineConfig::default_equi();
        c.predicate = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.0 };
        assert!(c.validate().is_err());
        c.routing = RoutingStrategy::Random;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn negative_or_nan_band_rejected() {
        let mut c = EngineConfig::default_equi();
        c.routing = RoutingStrategy::Random;
        for band in [-1.0, -f64::MIN_POSITIVE, f64::NAN] {
            c.predicate = JoinPredicate::Band { r_attr: 0, s_attr: 0, band };
            assert!(matches!(c.validate(), Err(Error::Config(_))), "band {band}");
        }
        for band in [0.0, -0.0, 2.5, f64::INFINITY] {
            c.predicate = JoinPredicate::Band { r_attr: 0, s_attr: 0, band };
            assert!(c.validate().is_ok(), "band {band}");
        }
    }

    #[test]
    fn contrand_bounds_subgroups() {
        let mut c = EngineConfig::default_equi();
        c.routing = RoutingStrategy::ContRand { subgroups: 2 };
        assert!(c.validate().is_ok());
        c.routing = RoutingStrategy::ContRand { subgroups: 3 };
        assert!(c.validate().is_err(), "more subgroups than joiners");
        c.routing = RoutingStrategy::ContRand { subgroups: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_joiners_rejected() {
        let mut c = EngineConfig::default_equi();
        c.r_joiners = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn batch_size_bounds_enforced() {
        let mut c = EngineConfig::default_equi();
        c.batch_size = 0;
        assert!(c.validate().is_err(), "zero batch");
        c.batch_size = bistream_types::batch::MAX_BATCH_LEN + 1;
        assert!(c.validate().is_err(), "overflows the frame count field");
        c.batch_size = 64;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn adaptive_bounds_subgroups_and_tuning() {
        let mut c = EngineConfig::default_equi();
        c.routing = RoutingStrategy::Adaptive { subgroups: 2 };
        assert!(c.validate().is_ok());
        c.routing = RoutingStrategy::Adaptive { subgroups: 3 };
        assert!(c.validate().is_err(), "more subgroups than joiners");
        c.routing = RoutingStrategy::Adaptive { subgroups: 0 };
        assert!(c.validate().is_err());
        c.routing = RoutingStrategy::Adaptive { subgroups: 1 };
        c.adaptive.tune_every_puncts = 0;
        assert!(c.validate().is_err(), "zero tuning interval");
        c.adaptive.tune_every_puncts = 4;
        c.adaptive.hot_capacity = 0;
        assert!(c.validate().is_err(), "zero hot capacity");
    }

    #[test]
    fn adaptive_requires_equi_predicate() {
        let mut c = EngineConfig::default_equi();
        c.routing = RoutingStrategy::Adaptive { subgroups: 1 };
        c.predicate = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn theta_predicates_route_random_only() {
        let p = JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Lt };
        assert!(RoutingStrategy::Random.supports(&p));
        assert!(!RoutingStrategy::Hash.supports(&p));
        assert!(!RoutingStrategy::ContRand { subgroups: 2 }.supports(&p));
        assert!(!RoutingStrategy::Adaptive { subgroups: 2 }.supports(&p));
    }
}
