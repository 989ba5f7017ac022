//! A schema-aware query layer on top of the engine configuration.
//!
//! The raw [`EngineConfig`] addresses join attributes by index; real
//! applications think in attribute *names* over typed schemas. A
//! [`QueryBuilder`] resolves names against the two relations' schemas,
//! type-checks the predicate (band joins need numeric attributes,
//! equality needs matching types), picks a routing strategy appropriate
//! to the predicate class unless overridden, and produces both the
//! engine configuration and a [`JoinQuery`] handle that validates input
//! tuples at the edge.

use crate::config::{AdaptiveTuning, EngineConfig, RoutingStrategy};
use bistream_types::error::{Error, Result};
use bistream_types::predicate::{CmpOp, JoinPredicate};
use bistream_types::rel::Rel;
use bistream_types::schema::Schema;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::ValueType;
use bistream_types::window::WindowSpec;

/// A resolved, validated join query over two stream schemas.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    r_schema: Schema,
    s_schema: Schema,
    config: EngineConfig,
}

impl JoinQuery {
    /// The engine configuration realising this query.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The schema of `side`'s stream.
    pub fn schema(&self, side: Rel) -> &Schema {
        match side {
            Rel::R => &self.r_schema,
            Rel::S => &self.s_schema,
        }
    }

    /// Validate an input tuple against its relation's schema (arity and
    /// attribute types) — the edge check a stream adapter runs before
    /// handing tuples to the engine.
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        self.schema(tuple.rel()).validate(tuple.values())
    }
}

/// The condition of a [`QueryBuilder`] (pre-resolution).
#[derive(Debug, Clone)]
enum Condition {
    Equal { r: String, s: String },
    Band { r: String, s: String, band: f64 },
    Theta { r: String, op: CmpOp, s: String },
    Cross,
}

/// Builder resolving named join conditions into an [`EngineConfig`].
///
/// ```
/// use bistream_core::query::QueryBuilder;
/// use bistream_types::schema::Schema;
/// use bistream_types::value::ValueType;
///
/// let orders = Schema::new("orders", vec![("id", ValueType::Int)])?;
/// let payments = Schema::new("payments", vec![("ref_id", ValueType::Int)])?;
/// let query = QueryBuilder::new(orders, payments)
///     .on_equal("id", "ref_id")
///     .window_ms(60_000)
///     .joiners(3, 3)
///     .build()?;
/// assert!(query.config().predicate.is_equi());
/// # Ok::<(), bistream_types::error::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    r_schema: Schema,
    s_schema: Schema,
    condition: Option<Condition>,
    window: WindowSpec,
    routing: Option<RoutingStrategy>,
    r_joiners: usize,
    s_joiners: usize,
    archive_period_ms: Option<Ts>,
    punctuation_interval_ms: Ts,
    seed: u64,
    batch_size: usize,
    adaptive: AdaptiveTuning,
}

impl QueryBuilder {
    /// Start a query joining stream `r_schema` (relation R) with
    /// `s_schema` (relation S).
    pub fn new(r_schema: Schema, s_schema: Schema) -> QueryBuilder {
        QueryBuilder {
            r_schema,
            s_schema,
            condition: None,
            window: WindowSpec::sliding(10_000),
            routing: None,
            r_joiners: 2,
            s_joiners: 2,
            archive_period_ms: None,
            punctuation_interval_ms: 20,
            seed: 0xB1C1,
            batch_size: 1,
            adaptive: AdaptiveTuning::default(),
        }
    }

    /// Equi condition: `R.r_attr = S.s_attr`.
    pub fn on_equal(mut self, r_attr: &str, s_attr: &str) -> QueryBuilder {
        self.condition = Some(Condition::Equal { r: r_attr.into(), s: s_attr.into() });
        self
    }

    /// Band condition: `|R.r_attr − S.s_attr| ≤ band`.
    pub fn on_band(mut self, r_attr: &str, s_attr: &str, band: f64) -> QueryBuilder {
        self.condition = Some(Condition::Band { r: r_attr.into(), s: s_attr.into(), band });
        self
    }

    /// Inequality condition: `R.r_attr OP S.s_attr`.
    pub fn on_theta(mut self, r_attr: &str, op: CmpOp, s_attr: &str) -> QueryBuilder {
        self.condition = Some(Condition::Theta { r: r_attr.into(), op, s: s_attr.into() });
        self
    }

    /// Cartesian product (no condition).
    pub fn cross(mut self) -> QueryBuilder {
        self.condition = Some(Condition::Cross);
        self
    }

    /// Time-based sliding window of `ms` milliseconds (default 10 s).
    pub fn window_ms(mut self, ms: Ts) -> QueryBuilder {
        self.window = WindowSpec::sliding(ms);
        self
    }

    /// Join over the full stream history.
    pub fn full_history(mut self) -> QueryBuilder {
        self.window = WindowSpec::FullHistory;
        self
    }

    /// Joiner units per side (default 2×2).
    pub fn joiners(mut self, r: usize, s: usize) -> QueryBuilder {
        self.r_joiners = r;
        self.s_joiners = s;
        self
    }

    /// Override the automatically chosen routing strategy.
    pub fn routing(mut self, routing: RoutingStrategy) -> QueryBuilder {
        self.routing = Some(routing);
        self
    }

    /// Archive period of the chained index (default `window / 20`).
    pub fn archive_period_ms(mut self, ms: Ts) -> QueryBuilder {
        self.archive_period_ms = Some(ms);
        self
    }

    /// Punctuation interval of the ordering protocol (default 20 ms).
    pub fn punctuation_interval_ms(mut self, ms: Ts) -> QueryBuilder {
        self.punctuation_interval_ms = ms;
        self
    }

    /// Seed for routing randomness.
    pub fn seed(mut self, seed: u64) -> QueryBuilder {
        self.seed = seed;
        self
    }

    /// Tuples per [`bistream_types::TupleBatch`] frame on every
    /// router→joiner channel (default 1: per-tuple framing).
    pub fn batch_size(mut self, tuples: usize) -> QueryBuilder {
        self.batch_size = tuples;
        self
    }

    /// Tuning knobs for [`RoutingStrategy::Adaptive`] (tuning cadence,
    /// hot-tier capacity and thresholds); ignored under the static
    /// strategies.
    pub fn adaptive_tuning(mut self, tuning: AdaptiveTuning) -> QueryBuilder {
        self.adaptive = tuning;
        self
    }

    /// Resolve names, type-check, choose routing, and produce the query.
    ///
    /// # Errors
    /// [`Error::Schema`] for unknown attributes or type mismatches;
    /// [`Error::Config`] for a missing condition or an invalid topology.
    pub fn build(mut self) -> Result<JoinQuery> {
        let condition = self.condition.take().ok_or_else(|| {
            Error::Config("query needs a join condition (on_equal/on_band/on_theta/cross)".into())
        })?;

        let predicate = match &condition {
            Condition::Cross => JoinPredicate::Cross,
            Condition::Equal { r, s } => {
                let (ri, rt) = self.attr(Rel::R, r)?;
                let (si, st) = self.attr(Rel::S, s)?;
                if rt != st && !numeric_pair(rt, st) {
                    return Err(Error::Schema(format!(
                        "cannot equate `{r}` ({rt:?}) with `{s}` ({st:?})"
                    )));
                }
                JoinPredicate::Equi { r_attr: ri, s_attr: si }
            }
            Condition::Band { r, s, band } => {
                let (ri, rt) = self.attr(Rel::R, r)?;
                let (si, st) = self.attr(Rel::S, s)?;
                for (name, ty) in [(r, rt), (s, st)] {
                    if !matches!(ty, ValueType::Int | ValueType::Float) {
                        return Err(Error::Schema(format!(
                            "band join needs numeric attributes; `{name}` is {ty:?}"
                        )));
                    }
                }
                JoinPredicate::Band { r_attr: ri, s_attr: si, band: *band }
            }
            Condition::Theta { r, op, s } => {
                let (ri, rt) = self.attr(Rel::R, r)?;
                let (si, st) = self.attr(Rel::S, s)?;
                if rt != st && !numeric_pair(rt, st) {
                    return Err(Error::Schema(format!(
                        "cannot compare `{r}` ({rt:?}) with `{s}` ({st:?})"
                    )));
                }
                JoinPredicate::Theta { r_attr: ri, s_attr: si, op: *op }
            }
        };

        // Routing: content-sensitive only applies to equi predicates.
        let routing = match self.routing {
            Some(r) => r,
            None if predicate.is_equi() => RoutingStrategy::Hash,
            None => RoutingStrategy::Random,
        };

        let archive_period_ms = self
            .archive_period_ms
            .unwrap_or_else(|| self.window.size().map(|w| (w / 20).max(1)).unwrap_or(1_000));
        let config = EngineConfig {
            r_joiners: self.r_joiners,
            s_joiners: self.s_joiners,
            predicate,
            window: self.window,
            routing,
            archive_period_ms,
            punctuation_interval_ms: self.punctuation_interval_ms,
            ordering: true,
            seed: self.seed,
            batch_size: self.batch_size,
            adaptive: self.adaptive,
        };
        config.validate()?;
        Ok(JoinQuery { r_schema: self.r_schema, s_schema: self.s_schema, config })
    }

    fn attr(&self, side: Rel, name: &str) -> Result<(usize, ValueType)> {
        let schema = match side {
            Rel::R => &self.r_schema,
            Rel::S => &self.s_schema,
        };
        let idx = schema.require(name)?;
        Ok((idx, schema.attributes()[idx].ty))
    }
}

fn numeric_pair(a: ValueType, b: ValueType) -> bool {
    matches!(a, ValueType::Int | ValueType::Float) && matches!(b, ValueType::Int | ValueType::Float)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::schema::TupleBuilder;
    use bistream_types::value::Value;

    fn orders() -> Schema {
        Schema::new(
            "orders",
            vec![
                ("order_id", ValueType::Int),
                ("amount", ValueType::Float),
                ("who", ValueType::Str),
            ],
        )
        .unwrap()
    }

    fn payments() -> Schema {
        Schema::new("payments", vec![("ref_id", ValueType::Int), ("paid", ValueType::Float)])
            .unwrap()
    }

    #[test]
    fn equi_query_resolves_names_and_picks_hash_routing() {
        let q = QueryBuilder::new(orders(), payments())
            .on_equal("order_id", "ref_id")
            .window_ms(5_000)
            .joiners(3, 2)
            .build()
            .unwrap();
        let cfg = q.config();
        assert_eq!(cfg.predicate, JoinPredicate::Equi { r_attr: 0, s_attr: 0 });
        assert_eq!(cfg.routing, RoutingStrategy::Hash);
        assert_eq!((cfg.r_joiners, cfg.s_joiners), (3, 2));
        assert_eq!(cfg.window.size(), Some(5_000));
        assert_eq!(cfg.archive_period_ms, 250, "defaults to window/20");
    }

    #[test]
    fn band_query_needs_numeric_attrs_and_routes_random() {
        let q =
            QueryBuilder::new(orders(), payments()).on_band("amount", "paid", 0.5).build().unwrap();
        assert_eq!(q.config().routing, RoutingStrategy::Random);
        assert!(matches!(q.config().predicate, JoinPredicate::Band { r_attr: 1, s_attr: 1, .. }));

        let err = QueryBuilder::new(orders(), payments()).on_band("who", "paid", 0.5).build();
        assert!(matches!(err, Err(Error::Schema(_))));
        // `EngineConfig::validate` refuses a band no pair can satisfy.
        for band in [-1.0, f64::NAN] {
            let err =
                QueryBuilder::new(orders(), payments()).on_band("amount", "paid", band).build();
            assert!(matches!(err, Err(Error::Config(_))), "band {band}");
        }
    }

    #[test]
    fn theta_and_cross_queries() {
        let q = QueryBuilder::new(orders(), payments())
            .on_theta("amount", CmpOp::Gt, "paid")
            .full_history()
            .build()
            .unwrap();
        assert!(matches!(q.config().predicate, JoinPredicate::Theta { op: CmpOp::Gt, .. }));
        assert_eq!(q.config().window, WindowSpec::FullHistory);

        let q = QueryBuilder::new(orders(), payments()).cross().build().unwrap();
        assert_eq!(q.config().predicate, JoinPredicate::Cross);
    }

    #[test]
    fn missing_condition_and_unknown_attribute_error() {
        assert!(matches!(QueryBuilder::new(orders(), payments()).build(), Err(Error::Config(_))));
        assert!(matches!(
            QueryBuilder::new(orders(), payments()).on_equal("nope", "ref_id").build(),
            Err(Error::Schema(_))
        ));
    }

    #[test]
    fn type_mismatch_on_equality_rejected_numeric_pair_allowed() {
        // Str vs Float: rejected.
        assert!(QueryBuilder::new(orders(), payments()).on_equal("who", "paid").build().is_err());
        // Int vs Float: allowed (Value compares numerically).
        assert!(QueryBuilder::new(orders(), payments())
            .on_equal("order_id", "paid")
            .build()
            .is_ok());
    }

    #[test]
    fn adaptive_routing_and_tuning_flow_into_the_config() {
        let tuning = AdaptiveTuning { tune_every_puncts: 9, hot_capacity: 5, ..Default::default() };
        let q = QueryBuilder::new(orders(), payments())
            .on_equal("order_id", "ref_id")
            .routing(RoutingStrategy::Adaptive { subgroups: 2 })
            .adaptive_tuning(tuning)
            .build()
            .unwrap();
        assert_eq!(q.config().routing, RoutingStrategy::Adaptive { subgroups: 2 });
        assert_eq!(q.config().adaptive, tuning);
        // Adaptive is content-sensitive in its cold tier: equi only.
        let err = QueryBuilder::new(orders(), payments())
            .on_band("amount", "paid", 1.0)
            .routing(RoutingStrategy::Adaptive { subgroups: 2 })
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn routing_override_is_validated() {
        // ContRand on a band join must be rejected by config validation.
        let err = QueryBuilder::new(orders(), payments())
            .on_band("amount", "paid", 1.0)
            .routing(RoutingStrategy::ContRand { subgroups: 2 })
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn query_validates_edge_tuples() {
        let q =
            QueryBuilder::new(orders(), payments()).on_equal("order_id", "ref_id").build().unwrap();
        let good = TupleBuilder::new(q.schema(Rel::R), Rel::R, 1)
            .set("order_id", 7i64)
            .unwrap()
            .build()
            .unwrap();
        assert!(q.validate(&good).is_ok());
        let bad = Tuple::new(Rel::S, 1, vec![Value::Str("x".into()), Value::Float(1.0)]);
        assert!(q.validate(&bad).is_err());
    }

    #[test]
    fn query_runs_end_to_end_on_the_engine() {
        let q = QueryBuilder::new(orders(), payments())
            .on_equal("order_id", "ref_id")
            .window_ms(1_000)
            .seed(3)
            .build()
            .unwrap();
        let mut engine = crate::engine::BicliqueEngine::new(q.config().clone()).unwrap();
        engine.capture_results();
        let r = TupleBuilder::new(q.schema(Rel::R), Rel::R, 10)
            .set("order_id", 42i64)
            .unwrap()
            .set("amount", 9.5)
            .unwrap()
            .build()
            .unwrap();
        let s = TupleBuilder::new(q.schema(Rel::S), Rel::S, 20)
            .set("ref_id", 42i64)
            .unwrap()
            .set("paid", 9.5)
            .unwrap()
            .build()
            .unwrap();
        q.validate(&r).unwrap();
        q.validate(&s).unwrap();
        engine.ingest(&r, 10).unwrap();
        engine.ingest(&s, 20).unwrap();
        engine.punctuate(40).unwrap();
        assert_eq!(engine.take_captured().len(), 1);
    }
}
