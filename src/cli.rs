//! Argument parsing and plumbing for the `bistream` command-line tool.
//!
//! The CLI joins two streams read from a line-oriented file (format of
//! [`bistream_workload::io`]) and writes results to a file or stdout:
//!
//! ```text
//! bistream --r-schema 'orders:id:int,amount:float' \
//!          --s-schema 'payments:ref:int,paid:float' \
//!          --on-equal id=ref --window-ms 60000 \
//!          --input stream.csv --output matches.txt
//! ```
//!
//! Kept in a library module (rather than inline in `main`) so the parsing
//! rules are unit-testable.

use bistream_core::config::{AdaptiveTuning, RoutingStrategy};
use bistream_core::exec::Backend;
use bistream_core::query::{JoinQuery, QueryBuilder};
use bistream_types::error::{Error, Result};
use bistream_types::predicate::CmpOp;
use bistream_types::schema::Schema;
use bistream_types::slo::SloSpec;
use bistream_types::value::ValueType;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// R-side schema.
    pub r_schema: Schema,
    /// S-side schema.
    pub s_schema: Schema,
    /// The join condition, unresolved.
    pub condition: CliCondition,
    /// Window in ms (`None` = full history).
    pub window_ms: Option<u64>,
    /// Joiners per side.
    pub joiners: (usize, usize),
    /// Routing override.
    pub routing: Option<RoutingStrategy>,
    /// Adaptive-routing tuning cadence in punctuation ticks
    /// (`--adaptive-tune-puncts`, only meaningful with
    /// `--routing adaptive[:D]`).
    pub adaptive_tune_puncts: Option<u32>,
    /// Adaptive-routing hot-key threshold in parts-per-million of the
    /// observed stream (`--adaptive-hot-ppm`).
    pub adaptive_hot_ppm: Option<u32>,
    /// Tuples per router→joiner frame (1 = per-tuple framing).
    pub batch_size: usize,
    /// Input path (`-` = stdin).
    pub input: String,
    /// Output path (`-` = stdout).
    pub output: String,
    /// SLO: p99 end-to-end latency ceiling in ms (`--slo-p99-ms`).
    pub slo_p99_ms: Option<u64>,
    /// SLO: ingest-throughput floor in tuples/s (`--slo-min-rate`).
    pub slo_min_rate: Option<f64>,
    /// Where to write the flight-recorder bundle on an SLO breach
    /// (`--slo-bundle`).
    pub slo_bundle: Option<String>,
    /// Execution substrate (`--backend sim|broker|sharded`).
    pub backend: CliBackend,
}

/// Which execution substrate runs the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CliBackend {
    /// The deterministic in-process engine driven on virtual time from
    /// the tuple timestamps (the default, and the only mode where
    /// `--window-ms` and the SLO grades are exact).
    #[default]
    Sim,
    /// The live threaded pipeline on the wrapped execution backend
    /// (broker queues or the sharded ring runtime); tuples are re-stamped
    /// with wall-clock arrival time.
    Live(Backend),
}

/// A join condition as written on the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCondition {
    /// `--on-equal a=b`
    Equal(String, String),
    /// `--on-band a=b:eps`
    Band(String, String, f64),
    /// `--on-theta a<b` etc.
    Theta(String, CmpOp, String),
    /// `--cross`
    Cross,
}

/// Parse `name:attr:type,attr:type,…` into a schema.
pub fn parse_schema(spec: &str) -> Result<Schema> {
    let (name, rest) = spec
        .split_once(':')
        .ok_or_else(|| Error::Config(format!("schema spec `{spec}` needs `name:attrs…`")))?;
    let mut attrs = Vec::new();
    for field in rest.split(',') {
        let (attr, ty) = field
            .split_once(':')
            .ok_or_else(|| Error::Config(format!("attribute `{field}` needs `name:type`")))?;
        let ty = match ty.trim() {
            "int" | "i64" => ValueType::Int,
            "float" | "f64" => ValueType::Float,
            "str" | "string" => ValueType::Str,
            "bool" => ValueType::Bool,
            other => return Err(Error::Config(format!("unknown type `{other}`"))),
        };
        attrs.push((attr.trim(), ty));
    }
    Schema::new(name.trim(), attrs)
}

/// Parse a theta condition like `a<b`, `a>=b`, `a!=b`.
pub fn parse_theta(spec: &str) -> Result<(String, CmpOp, String)> {
    for (symbol, op) in [
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("!=", CmpOp::Ne),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
    ] {
        if let Some((l, r)) = spec.split_once(symbol) {
            return Ok((l.trim().to_owned(), op, r.trim().to_owned()));
        }
    }
    Err(Error::Config(format!("theta condition `{spec}` needs one of < <= > >= !=")))
}

/// Parse the full argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliOptions> {
    let mut r_schema = None;
    let mut s_schema = None;
    let mut condition = None;
    let mut window_ms = Some(10_000u64);
    let mut joiners = (2usize, 2usize);
    let mut routing = None;
    let mut adaptive_tune_puncts = None;
    let mut adaptive_hot_ppm = None;
    let mut batch_size = 1usize;
    let mut input = "-".to_owned();
    let mut output = "-".to_owned();
    let mut slo_p99_ms = None;
    let mut slo_min_rate = None;
    let mut slo_bundle = None;
    let mut backend = CliBackend::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String> {
            it.next().cloned().ok_or_else(|| Error::Config(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--r-schema" => r_schema = Some(parse_schema(&value("--r-schema")?)?),
            "--s-schema" => s_schema = Some(parse_schema(&value("--s-schema")?)?),
            "--on-equal" => {
                let v = value("--on-equal")?;
                let (l, r) = v
                    .split_once('=')
                    .ok_or_else(|| Error::Config("--on-equal needs `a=b`".into()))?;
                condition = Some(CliCondition::Equal(l.trim().into(), r.trim().into()));
            }
            "--on-band" => {
                let v = value("--on-band")?;
                let (pair, eps) = v
                    .rsplit_once(':')
                    .ok_or_else(|| Error::Config("--on-band needs `a=b:eps`".into()))?;
                let (l, r) = pair
                    .split_once('=')
                    .ok_or_else(|| Error::Config("--on-band needs `a=b:eps`".into()))?;
                let eps: f64 =
                    eps.parse().map_err(|e| Error::Config(format!("bad band `{eps}`: {e}")))?;
                condition = Some(CliCondition::Band(l.trim().into(), r.trim().into(), eps));
            }
            "--on-theta" => {
                let (l, op, r) = parse_theta(&value("--on-theta")?)?;
                condition = Some(CliCondition::Theta(l, op, r));
            }
            "--cross" => condition = Some(CliCondition::Cross),
            "--window-ms" => {
                window_ms = Some(
                    value("--window-ms")?
                        .parse()
                        .map_err(|e| Error::Config(format!("bad window: {e}")))?,
                )
            }
            "--full-history" => window_ms = None,
            "--joiners" => {
                let v = value("--joiners")?;
                let (a, b) = v
                    .split_once('x')
                    .ok_or_else(|| Error::Config("--joiners needs `NxM`".into()))?;
                joiners = (
                    a.parse().map_err(|e| Error::Config(format!("bad joiners: {e}")))?,
                    b.parse().map_err(|e| Error::Config(format!("bad joiners: {e}")))?,
                );
            }
            "--routing" => {
                routing = Some(match value("--routing")?.as_str() {
                    "random" => RoutingStrategy::Random,
                    "hash" => RoutingStrategy::Hash,
                    s if s.starts_with("contrand:") => RoutingStrategy::ContRand {
                        subgroups: s["contrand:".len()..]
                            .parse()
                            .map_err(|e| Error::Config(format!("bad subgroups: {e}")))?,
                    },
                    "adaptive" => RoutingStrategy::Adaptive { subgroups: 2 },
                    s if s.starts_with("adaptive:") => RoutingStrategy::Adaptive {
                        subgroups: s["adaptive:".len()..]
                            .parse()
                            .map_err(|e| Error::Config(format!("bad subgroups: {e}")))?,
                    },
                    other => return Err(Error::Config(format!("unknown routing `{other}`"))),
                })
            }
            "--adaptive-tune-puncts" => {
                adaptive_tune_puncts = Some(
                    value("--adaptive-tune-puncts")?
                        .parse()
                        .map_err(|e| Error::Config(format!("bad tuning cadence: {e}")))?,
                )
            }
            "--adaptive-hot-ppm" => {
                adaptive_hot_ppm = Some(
                    value("--adaptive-hot-ppm")?
                        .parse()
                        .map_err(|e| Error::Config(format!("bad hot threshold: {e}")))?,
                )
            }
            "--batch-size" => {
                batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|e| Error::Config(format!("bad batch size: {e}")))?
            }
            "--input" | "-i" => input = value("--input")?,
            "--output" | "-o" => output = value("--output")?,
            "--slo-p99-ms" => {
                slo_p99_ms = Some(
                    value("--slo-p99-ms")?
                        .parse()
                        .map_err(|e| Error::Config(format!("bad p99 ceiling: {e}")))?,
                )
            }
            "--slo-min-rate" => {
                slo_min_rate = Some(
                    value("--slo-min-rate")?
                        .parse()
                        .map_err(|e| Error::Config(format!("bad rate floor: {e}")))?,
                )
            }
            "--slo-bundle" => slo_bundle = Some(value("--slo-bundle")?),
            "--backend" => {
                backend = match value("--backend")?.as_str() {
                    "sim" => CliBackend::Sim,
                    "broker" => CliBackend::Live(Backend::Broker),
                    "sharded" => CliBackend::Live(Backend::Sharded),
                    other => {
                        return Err(Error::Config(format!(
                            "unknown backend `{other}` (sim, broker or sharded)"
                        )))
                    }
                }
            }
            other => return Err(Error::Config(format!("unknown flag `{other}` (see --help)"))),
        }
    }

    Ok(CliOptions {
        r_schema: r_schema.ok_or_else(|| Error::Config("--r-schema is required".into()))?,
        s_schema: s_schema.ok_or_else(|| Error::Config("--s-schema is required".into()))?,
        condition: condition.ok_or_else(|| {
            Error::Config(
                "a condition is required (--on-equal/--on-band/--on-theta/--cross)".into(),
            )
        })?,
        window_ms,
        joiners,
        routing,
        adaptive_tune_puncts,
        adaptive_hot_ppm,
        batch_size,
        input,
        output,
        slo_p99_ms,
        slo_min_rate,
        slo_bundle,
        backend,
    })
}

impl CliOptions {
    /// The SLO spec assembled from the `--slo-*` flags, or `None` when no
    /// objective was requested (the run is then not graded at all).
    pub fn slo_spec(&self) -> Option<SloSpec> {
        if self.slo_p99_ms.is_none() && self.slo_min_rate.is_none() {
            return None;
        }
        let mut spec = SloSpec::new();
        if let Some(ms) = self.slo_p99_ms {
            spec = spec.p99_latency_ms(ms);
        }
        if let Some(tps) = self.slo_min_rate {
            spec = spec.min_ingest_tps(tps);
        }
        Some(spec)
    }

    /// Resolve into a validated [`JoinQuery`].
    pub fn into_query(self) -> Result<JoinQuery> {
        let mut b = QueryBuilder::new(self.r_schema, self.s_schema)
            .joiners(self.joiners.0, self.joiners.1)
            .batch_size(self.batch_size);
        b = match &self.condition {
            CliCondition::Equal(l, r) => b.on_equal(l, r),
            CliCondition::Band(l, r, eps) => b.on_band(l, r, *eps),
            CliCondition::Theta(l, op, r) => b.on_theta(l, *op, r),
            CliCondition::Cross => b.cross(),
        };
        b = match self.window_ms {
            Some(ms) => b.window_ms(ms),
            None => b.full_history(),
        };
        if let Some(r) = self.routing {
            b = b.routing(r);
        }
        if self.adaptive_tune_puncts.is_some() || self.adaptive_hot_ppm.is_some() {
            let mut tuning = AdaptiveTuning::default();
            if let Some(n) = self.adaptive_tune_puncts {
                tuning.tune_every_puncts = n;
            }
            if let Some(ppm) = self.adaptive_hot_ppm {
                tuning.hot_min_share_ppm = ppm;
            }
            b = b.adaptive_tuning(tuning);
        }
        b.build()
    }
}

/// The usage text for `--help`.
pub const USAGE: &str = "\
bistream — windowed stream join over a file of tuples

USAGE:
  bistream --r-schema NAME:ATTR:TYPE[,…] --s-schema NAME:ATTR:TYPE[,…]
           (--on-equal A=B | --on-band A=B:EPS | --on-theta 'A<B' | --cross)
           [--window-ms MS | --full-history] [--joiners NxM]
           [--routing random|hash|contrand:D|adaptive[:D]] [--batch-size N]
           [--adaptive-tune-puncts N] [--adaptive-hot-ppm PPM]
           [--backend sim|broker|sharded]
           [--input FILE] [--output FILE]
           [--slo-p99-ms MS] [--slo-min-rate TPS] [--slo-bundle FILE]

ROUTING:
  random          store random own-side unit, broadcast join copies.
  hash            content-sensitive, 2 copies/tuple (skew-fragile).
  contrand:D      paper's ContRand with D subgroups per side.
  adaptive[:D]    self-tuning ContRand starting at D subgroups (default
                  2): hot keys (detected by in-router sketches) fan out
                  wide, cold keys stay content-sensitive, and D re-tunes
                  online; every strategy switch is fenced on punctuation
                  boundaries. Equi joins only.
                  --adaptive-tune-puncts sets the tuning cadence in
                  punctuation ticks (default 4); --adaptive-hot-ppm the
                  hot-key share threshold in parts-per-million of the
                  observed stream (default 20000 = 2%).

BACKENDS:
  sim (default)   deterministic in-process engine on virtual time from
                  the tuple timestamps — exact windows, exact SLO grades.
  broker          live threaded pipeline over broker queues.
  sharded         live lock-free sharded runtime (one worker per unit
                  over bounded ring queues) — the throughput backend.
  The live backends replay flat-out and re-stamp tuples with wall-clock
  arrival time, so --window-ms is interpreted on the wall clock.

SLO GRADING (virtual time, from tuple timestamps):
  --slo-p99-ms MS     p99 result-latency ceiling; --slo-min-rate TPS an
  activity-gated ingest floor. A breach prints the verdict, writes the
  flight-recorder bundle to --slo-bundle (if given) and exits 3.

INPUT FORMAT (one tuple per line):
  R,<ts-ms>,<attr0>,<attr1>,…        # `\\N` is null, `#` starts a comment
  S,<ts-ms>,<attr0>,…

TYPES: int, float, str, bool
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_schema_spec() {
        let s = parse_schema("orders:id:int,amount:float,who:str").unwrap();
        assert_eq!(s.name(), "orders");
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attributes()[1].ty, ValueType::Float);
        assert!(parse_schema("noattrs").is_err());
        assert!(parse_schema("x:id:decimal").is_err());
    }

    #[test]
    fn parses_theta_specs() {
        assert_eq!(parse_theta("a<b").unwrap(), ("a".into(), CmpOp::Lt, "b".into()));
        assert_eq!(parse_theta("a >= b").unwrap(), ("a".into(), CmpOp::Ge, "b".into()));
        assert_eq!(parse_theta("x!=y").unwrap(), ("x".into(), CmpOp::Ne, "y".into()));
        assert!(parse_theta("a~b").is_err());
    }

    #[test]
    fn parses_full_command_line() {
        let opts = parse_args(&argv(
            "--r-schema o:id:int --s-schema p:ref:int --on-equal id=ref \
             --window-ms 5000 --joiners 3x2 --routing contrand:2 --batch-size 32 \
             -i in.csv -o out.txt",
        ))
        .unwrap();
        assert_eq!(opts.condition, CliCondition::Equal("id".into(), "ref".into()));
        assert_eq!(opts.window_ms, Some(5_000));
        assert_eq!(opts.joiners, (3, 2));
        assert_eq!(opts.routing, Some(RoutingStrategy::ContRand { subgroups: 2 }));
        assert_eq!(opts.batch_size, 32);
        assert_eq!(opts.input, "in.csv");
        assert_eq!(opts.output, "out.txt");
        let q = opts.into_query().unwrap();
        assert_eq!(q.config().r_joiners, 3);
        assert_eq!(q.config().batch_size, 32);
    }

    #[test]
    fn adaptive_routing_flag_with_and_without_subgroups() {
        let base = "--r-schema o:id:int --s-schema p:ref:int --on-equal id=ref";
        let opts = parse_args(&argv(&format!("{base} --routing adaptive"))).unwrap();
        assert_eq!(opts.routing, Some(RoutingStrategy::Adaptive { subgroups: 2 }));
        let opts =
            parse_args(&argv(&format!("{base} --joiners 4x4 --routing adaptive:4"))).unwrap();
        assert_eq!(opts.routing, Some(RoutingStrategy::Adaptive { subgroups: 4 }));
        let q = opts.into_query().unwrap();
        assert_eq!(q.config().routing, RoutingStrategy::Adaptive { subgroups: 4 });
        assert!(parse_args(&argv(&format!("{base} --routing adaptive:x"))).is_err());
    }

    #[test]
    fn adaptive_tuning_flags_flow_into_the_config() {
        let base = "--r-schema o:id:int --s-schema p:ref:int --on-equal id=ref \
                    --routing adaptive";
        let opts =
            parse_args(&argv(&format!("{base} --adaptive-tune-puncts 7 --adaptive-hot-ppm 50000")))
                .unwrap();
        assert_eq!(opts.adaptive_tune_puncts, Some(7));
        assert_eq!(opts.adaptive_hot_ppm, Some(50_000));
        let q = opts.into_query().unwrap();
        assert_eq!(q.config().adaptive.tune_every_puncts, 7);
        assert_eq!(q.config().adaptive.hot_min_share_ppm, 50_000);
        // Defaults survive when the flags are absent.
        let q = parse_args(&argv(base)).unwrap().into_query().unwrap();
        assert_eq!(q.config().adaptive, AdaptiveTuning::default());
        assert!(parse_args(&argv(&format!("{base} --adaptive-tune-puncts nope"))).is_err());
    }

    #[test]
    fn usage_documents_adaptive_routing() {
        assert!(USAGE.contains("adaptive[:D]"));
    }

    #[test]
    fn band_and_cross_conditions() {
        let opts = parse_args(&argv("--r-schema o:v:float --s-schema p:w:float --on-band v=w:1.5"))
            .unwrap();
        assert_eq!(opts.condition, CliCondition::Band("v".into(), "w".into(), 1.5));
        assert!(opts.into_query().is_ok());

        let opts = parse_args(&argv("--r-schema o:v:int --s-schema p:w:int --cross")).unwrap();
        assert_eq!(opts.condition, CliCondition::Cross);
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse_args(&argv("--r-schema o:v:int")).is_err());
        assert!(
            parse_args(&argv("--r-schema o:v:int --s-schema p:w:int")).is_err(),
            "no condition"
        );
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn slo_flags_build_a_spec() {
        let opts = parse_args(&argv(
            "--r-schema o:v:int --s-schema p:w:int --on-equal v=w \
             --slo-p99-ms 250 --slo-min-rate 100.5 --slo-bundle breach.json",
        ))
        .unwrap();
        assert_eq!(opts.slo_p99_ms, Some(250));
        assert_eq!(opts.slo_min_rate, Some(100.5));
        assert_eq!(opts.slo_bundle.as_deref(), Some("breach.json"));
        let spec = opts.slo_spec().expect("flags set");
        assert_eq!(spec.p99_latency_ms, Some(250));
        assert_eq!(spec.min_ingest_tps, Some(100.5));

        let opts =
            parse_args(&argv("--r-schema o:v:int --s-schema p:w:int --on-equal v=w")).unwrap();
        assert!(opts.slo_spec().is_none(), "no flags, no grading");
        assert!(parse_args(&argv(
            "--r-schema o:v:int --s-schema p:w:int --on-equal v=w --slo-p99-ms nope"
        ))
        .is_err());
    }

    #[test]
    fn backend_flag_selects_the_substrate() {
        let base = "--r-schema o:v:int --s-schema p:w:int --on-equal v=w";
        let opts = parse_args(&argv(base)).unwrap();
        assert_eq!(opts.backend, CliBackend::Sim, "sim is the default");
        let opts = parse_args(&argv(&format!("{base} --backend sharded"))).unwrap();
        assert_eq!(opts.backend, CliBackend::Live(Backend::Sharded));
        let opts = parse_args(&argv(&format!("{base} --backend broker"))).unwrap();
        assert_eq!(opts.backend, CliBackend::Live(Backend::Broker));
        let opts = parse_args(&argv(&format!("{base} --backend sim"))).unwrap();
        assert_eq!(opts.backend, CliBackend::Sim);
        assert!(parse_args(&argv(&format!("{base} --backend gpu"))).is_err());
    }

    #[test]
    fn full_history_flag() {
        let opts = parse_args(&argv(
            "--r-schema o:v:int --s-schema p:w:int --on-equal v=w --full-history",
        ))
        .unwrap();
        assert_eq!(opts.window_ms, None);
        let q = opts.into_query().unwrap();
        assert_eq!(q.config().window, bistream_types::window::WindowSpec::FullHistory);
    }
}
