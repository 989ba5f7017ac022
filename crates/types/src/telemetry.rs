//! Prometheus text-format rendering — the one exposition-format emitter.
//!
//! Every exposition-format string that leaves the process goes through
//! this module: `cargo xtask lint` rejects `# TYPE`/`# HELP` string
//! literals anywhere else in the workspace, so the text shape stays
//! consistent across the CLI (`--telemetry-out`) and the threaded
//! executor's scrape endpoint. The format is hand-rolled (zero new deps)
//! and reuses the registry's label-escaping rules
//! ([`crate::registry::escape_label_value`] semantics, written inline to
//! avoid per-label allocation).
//!
//! Counters and gauges render as single sample lines. Histograms render
//! summary-style (pinned `quantile` lines plus `_count`/`_sum`/`_max`)
//! and additionally expose cumulative `_bucket{le="…"}` lines read
//! straight from the live log₂ buckets, so scrape consumers can recover
//! the full distribution rather than just three quantiles.

use crate::metrics::Histogram;
use crate::registry::{Handle, MetricKey, MetricsRegistry};
use crate::time::Ts;
use std::fmt::Write as _;

/// A reusable exporter: holds the output buffer across renders so a
/// steady-state telemetry loop stops allocating once the buffer has grown
/// to the size of one exposition page.
#[derive(Debug, Default)]
pub struct TextExporter {
    buf: String,
    family: String,
}

impl TextExporter {
    /// A fresh exporter with empty buffers.
    pub fn new() -> TextExporter {
        TextExporter::default()
    }

    /// Render `registry` in the Prometheus text exposition format at
    /// (informational) scrape time `at`, reusing the internal buffer.
    /// The returned slice is valid until the next `render` call.
    pub fn render(&mut self, registry: &MetricsRegistry, _at: Ts) -> &str {
        self.buf.clear();
        self.family.clear();
        let buf = &mut self.buf;
        let family = &mut self.family;
        registry.for_each_handle(|key, handle| {
            if key.name != *family {
                let kind = match handle {
                    Handle::Counter(_) => "counter",
                    Handle::Gauge(_) => "gauge",
                    Handle::Histogram(_) => "summary",
                };
                let _ = writeln!(buf, "# TYPE {} {kind}", key.name);
                family.clear();
                family.push_str(&key.name);
            }
            match handle {
                Handle::Counter(c) => {
                    write_series(buf, &key.name, "", &key.labels, None);
                    let _ = writeln!(buf, " {}", c.get());
                }
                Handle::Gauge(g) => {
                    write_series(buf, &key.name, "", &key.labels, None);
                    let _ = writeln!(buf, " {}", g.get());
                }
                Handle::Histogram(h) => write_histogram(buf, key, h),
            }
        });
        &self.buf
    }
}

/// One-shot convenience: render `registry` into a fresh string.
pub fn prometheus_text(registry: &MetricsRegistry, at: Ts) -> String {
    let mut exporter = TextExporter::new();
    exporter.render(registry, at);
    exporter.buf
}

/// Write `name` + optional `suffix` + a `{…}` label block (labels in key
/// order, `extra` appended last), escaping label values inline.
fn write_series(
    buf: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
) {
    buf.push_str(name);
    buf.push_str(suffix);
    if labels.is_empty() && extra.is_none() {
        return;
    }
    buf.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            buf.push(',');
        }
        first = false;
        buf.push_str(k);
        buf.push_str("=\"");
        write_escaped(buf, v);
        buf.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            buf.push(',');
        }
        buf.push_str(k);
        buf.push_str("=\"");
        write_escaped(buf, v);
        buf.push('"');
    }
    buf.push('}');
}

/// Escape a label value per the Prometheus rules (`\\`, `\"`, `\n`),
/// writing directly into `buf` — same semantics as
/// [`crate::registry::escape_label_value`] without the intermediate
/// allocation.
fn write_escaped(buf: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => buf.push_str("\\\\"),
            '"' => buf.push_str("\\\""),
            '\n' => buf.push_str("\\n"),
            _ => buf.push(c),
        }
    }
}

/// Render one histogram family: pinned quantiles, cumulative log₂
/// buckets, then `_count`/`_sum`/`_max`.
fn write_histogram(buf: &mut String, key: &MetricKey, h: &Histogram) {
    let name = &key.name;
    let snap = h.snapshot();
    for (q, v) in [("0.5", snap.p50), ("0.95", snap.p95), ("0.99", snap.p99)] {
        write_series(buf, name, "", &key.labels, Some(("quantile", q)));
        let _ = writeln!(buf, " {v}");
    }
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    let mut le = String::new();
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        if *c == 0 {
            continue;
        }
        let Some(upper) = Histogram::bucket_upper_bound(i) else {
            // The open-ended last bucket is covered by the +Inf line.
            continue;
        };
        le.clear();
        let _ = write!(le, "{upper}");
        write_series(buf, name, "_bucket", &key.labels, Some(("le", &le)));
        let _ = writeln!(buf, " {cumulative}");
    }
    write_series(buf, name, "_bucket", &key.labels, Some(("le", "+Inf")));
    let _ = writeln!(buf, " {cumulative}");
    write_series(buf, name, "_count", &key.labels, None);
    let _ = writeln!(buf, " {}", snap.count);
    write_series(buf, name, "_sum", &key.labels, None);
    let _ = writeln!(buf, " {}", h.sum());
    write_series(buf, name, "_max", &key.labels, None);
    let _ = writeln!(buf, " {}", snap.max);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of the exporter's label escaping, for round-trip checks.
    fn unescape(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                other => panic!("bad escape: \\{other:?}"),
            }
        }
        out
    }

    #[test]
    fn label_escaping_round_trips() {
        let ugly = "we\"ird\\lab\nel";
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("engine", ugly)]).inc();
        let text = prometheus_text(&reg, 0);
        let line = text.lines().find(|l| l.starts_with("c_total{")).unwrap();
        // No raw newline survives inside the label block.
        assert!(line.contains(r#"engine="we\"ird\\lab\nel""#), "got: {line}");
        let escaped = line.strip_prefix("c_total{engine=\"").unwrap();
        let escaped = escaped.strip_suffix("\"} 1").unwrap();
        assert_eq!(unescape(escaped), ugly);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ms", &[("joiner", "S1")]);
        for v in [0u64, 1, 2, 3, 4, 100, 100_000] {
            h.record(v);
        }
        let text = prometheus_text(&reg, 0);
        let buckets: Vec<(String, u64)> = text
            .lines()
            .filter(|l| l.starts_with("lat_ms_bucket{"))
            .map(|l| {
                let (key, v) = l.rsplit_once(' ').unwrap();
                let le = key.split("le=\"").nth(1).unwrap().trim_end_matches("\"}");
                (le.to_string(), v.parse().unwrap())
            })
            .collect();
        assert!(buckets.len() >= 4, "got: {buckets:?}");
        // Cumulative counts never decrease and +Inf closes at the total.
        for w in buckets.windows(2) {
            assert!(w[1].1 >= w[0].1, "non-monotone: {buckets:?}");
        }
        assert_eq!(buckets.last().unwrap(), &("+Inf".to_string(), 7));
        // Each finite bucket counts exactly the samples ≤ its upper edge.
        for (le, cum) in &buckets {
            if le == "+Inf" {
                continue;
            }
            let edge: u64 = le.parse().unwrap();
            let expect =
                [0u64, 1, 2, 3, 4, 100, 100_000].iter().filter(|v| **v <= edge).count() as u64;
            assert_eq!(*cum, expect, "le={le}");
        }
    }

    #[test]
    fn golden_exposition_text() {
        let reg = MetricsRegistry::new();
        reg.counter("acme_requests_total", &[("svc", "a")]).add(3);
        reg.gauge("acme_queue_depth", &[]).set(7);
        let h = reg.histogram("acme_lat_ms", &[("svc", "a")]);
        for v in [0u64, 1, 3, 100] {
            h.record(v);
        }
        let text = prometheus_text(&reg, 0);
        let expected = "\
# TYPE acme_lat_ms summary
acme_lat_ms{svc=\"a\",quantile=\"0.5\"} 2
acme_lat_ms{svc=\"a\",quantile=\"0.95\"} 100
acme_lat_ms{svc=\"a\",quantile=\"0.99\"} 100
acme_lat_ms_bucket{svc=\"a\",le=\"0\"} 1
acme_lat_ms_bucket{svc=\"a\",le=\"1\"} 2
acme_lat_ms_bucket{svc=\"a\",le=\"3\"} 3
acme_lat_ms_bucket{svc=\"a\",le=\"127\"} 4
acme_lat_ms_bucket{svc=\"a\",le=\"+Inf\"} 4
acme_lat_ms_count{svc=\"a\"} 4
acme_lat_ms_sum{svc=\"a\"} 104
acme_lat_ms_max{svc=\"a\"} 100
# TYPE acme_queue_depth gauge
acme_queue_depth 7
# TYPE acme_requests_total counter
acme_requests_total{svc=\"a\"} 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exporter_reuses_its_buffer() {
        let reg = MetricsRegistry::new();
        for i in 0..64 {
            let unit = format!("u{i}");
            reg.counter("c_total", &[("unit", unit.as_str())]).add(i);
        }
        let mut exporter = TextExporter::new();
        let first = exporter.render(&reg, 0).to_string();
        let grown = exporter.buf.capacity();
        for _ in 0..8 {
            assert_eq!(exporter.render(&reg, 0), first);
        }
        assert_eq!(exporter.buf.capacity(), grown, "steady-state renders must not regrow");
    }

    #[test]
    fn scrape_into_reuses_the_sample_buffer() {
        let reg = MetricsRegistry::new();
        for i in 0..32 {
            let unit = format!("u{i}");
            reg.counter("c_total", &[("unit", unit.as_str())]).inc();
        }
        let mut snap = crate::registry::RegistrySnapshot::default();
        reg.scrape_into(1, &mut snap);
        let cap = snap.samples.capacity();
        for t in 2..10 {
            reg.scrape_into(t, &mut snap);
            assert_eq!(snap.at, t);
            assert_eq!(snap.samples.len(), 32);
        }
        assert_eq!(snap.samples.capacity(), cap, "steady-state scrapes must not regrow");
    }
}
