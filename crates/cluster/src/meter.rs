//! Per-pod resource meters and the utilization pipeline.

use bistream_types::metrics::{Counter, Gauge};
use bistream_types::registry::MetricsRegistry;
use bistream_types::time::Ts;
use std::sync::Arc;

/// The resource account of one pod. Engine units charge CPU-µs and set
/// their live memory; the autoscaler's metrics pipeline reads both.
#[derive(Debug, Default)]
pub struct ResourceMeter {
    /// Cumulative busy CPU time in microseconds.
    cpu_busy_us: Arc<Counter>,
    /// Live memory in bytes.
    memory_bytes: Arc<Gauge>,
}

impl ResourceMeter {
    /// A fresh meter, shared.
    pub fn shared() -> Arc<ResourceMeter> {
        Arc::new(ResourceMeter::default())
    }

    /// Expose this meter's primitives in `registry` as
    /// `bistream_pod_cpu_busy_us_total{labels}` and
    /// `bistream_pod_memory_bytes{labels}` — the pod-label registration the
    /// unified scrape needs. Idempotent for a given label set.
    pub fn register_into(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        registry.register_counter(
            bistream_types::metric_names::POD_CPU_BUSY_US_TOTAL,
            labels,
            &self.cpu_busy_us,
        );
        registry.register_gauge(
            bistream_types::metric_names::POD_MEMORY_BYTES,
            labels,
            &self.memory_bytes,
        );
    }

    /// Charge `us` microseconds of CPU (fractions accumulate via rounding
    /// at the call site granularity; costs below 1µs should be batched by
    /// the caller).
    #[inline]
    pub fn charge_cpu_us(&self, us: f64) {
        self.cpu_busy_us.add(us.round() as u64);
    }

    /// Cumulative busy-µs so far.
    pub fn cpu_busy_us(&self) -> u64 {
        self.cpu_busy_us.get()
    }

    /// Overwrite the live-memory reading.
    pub fn set_memory_bytes(&self, bytes: u64) {
        self.memory_bytes.set(bytes);
    }

    /// Current live-memory reading.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes.get()
    }
}

/// One pod's utilization sample for a control period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodSample {
    /// Busy fraction of one vCPU over the period (1.0 = 100 %; may exceed
    /// 1.0 when a pod is oversubscribed — the sim has no hard CPU cap,
    /// matching how the thesis reports ~145 % initial utilization).
    pub cpu_utilization: f64,
    /// Live memory at sampling time.
    pub memory_bytes: u64,
}

/// Converts cumulative busy counters into per-period utilizations — the
/// Heapster/metrics-server role.
///
/// The tracker remembers each pod's counter at the previous scrape; pods
/// are identified positionally by the caller (the deployment), and newly
/// added pods start from their current counter (first sample 0 utilization
/// rather than a spurious spike).
#[derive(Debug, Default)]
pub struct UtilizationTracker {
    last_scrape: Option<Ts>,
    last_busy: Vec<(usize, u64)>, // (pod_id, busy_us at last scrape)
}

impl UtilizationTracker {
    /// A fresh tracker.
    pub fn new() -> UtilizationTracker {
        UtilizationTracker::default()
    }

    /// Scrape the given pods (stable ids + meters) at time `now`,
    /// producing one sample per pod. The first scrape (and a pod's first
    /// appearance) reports zero utilization.
    pub fn scrape(&mut self, now: Ts, pods: &[(usize, &ResourceMeter)]) -> Vec<PodSample> {
        let dt_us = self.last_scrape.map(|t| now.saturating_sub(t) * 1_000).unwrap_or(0);
        let mut samples = Vec::with_capacity(pods.len());
        let mut new_busy = Vec::with_capacity(pods.len());
        for &(id, meter) in pods {
            let busy_now = meter.cpu_busy_us();
            let prev = self.last_busy.iter().find(|(pid, _)| *pid == id).map(|(_, b)| *b);
            let cpu = match (prev, dt_us) {
                (Some(prev_busy), dt) if dt > 0 => {
                    busy_now.saturating_sub(prev_busy) as f64 / dt as f64
                }
                _ => 0.0,
            };
            samples.push(PodSample { cpu_utilization: cpu, memory_bytes: meter.memory_bytes() });
            new_busy.push((id, busy_now));
        }
        self.last_busy = new_busy;
        self.last_scrape = Some(now);
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_reads() {
        let m = ResourceMeter::default();
        m.charge_cpu_us(2.6);
        m.charge_cpu_us(2.6);
        assert_eq!(m.cpu_busy_us(), 6, "rounded per call");
        m.set_memory_bytes(1_024);
        assert_eq!(m.memory_bytes(), 1_024);
    }

    #[test]
    fn register_into_exposes_pod_series() {
        let m = ResourceMeter::shared();
        let reg = MetricsRegistry::new();
        m.register_into(&reg, &[("pod", "R0")]);
        m.charge_cpu_us(1_000.0);
        m.set_memory_bytes(64);
        let snap = reg.scrape(0);
        let labels: &[(&str, &str)] = &[("pod", "R0")];
        assert_eq!(
            snap.counter(bistream_types::metric_names::POD_CPU_BUSY_US_TOTAL, labels),
            Some(1_000)
        );
        assert_eq!(snap.gauge(bistream_types::metric_names::POD_MEMORY_BYTES, labels), Some(64));
    }

    #[test]
    fn first_scrape_is_zero_then_deltas() {
        let m = ResourceMeter::shared();
        let mut t = UtilizationTracker::new();
        m.charge_cpu_us(500_000.0); // 0.5s busy before first scrape
        let s0 = t.scrape(1_000, &[(0, &m)]);
        assert_eq!(s0[0].cpu_utilization, 0.0, "no baseline yet");
        // Over the next second the pod burns 0.8s of CPU → 80 %.
        m.charge_cpu_us(800_000.0);
        let s1 = t.scrape(2_000, &[(0, &m)]);
        assert!((s1[0].cpu_utilization - 0.8).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_exceeds_one() {
        let m = ResourceMeter::shared();
        let mut t = UtilizationTracker::new();
        t.scrape(0, &[(0, &m)]);
        m.charge_cpu_us(1_450_000.0); // 1.45 s busy in a 1 s period
        let s = t.scrape(1_000, &[(0, &m)]);
        assert!((s[0].cpu_utilization - 1.45).abs() < 1e-9);
    }

    #[test]
    fn new_pod_starts_cold() {
        let a = ResourceMeter::shared();
        let b = ResourceMeter::shared();
        let mut t = UtilizationTracker::new();
        t.scrape(0, &[(0, &a)]);
        a.charge_cpu_us(100_000.0);
        b.charge_cpu_us(900_000.0); // pre-existing busy on the new pod
        let s = t.scrape(1_000, &[(0, &a), (1, &b)]);
        assert!(s[0].cpu_utilization > 0.0);
        assert_eq!(s[1].cpu_utilization, 0.0, "no baseline for pod 1 yet");
        b.charge_cpu_us(500_000.0);
        let s = t.scrape(2_000, &[(0, &a), (1, &b)]);
        assert!((s[1].cpu_utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn removed_pod_forgotten() {
        let a = ResourceMeter::shared();
        let b = ResourceMeter::shared();
        let mut t = UtilizationTracker::new();
        t.scrape(0, &[(0, &a), (1, &b)]);
        let s = t.scrape(1_000, &[(0, &a)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memory_sampled_point_in_time() {
        let m = ResourceMeter::shared();
        let mut t = UtilizationTracker::new();
        m.set_memory_bytes(10);
        let s = t.scrape(0, &[(0, &m)]);
        assert_eq!(s[0].memory_bytes, 10);
        m.set_memory_bytes(99);
        let s = t.scrape(1, &[(0, &m)]);
        assert_eq!(s[0].memory_bytes, 99);
    }
}
