//! The Horizontal Pod Autoscaler control loop, reproduced from the
//! Kubernetes algorithm the thesis's experiments used
//! (`autoscaling/v2alpha1` semantics):
//!
//! 1. every `period`, scrape the per-pod metric and take the mean;
//! 2. `desired = ceil(current_replicas × mean / target)`;
//! 3. ignore the change if `|mean/target − 1| ≤ tolerance` (dead-band);
//! 4. clamp to `[min, max]`;
//! 5. scale up immediately; scale *down* only to the **maximum** desired
//!    value observed over the stabilization window (prevents flapping on
//!    transient dips).

use crate::meter::PodSample;
use bistream_types::time::{Ts, MINUTE};
use std::collections::VecDeque;

/// What the autoscaler targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricTarget {
    /// Mean CPU utilization across pods, as a fraction (0.8 = 80 %).
    CpuUtilization(f64),
    /// Mean live memory across pods, as a fraction of `limit_bytes`
    /// (`0.85` with a 612 MiB limit reproduces the thesis's 85 % ≈ 520 MB
    /// trigger).
    MemoryUtilization {
        /// Target fraction of the limit.
        fraction: f64,
        /// Per-pod memory limit in bytes.
        limit_bytes: u64,
    },
}

/// Autoscaler configuration (one per deployment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpaConfig {
    /// Minimum replicas.
    pub min_replicas: usize,
    /// Maximum replicas.
    pub max_replicas: usize,
    /// The metric and its target value.
    pub target: MetricTarget,
    /// Control loop period in ms (Kubernetes default: 30 s).
    pub period_ms: Ts,
    /// Dead-band around the target ratio (Kubernetes default: 0.1).
    pub tolerance: f64,
    /// Scale-down stabilization window in ms (Kubernetes default: 5 min).
    pub scale_down_stabilization_ms: Ts,
}

impl HpaConfig {
    /// The configuration of experiment E1 (thesis Fig. 20): CPU target
    /// 80 %, 1–3 joiners, 30 s loop.
    pub fn thesis_cpu() -> HpaConfig {
        HpaConfig {
            min_replicas: 1,
            max_replicas: 3,
            target: MetricTarget::CpuUtilization(0.80),
            period_ms: 30_000,
            tolerance: 0.1,
            scale_down_stabilization_ms: 5 * MINUTE,
        }
    }
}

/// One autoscaling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpaDecision {
    /// Time of the decision.
    pub at: Ts,
    /// Mean metric value observed (utilization fraction).
    pub observed: f64,
    /// Replicas before.
    pub current: usize,
    /// Replicas decided.
    pub desired: usize,
}

/// The autoscaler controller state.
#[derive(Debug)]
pub struct Hpa {
    config: HpaConfig,
    last_run: Option<Ts>,
    /// `(ts, desired)` recommendations within the stabilization window.
    recommendations: VecDeque<(Ts, usize)>,
    decisions: Vec<HpaDecision>,
}

impl Hpa {
    /// A controller with the given configuration.
    pub fn new(config: HpaConfig) -> Hpa {
        assert!(config.min_replicas >= 1, "min_replicas must be >= 1");
        assert!(config.max_replicas >= config.min_replicas);
        Hpa { config, last_run: None, recommendations: VecDeque::new(), decisions: Vec::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &HpaConfig {
        &self.config
    }

    /// All decisions taken so far (for experiment reporting).
    pub fn decisions(&self) -> &[HpaDecision] {
        &self.decisions
    }

    /// Is a control-loop run due at `now`?
    pub fn due(&self, now: Ts) -> bool {
        match self.last_run {
            None => true,
            Some(t) => now.saturating_sub(t) >= self.config.period_ms,
        }
    }

    /// Run one control-loop iteration. Returns the replica count the
    /// deployment should have (which may equal `current`).
    ///
    /// `samples` are the current pods' metric samples; with no pods (or no
    /// samples) the controller holds.
    pub fn evaluate(&mut self, now: Ts, current: usize, samples: &[PodSample]) -> usize {
        self.last_run = Some(now);
        if current == 0 || samples.is_empty() {
            return current.max(self.config.min_replicas);
        }

        let mean = match self.config.target {
            MetricTarget::CpuUtilization(_) => {
                samples.iter().map(|s| s.cpu_utilization).sum::<f64>() / samples.len() as f64
            }
            MetricTarget::MemoryUtilization { limit_bytes, .. } => {
                let mean_bytes = samples.iter().map(|s| s.memory_bytes as f64).sum::<f64>()
                    / samples.len() as f64;
                mean_bytes / limit_bytes as f64
            }
        };
        let target = match self.config.target {
            MetricTarget::CpuUtilization(t) => t,
            MetricTarget::MemoryUtilization { fraction, .. } => fraction,
        };

        let ratio = mean / target;
        let mut desired = if (ratio - 1.0).abs() <= self.config.tolerance {
            current
        } else {
            (current as f64 * ratio).ceil() as usize
        };
        desired = desired.clamp(self.config.min_replicas, self.config.max_replicas);

        // Stabilization: remember this recommendation, and for downscales
        // apply the max recommendation in the window.
        self.recommendations.push_back((now, desired));
        let horizon = now.saturating_sub(self.config.scale_down_stabilization_ms);
        while matches!(self.recommendations.front(), Some(&(t, _)) if t < horizon) {
            self.recommendations.pop_front();
        }
        let stabilized = if desired < current {
            self.recommendations.iter().map(|&(_, d)| d).max().unwrap_or(desired).min(current)
        // stabilization never causes an up-scale
        } else {
            desired
        };

        self.decisions.push(HpaDecision { at: now, observed: mean, current, desired: stabilized });
        stabilized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_samples(utils: &[f64]) -> Vec<PodSample> {
        utils.iter().map(|&u| PodSample { cpu_utilization: u, memory_bytes: 0 }).collect()
    }

    fn cfg() -> HpaConfig {
        HpaConfig {
            min_replicas: 1,
            max_replicas: 5,
            target: MetricTarget::CpuUtilization(0.8),
            period_ms: 30_000,
            tolerance: 0.1,
            scale_down_stabilization_ms: 300_000,
        }
    }

    #[test]
    fn scales_up_on_high_utilization() {
        let mut hpa = Hpa::new(cfg());
        // 145% on one pod: desired = ceil(1 × 1.45/0.8) = 2.
        assert_eq!(hpa.evaluate(0, 1, &cpu_samples(&[1.45])), 2);
    }

    #[test]
    fn dead_band_holds_steady() {
        let mut hpa = Hpa::new(cfg());
        // 0.85/0.8 = 1.0625 ≤ 1.1 → hold.
        assert_eq!(hpa.evaluate(0, 2, &cpu_samples(&[0.9, 0.8])), 2);
    }

    #[test]
    fn clamps_to_bounds() {
        let mut hpa = Hpa::new(cfg());
        assert_eq!(hpa.evaluate(0, 5, &cpu_samples(&[10.0; 5])), 5, "max");
        let mut hpa = Hpa::new(cfg());
        // Very low load on 1 pod cannot go below min=1 (also needs the
        // stabilization window to pass, but the clamp already binds).
        assert_eq!(hpa.evaluate(0, 1, &cpu_samples(&[0.0])), 1, "min");
    }

    #[test]
    fn scale_down_waits_for_stabilization() {
        let mut hpa = Hpa::new(cfg());
        // t=0: high load pushes recommendation 3.
        assert_eq!(hpa.evaluate(0, 3, &cpu_samples(&[0.8, 0.8, 0.8])), 3);
        // t=30s: load collapses; desired=1 but window still holds 3.
        assert_eq!(hpa.evaluate(30_000, 3, &cpu_samples(&[0.1, 0.1, 0.1])), 3);
        // Low readings keep coming; once the 5-min window drains of the
        // high recommendation, the downscale lands.
        let current = 3;
        let mut t = 60_000;
        let mut landed_at = None;
        while t <= 600_000 {
            let d = hpa.evaluate(t, current, &cpu_samples(&vec![0.1; current]));
            if d < current {
                landed_at = Some(t);
                break;
            }
            t += 30_000;
        }
        let landed = landed_at.expect("downscale eventually lands");
        assert!(landed >= 300_000, "not before the stabilization window: {landed}");
    }

    #[test]
    fn scale_up_is_immediate_even_inside_window() {
        let mut hpa = Hpa::new(cfg());
        assert_eq!(hpa.evaluate(0, 1, &cpu_samples(&[0.1])), 1);
        assert_eq!(hpa.evaluate(30_000, 1, &cpu_samples(&[2.0])), 3, "ceil(1×2.5)=3");
    }

    #[test]
    fn memory_target_uses_fraction_of_limit() {
        let cfg = HpaConfig {
            target: MetricTarget::MemoryUtilization { fraction: 0.85, limit_bytes: 1_000 },
            ..cfg()
        };
        let mut hpa = Hpa::new(cfg);
        let hot = vec![PodSample { cpu_utilization: 0.0, memory_bytes: 950 }];
        // ratio = 0.95/0.85 ≈ 1.12 > 1.1 → scale to ceil(1×1.12)=2.
        assert_eq!(hpa.evaluate(0, 1, &hot), 2);
        let cool = vec![PodSample { cpu_utilization: 0.0, memory_bytes: 800 }];
        // 0.8/0.85 ≈ 0.94 → inside dead-band → hold.
        assert_eq!(hpa.evaluate(30_000, 1, &cool), 1);
    }

    #[test]
    fn due_respects_period() {
        let mut hpa = Hpa::new(cfg());
        assert!(hpa.due(0));
        hpa.evaluate(0, 1, &cpu_samples(&[0.8]));
        assert!(!hpa.due(10_000));
        assert!(hpa.due(30_000));
    }

    #[test]
    fn decisions_are_recorded() {
        let mut hpa = Hpa::new(cfg());
        hpa.evaluate(0, 1, &cpu_samples(&[1.6]));
        let d = &hpa.decisions()[0];
        assert_eq!(d.current, 1);
        assert_eq!(d.desired, 2);
        assert!((d.observed - 1.6).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_hold_at_min() {
        let mut hpa = Hpa::new(cfg());
        assert_eq!(hpa.evaluate(0, 0, &[]), 1);
        assert_eq!(hpa.evaluate(0, 3, &[]), 3);
    }
}
