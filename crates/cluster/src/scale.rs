//! The glue between the autoscaler and whatever it scales.

use crate::hpa::Hpa;
use crate::meter::{PodSample, ResourceMeter, UtilizationTracker};
use bistream_types::error::Result;
use bistream_types::time::Ts;

/// Anything whose replica count the autoscaler may change — in this
/// workspace, one side of the biclique engine (its joiner deployment).
pub trait ScaleTarget {
    /// Current number of replicas.
    fn replicas(&self) -> usize;

    /// Change the replica count to `n` (adding or retiring units). The
    /// engine guarantees no data migration; see `bistream-core::scale`.
    fn scale_to(&mut self, n: usize) -> Result<()>;

    /// Stable pod ids and their resource meters, for metric scraping.
    /// Ids must be unique over the deployment's lifetime (retired pods'
    /// ids are not reused) so the tracker can tell a new pod from an old.
    fn pod_meters(&self) -> Vec<(usize, std::sync::Arc<ResourceMeter>)>;
}

/// One row of the autoscaling timeline (experiment output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// When.
    pub at: Ts,
    /// Mean metric observed (fraction).
    pub observed: f64,
    /// Replicas before the decision.
    pub before: usize,
    /// Replicas after the decision.
    pub after: usize,
}

/// A deployment wrapped with its autoscaler and metrics pipeline.
///
/// Drive it by calling [`Autoscaled::tick`] from the simulation loop; it
/// scrapes, evaluates the HPA when due, applies scaling decisions to the
/// target, and records the timeline.
pub struct Autoscaled<T: ScaleTarget> {
    target: T,
    hpa: Hpa,
    tracker: UtilizationTracker,
    timeline: Vec<ScaleEvent>,
    last_samples: Vec<PodSample>,
}

impl<T: ScaleTarget> Autoscaled<T> {
    /// Wrap `target` under `hpa`.
    pub fn new(target: T, hpa: Hpa) -> Autoscaled<T> {
        Autoscaled {
            target,
            hpa,
            tracker: UtilizationTracker::new(),
            timeline: Vec::new(),
            last_samples: Vec::new(),
        }
    }

    /// Access the scaled target.
    pub fn target(&self) -> &T {
        &self.target
    }

    /// Mutable access (the driver still feeds tuples through the target).
    pub fn target_mut(&mut self) -> &mut T {
        &mut self.target
    }

    /// The autoscaling timeline so far.
    pub fn timeline(&self) -> &[ScaleEvent] {
        &self.timeline
    }

    /// Most recent per-pod samples (for experiment time series).
    pub fn last_samples(&self) -> &[PodSample] {
        &self.last_samples
    }

    /// Run the metrics + control loop if due at `now`. Returns the scale
    /// event if the replica count changed.
    pub fn tick(&mut self, now: Ts) -> Result<Option<ScaleEvent>> {
        if !self.hpa.due(now) {
            return Ok(None);
        }
        let meters = self.target.pod_meters();
        let borrowed: Vec<(usize, &ResourceMeter)> =
            meters.iter().map(|(id, m)| (*id, m.as_ref())).collect();
        let samples = self.tracker.scrape(now, &borrowed);
        self.last_samples = samples.clone();
        let current = self.target.replicas();
        let desired = self.hpa.evaluate(now, current, &samples);
        let observed = self.hpa.decisions().last().map(|d| d.observed).unwrap_or(0.0);
        if desired != current {
            self.target.scale_to(desired)?;
            let ev = ScaleEvent { at: now, observed, before: current, after: desired };
            self.timeline.push(ev);
            return Ok(Some(ev));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpa::{HpaConfig, MetricTarget};
    use std::sync::Arc;

    /// A fake deployment whose pods burn CPU at a configurable rate.
    struct FakeDeployment {
        pods: Vec<(usize, Arc<ResourceMeter>)>,
        next_id: usize,
    }

    impl FakeDeployment {
        fn new(n: usize) -> FakeDeployment {
            let mut d = FakeDeployment { pods: Vec::new(), next_id: 0 };
            d.scale_to(n).unwrap();
            d
        }

        fn burn(&self, us_per_pod: f64) {
            for (_, m) in &self.pods {
                m.charge_cpu_us(us_per_pod);
            }
        }
    }

    impl ScaleTarget for FakeDeployment {
        fn replicas(&self) -> usize {
            self.pods.len()
        }
        fn scale_to(&mut self, n: usize) -> Result<()> {
            while self.pods.len() < n {
                self.pods.push((self.next_id, ResourceMeter::shared()));
                self.next_id += 1;
            }
            self.pods.truncate(n);
            Ok(())
        }
        fn pod_meters(&self) -> Vec<(usize, Arc<ResourceMeter>)> {
            self.pods.clone()
        }
    }

    fn hpa() -> Hpa {
        Hpa::new(HpaConfig {
            min_replicas: 1,
            max_replicas: 3,
            target: MetricTarget::CpuUtilization(0.8),
            period_ms: 30_000,
            tolerance: 0.1,
            scale_down_stabilization_ms: 120_000,
        })
    }

    #[test]
    fn overload_triggers_scale_out_then_calm_scales_in() {
        let mut auto = Autoscaled::new(FakeDeployment::new(1), hpa());
        // Baseline scrape.
        assert!(auto.tick(0).unwrap().is_none());
        // Pod burns 145 % for 30 s.
        auto.target().burn(1.45 * 30_000_000.0 / 1_000.0 * 1_000.0);
        let ev = auto.tick(30_000).unwrap().expect("scale out");
        assert_eq!((ev.before, ev.after), (1, 2));
        assert_eq!(auto.target().replicas(), 2);

        // Quiet pods: eventually scale back down after stabilization.
        let mut t = 60_000;
        let mut scaled_down = None;
        while t <= 400_000 {
            if let Some(ev) = auto.tick(t).unwrap() {
                if ev.after < ev.before {
                    scaled_down = Some(ev);
                    break;
                }
            }
            t += 30_000;
        }
        let ev = scaled_down.expect("scale in lands");
        assert!(ev.at >= 120_000 + 30_000);
        assert_eq!(auto.target().replicas(), ev.after);
        assert_eq!(auto.timeline().len(), 2);
    }

    #[test]
    fn tick_respects_period() {
        let mut auto = Autoscaled::new(FakeDeployment::new(1), hpa());
        auto.tick(0).unwrap();
        auto.target().burn(1e9);
        assert!(auto.tick(10_000).unwrap().is_none(), "not due yet");
        assert!(auto.tick(30_000).unwrap().is_some());
    }
}
