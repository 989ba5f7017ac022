//! The CPU cost model: how many microseconds of virtual CPU each engine
//! operation charges to its pod's meter.
//!
//! The simulator cannot measure real CPU (it processes a 60-minute virtual
//! experiment in seconds), so joiners charge their meter per operation
//! using these constants. The defaults were calibrated against the live
//! threaded runtime on the development machine (release build,
//! equi-join): they reproduce the property the experiments rely on —
//! utilization proportional to tuple rate × per-tuple work — and their
//! absolute scale sets how many tuples/second saturate one pod, which E1
//! tunes to match the thesis's "300 t/s ≈ 145 % of one joiner" operating
//! point.

/// Per-operation CPU charges in microseconds of virtual CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Deserialising + dispatching one incoming message at a unit.
    pub ingest_us: f64,
    /// Inserting one tuple into the chained index (store branch).
    pub insert_us: f64,
    /// Examining one key-matched candidate during a probe.
    pub probe_candidate_us: f64,
    /// Fixed cost of initiating a probe (plan construction, chain walk).
    pub probe_base_us: f64,
    /// Emitting one join result.
    pub emit_us: f64,
    /// Expiring one archived sub-index (O(1) dereference).
    pub expire_subindex_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ingest_us: 2.0,
            insert_us: 3.0,
            probe_candidate_us: 0.8,
            probe_base_us: 2.0,
            emit_us: 1.5,
            expire_subindex_us: 5.0,
        }
    }
}

impl CostModel {
    /// The model used by E1/E2 to land on the thesis's operating point: a
    /// single joiner at 300 input t/s per relation (10-minute window,
    /// uniform keys) shows ≈ 145 % CPU, so the autoscaler's first action
    /// is a scale-out — matching Fig. 20's opening transient.
    pub fn thesis_operating_point() -> CostModel {
        CostModel {
            // Heavier per-tuple costs than default: the thesis pods were
            // single-vCPU JVM containers doing JSON + AMQP framing.
            ingest_us: 700.0,
            insert_us: 1_200.0,
            probe_candidate_us: 250.0,
            probe_base_us: 500.0,
            emit_us: 400.0,
            expire_subindex_us: 150.0,
        }
    }

    /// CPU charge for a probe that examined `candidates` and emitted
    /// `matches` results.
    #[inline]
    pub fn probe_cost_us(&self, candidates: usize, matches: usize) -> f64 {
        self.probe_base_us
            + self.probe_candidate_us * candidates as f64
            + self.emit_us * matches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_cost_composition() {
        let m = CostModel::default();
        let c = m.probe_cost_us(10, 2);
        assert_eq!(c, 2.0 + 8.0 + 3.0);
    }

    #[test]
    fn thesis_point_saturates_one_pod_at_300tps() {
        // Rough arithmetic check of the calibration claim: per incoming
        // tuple a joiner pays ingest + insert (store) or ingest + probe
        // (join). At 300 t/s per relation a single joiner per side sees
        // 300 stores + 300 probes per second.
        let m = CostModel::thesis_operating_point();
        let per_second_us =
            300.0 * (m.ingest_us + m.insert_us) + 300.0 * (m.ingest_us + m.probe_cost_us(5, 1));
        let utilization = per_second_us / 1_000_000.0;
        assert!(
            utilization > 1.2 && utilization < 1.8,
            "one joiner at 300t/s should sit ≈145% busy, got {utilization}"
        );
    }
}
