//! The matrix grid: cells, tuple processing, memory accounting and
//! resize-with-migration.

use bistream_cluster::{CostModel, ResourceMeter};
use bistream_core::stats::{EngineSnapshot, EngineStats};
use bistream_index::{ChainedIndex, IndexKind};
use bistream_types::audit::Auditor;
use bistream_types::error::{Error, Result};
use bistream_types::metrics::Counter;
use bistream_types::predicate::{JoinPredicate, ProbePlan};
use bistream_types::registry::Observability;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::trace::{HopKind, Tracer};
use bistream_types::tuple::{JoinResult, Tuple};
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration of a join-matrix instance.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Matrix rows (R's partitioning axis).
    pub rows: usize,
    /// Matrix columns (S's partitioning axis).
    pub cols: usize,
    /// The join predicate.
    pub predicate: JoinPredicate,
    /// The window specification.
    pub window: WindowSpec,
    /// Archive period of the per-cell chained indexes, ms.
    pub archive_period_ms: Ts,
    /// Seed for row/column assignment.
    pub seed: u64,
}

impl MatrixConfig {
    /// A square `n × n` matrix for the given predicate and window.
    pub fn square(n: usize, predicate: JoinPredicate, window: WindowSpec) -> MatrixConfig {
        MatrixConfig { rows: n, cols: n, predicate, window, archive_period_ms: 1_000, seed: 0x3A7 }
    }

    /// Validate shape.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(Error::Config("matrix needs at least 1×1 cells".into()));
        }
        Ok(())
    }
}

/// One matrix cell: fragments of both relations plus a resource meter.
struct Cell {
    r_index: ChainedIndex,
    s_index: ChainedIndex,
    meter: Arc<ResourceMeter>,
    stored: u64,
}

impl Cell {
    fn new(config: &MatrixConfig) -> Cell {
        let kind = IndexKind::for_predicate(&config.predicate);
        Cell {
            r_index: ChainedIndex::new(kind, config.window, config.archive_period_ms),
            s_index: ChainedIndex::new(kind, config.window, config.archive_period_ms),
            meter: ResourceMeter::shared(),
            stored: 0,
        }
    }

    fn index_of(&mut self, side: Rel) -> &mut ChainedIndex {
        match side {
            Rel::R => &mut self.r_index,
            Rel::S => &mut self.s_index,
        }
    }

    fn bytes(&self) -> u64 {
        (self.r_index.stats().bytes + self.s_index.stats().bytes) as u64
    }

    /// Process one replicated tuple at this cell: store it in its own
    /// relation's fragment, expire the opposite fragment (Theorem 1),
    /// probe it, and emit matches.
    fn process<F: FnMut(JoinResult)>(
        &mut self,
        tuple: &Tuple,
        predicate: &JoinPredicate,
        cost: &CostModel,
        emit: &mut F,
    ) -> Result<()> {
        self.meter.charge_cpu_us(cost.ingest_us);
        let key = key_of(predicate, tuple)?;
        self.index_of(tuple.rel()).insert(key, tuple.clone());
        self.stored += 1;
        self.meter.charge_cpu_us(cost.insert_us);

        let plan = predicate.probe_plan(tuple)?;
        let verify = matches!(
            (&plan, predicate),
            (ProbePlan::FullScan, _) | (_, JoinPredicate::Band { .. })
        );
        let opp = self.index_of(tuple.rel().opposite());
        let sub_before = opp.stats().expired_sub_indexes;
        opp.expire(tuple.ts());
        let sub_dropped = opp.stats().expired_sub_indexes - sub_before;
        if sub_dropped > 0 {
            self.meter.charge_cpu_us(cost.expire_subindex_us * sub_dropped as f64);
        }
        let mut matched: Vec<Tuple> = Vec::new();
        let pstats = self
            .index_of(tuple.rel().opposite())
            .probe(&plan, tuple.ts(), |stored| matched.push(stored.clone()));
        let mut results = 0usize;
        for stored in matched {
            if verify && !predicate.matches(&stored, tuple)? {
                continue;
            }
            results += 1;
            emit(JoinResult::of(stored, tuple.clone()));
        }
        self.meter.charge_cpu_us(cost.probe_cost_us(pstats.candidates, results));
        self.meter.set_memory_bytes(self.bytes());
        Ok(())
    }
}

/// What a matrix resize had to move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Tuples copied into newly created cells.
    pub tuples_moved: u64,
    /// Bytes copied into newly created cells.
    pub bytes_moved: u64,
    /// Cells created.
    pub cells_added: usize,
    /// Cells destroyed.
    pub cells_removed: usize,
}

/// The synchronous join-matrix engine.
pub struct JoinMatrix {
    config: MatrixConfig,
    cost: CostModel,
    /// Row-major `rows × cols` cells.
    cells: Vec<Cell>,
    rows: usize,
    cols: usize,
    rng: StdRng,
    stats: Arc<EngineStats>,
    capture: Option<Vec<JoinResult>>,
    obs: Option<Observability>,
    /// Per-cell replication counters, row-major, parallel to `cells`
    /// (empty until [`JoinMatrix::attach_obs`]).
    cell_replicated: Vec<Arc<Counter>>,
    /// Per-tuple tracer (disabled until [`JoinMatrix::attach_obs`] hands
    /// over an enabled one). The matrix has no router tier, so it stamps
    /// its own ingest counter as the trace id.
    tracer: Tracer,
    /// Ingest counter doubling as the trace sequence number.
    seq: u64,
    now: Ts,
    /// Protocol-invariant auditor: Theorem 1 discard checks on every cell
    /// fragment plus the output oracle (the matrix has no router tier, so
    /// the sequencing and ordering rules do not apply here).
    auditor: Option<Auditor>,
}

impl JoinMatrix {
    /// Build a matrix with the default cost model.
    pub fn new(config: MatrixConfig) -> Result<JoinMatrix> {
        Self::with_cost(config, CostModel::default())
    }

    /// Build a matrix charging `cost` to cell meters.
    pub fn with_cost(config: MatrixConfig, cost: CostModel) -> Result<JoinMatrix> {
        config.validate()?;
        let cells = (0..config.rows * config.cols).map(|_| Cell::new(&config)).collect();
        let mut matrix = JoinMatrix {
            rows: config.rows,
            cols: config.cols,
            rng: StdRng::seed_from_u64(config.seed),
            cells,
            cost,
            stats: EngineStats::shared(),
            capture: None,
            obs: None,
            cell_replicated: Vec::new(),
            tracer: Tracer::disabled(),
            seq: 0,
            now: 0,
            auditor: Auditor::new_if_debug(),
            config,
        };
        matrix.audit_cells();
        Ok(matrix)
    }

    /// Attach a specific auditor (debug builds self-arm one in
    /// [`JoinMatrix::with_cost`]; use this to share or to audit a release
    /// build). Re-hooks every cell fragment.
    pub fn set_auditor(&mut self, auditor: Auditor) {
        self.auditor = Some(auditor);
        self.audit_cells();
    }

    /// The auditor observing this matrix, if any.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.auditor.as_ref()
    }

    /// Point every cell fragment's discard hook at the current auditor.
    fn audit_cells(&mut self) {
        let Some(a) = self.auditor.clone() else { return };
        for (idx, cell) in self.cells.iter_mut().enumerate() {
            let label = format!("cell{}x{}", idx / self.cols, idx % self.cols);
            cell.r_index.set_auditor(a.clone(), format!("{label}.R"));
            cell.s_index.set_auditor(a.clone(), format!("{label}.S"));
        }
    }

    /// Attach the unified observability layer: engine-wide series under
    /// `engine="matrix"`, one `bistream_matrix_cell_replicated_total`
    /// counter per grid cell (label `cell="<row>x<col>"` — the
    /// replication-cost breakdown the biclique comparison reads), and
    /// every cell meter under `pod="cell<row>x<col>"`. A resize
    /// re-registers the new shape and drops the old cells' series.
    pub fn attach_obs(&mut self, obs: &Observability) {
        self.stats.register_into(&obs.registry, &[("engine", "matrix")]);
        self.tracer = obs.tracer.clone();
        self.obs = Some(obs.clone());
        self.register_cells();
    }

    fn register_cells(&mut self) {
        self.cell_replicated.clear();
        let Some(obs) = &self.obs else { return };
        for row in 0..self.rows {
            for col in 0..self.cols {
                let label = format!("{row}x{col}");
                self.cell_replicated.push(obs.registry.counter(
                    bistream_types::metric_names::MATRIX_CELL_REPLICATED_TOTAL,
                    &[("cell", &label)],
                ));
                let pod = format!("cell{label}");
                self.cells[row * self.cols + col]
                    .meter
                    .register_into(&obs.registry, &[("pod", &pod)]);
            }
        }
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Engine-wide counters (same schema as the biclique engine's).
    pub fn stats(&self) -> EngineSnapshot {
        self.stats.snapshot()
    }

    /// Begin capturing emitted join results.
    pub fn capture_results(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Take captured results.
    pub fn take_captured(&mut self) -> Vec<JoinResult> {
        self.capture.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Total accounted bytes of live state across all cells — the
    /// replication cost the memory experiments compare against the
    /// biclique's.
    pub fn memory_bytes(&self) -> u64 {
        self.cells.iter().map(Cell::bytes).sum()
    }

    /// Per-cell stored-tuple counts (load-balance metrics).
    pub fn stored_per_cell(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.stored).collect()
    }

    /// Cell meters keyed by cell index (for utilization scraping).
    pub fn pod_meters(&self) -> Vec<(usize, Arc<ResourceMeter>)> {
        self.cells.iter().enumerate().map(|(i, c)| (i, Arc::clone(&c.meter))).collect()
    }

    #[inline]
    fn cell_index(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// Ingest one tuple at virtual time `now`: replicate it across its
    /// assigned row (R) or column (S); every receiving cell stores it,
    /// expires the opposite fragment and probes it for matches.
    pub fn ingest(&mut self, tuple: &Tuple, now: Ts) -> Result<()> {
        self.now = self.now.max(now);
        self.stats.ingested.inc();
        if let Some(a) = &self.auditor {
            a.set_now(self.now);
            if a.oracle_enabled() {
                if let JoinPredicate::Equi { r_attr, s_attr } = &self.config.predicate {
                    let is_r = tuple.rel() == Rel::R;
                    let attr = if is_r { *r_attr } else { *s_attr };
                    if let Some(key) = tuple.get(attr) {
                        a.observe_input(is_r, tuple.ts(), key.to_string(), tuple.to_string());
                    }
                }
            }
        }
        self.seq += 1;
        let seq = self.seq;
        let targets: Vec<usize> = match tuple.rel() {
            Rel::R => {
                let row = self.rng.gen_range(0..self.rows);
                (0..self.cols).map(|c| self.cell_index(row, c)).collect()
            }
            Rel::S => {
                let col = self.rng.gen_range(0..self.cols);
                (0..self.rows).map(|r| self.cell_index(r, col)).collect()
            }
        };
        self.stats.copies.add(targets.len() as u64);
        if !self.cell_replicated.is_empty() {
            for &idx in &targets {
                self.cell_replicated[idx].inc();
            }
        }
        let tracer = self.tracer.clone();
        if tracer.sampled(seq) {
            // One branch per receiving cell; no queue tier in the
            // synchronous matrix, so the journey is route → store/probe.
            tracer.begin(seq, targets.len() as u32);
            tracer.span(seq, HopKind::Route, "matrix", now, now);
        }
        let cost = self.cost;
        let stats = Arc::clone(&self.stats);
        let auditor = self.auditor.clone();
        let cols = self.cols;
        for idx in targets {
            let capture = &mut self.capture;
            let mut cell_results = 0usize;
            self.cells[idx].process(tuple, &self.config.predicate, &cost, &mut |jr| {
                stats.results.inc();
                stats.latency_ms.record(now.saturating_sub(jr.ts));
                cell_results += 1;
                if let Some(a) = auditor.as_ref().filter(|a| a.oracle_enabled()) {
                    a.observe_output(&jr.r.to_string(), &jr.s.to_string());
                }
                if let Some(buf) = capture {
                    buf.push(jr);
                }
            })?;
            if tracer.sampled(seq) {
                let unit = format!("{}x{}", idx / cols, idx % cols);
                tracer.span(seq, HopKind::Store, &unit, now, now);
                tracer.span(seq, HopKind::Probe, &unit, now, now);
                if cell_results > 0 {
                    tracer.span(seq, HopKind::Emit, &unit, now, now);
                }
                tracer.end_branch(seq);
            }
        }
        Ok(())
    }

    /// Resize the matrix to `rows × cols`, migrating relation fragments
    /// into the new shape.
    ///
    /// The migration model is the textbook one: the whole matrix state is
    /// repartitioned — every surviving tuple lands in its newly assigned
    /// row/column replica set. The report charges a move for every tuple
    /// copy that must be installed into a cell that did not previously
    /// hold it; with random assignment the practical lower bound is
    /// "every live tuple moves at least once", which is what makes matrix
    /// scaling expensive next to the biclique's zero.
    pub fn resize(&mut self, rows: usize, cols: usize) -> Result<MigrationReport> {
        if rows == 0 || cols == 0 {
            return Err(Error::Scaling("matrix cannot shrink to zero".into()));
        }
        let (old_rows, old_cols) = (self.rows, self.cols);
        let mut report = MigrationReport {
            cells_added: (rows * cols).saturating_sub(self.rows * self.cols),
            cells_removed: (self.rows * self.cols).saturating_sub(rows * cols),
            ..MigrationReport::default()
        };

        // Collect every distinct live tuple (one copy per row/column
        // assignment, i.e. deduplicate the replicas: R tuples appear once
        // per column — take column 0 of each row; S once per row).
        let mut live: Vec<Tuple> = Vec::new();
        for row in 0..self.rows {
            let idx = self.cell_index(row, 0);
            self.cells[idx]
                .r_index
                .probe(&ProbePlan::FullScan, self.probe_everything_ts(), |t| live.push(t.clone()));
        }
        for col in 0..self.cols {
            let idx = self.cell_index(0, col);
            self.cells[idx]
                .s_index
                .probe(&ProbePlan::FullScan, self.probe_everything_ts(), |t| live.push(t.clone()));
        }

        // Rebuild the grid and reinstall the live tuples.
        self.rows = rows;
        self.cols = cols;
        self.cells = (0..rows * cols).map(|_| Cell::new(&self.config)).collect();
        self.audit_cells();
        for tuple in live {
            let key = key_of(&self.config.predicate, &tuple)?;
            let targets: Vec<usize> = match tuple.rel() {
                Rel::R => {
                    let row = self.rng.gen_range(0..self.rows);
                    (0..self.cols).map(|c| self.cell_index(row, c)).collect()
                }
                Rel::S => {
                    let col = self.rng.gen_range(0..self.cols);
                    (0..self.rows).map(|r| self.cell_index(r, col)).collect()
                }
            };
            for idx in targets {
                let cell = &mut self.cells[idx];
                cell.index_of(tuple.rel()).insert(key.clone(), tuple.clone());
                cell.stored += 1;
                report.tuples_moved += 1;
                report.bytes_moved += tuple.size_bytes() as u64;
            }
        }
        for cell in &mut self.cells {
            let b = cell.bytes();
            cell.meter.set_memory_bytes(b);
        }
        // Swap the scrape over to the new shape: the destroyed cells'
        // series go away; recreated cells restart from fresh counters
        // (their state was rebuilt, so frozen totals would mislead).
        if let Some(obs) = self.obs.clone() {
            for row in 0..old_rows {
                for col in 0..old_cols {
                    let label = format!("{row}x{col}");
                    obs.registry.unregister_labeled("cell", &label);
                    obs.registry.unregister_labeled("pod", &format!("cell{label}"));
                }
            }
            self.register_cells();
        }
        Ok(report)
    }

    /// A probe timestamp that keeps every live tuple in scope for the
    /// full-scan used by resize (mid-window "now").
    fn probe_everything_ts(&self) -> Ts {
        self.now
    }
}

fn key_of(predicate: &JoinPredicate, tuple: &Tuple) -> Result<Value> {
    match predicate {
        JoinPredicate::Cross => Ok(Value::Null),
        _ => Ok(tuple.require(predicate.attr_of(tuple.rel()))?.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rel: Rel, ts: Ts, k: i64) -> Tuple {
        Tuple::new(rel, ts, vec![Value::Int(k)])
    }

    fn config(rows: usize, cols: usize) -> MatrixConfig {
        MatrixConfig {
            rows,
            cols,
            predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            window: WindowSpec::sliding(1_000),
            archive_period_ms: 100,
            seed: 5,
        }
    }

    #[test]
    fn each_pair_meets_in_exactly_one_cell() {
        let mut m = JoinMatrix::new(config(3, 3)).unwrap();
        m.capture_results();
        for i in 0..50i64 {
            let ts = i as Ts * 10;
            m.ingest(&t(Rel::R, ts, i), ts).unwrap();
            m.ingest(&t(Rel::S, ts + 1, i), ts + 1).unwrap();
        }
        let results = m.take_captured();
        assert_eq!(results.len(), 50, "exactly once, no protocol needed");
        assert_eq!(m.stats().results, 50);
    }

    #[test]
    fn results_match_brute_force_reference() {
        let mut m = JoinMatrix::new(config(2, 3)).unwrap();
        m.capture_results();
        let mut tuples = Vec::new();
        for i in 0..120i64 {
            let ts = i as Ts * 7;
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            let tup = t(rel, ts, i % 9);
            m.ingest(&tup, ts).unwrap();
            tuples.push(tup);
        }
        let mut got: Vec<_> = m.take_captured().iter().map(|r| r.identity()).collect();
        got.sort();
        let mut expect = Vec::new();
        for a in tuples.iter().filter(|x| x.rel() == Rel::R) {
            for b in tuples.iter().filter(|x| x.rel() == Rel::S) {
                if a.get(0) == b.get(0) && a.ts().abs_diff(b.ts()) <= 1_000 {
                    expect.push(JoinResult::of(a.clone(), b.clone()).identity());
                }
            }
        }
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn audited_run_with_oracle_is_clean() {
        let mut m = JoinMatrix::new(config(2, 2)).unwrap();
        let auditor = Auditor::new();
        m.set_auditor(auditor.clone());
        auditor.enable_oracle(Some(1_000));
        for i in 0..60i64 {
            let ts = i as Ts * 9;
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            m.ingest(&t(rel, ts, i % 5), ts).unwrap();
        }
        // Expiry happened along the way (540ms of stream, 1s window kept
        // everything live; stretch it to force Theorem 1 discards too).
        for i in 0..10i64 {
            let ts = 5_000 + i as Ts;
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            m.ingest(&t(rel, ts, i % 5), ts).unwrap();
        }
        auditor.assert_clean();
    }

    #[test]
    fn replication_factor_shows_in_memory_and_copies() {
        let mut m = JoinMatrix::new(config(4, 4)).unwrap();
        for i in 0..100i64 {
            m.ingest(&t(Rel::R, i as Ts, i), i as Ts).unwrap();
        }
        // R replicated across 4 columns → 4 copies per tuple.
        assert_eq!(m.stats().copies_per_tuple(), 4.0);
        let stored: u64 = m.stored_per_cell().iter().sum();
        assert_eq!(stored, 400);
    }

    #[test]
    fn window_expiry_bounds_memory() {
        let mut m = JoinMatrix::new(config(2, 2)).unwrap();
        for i in 0..200i64 {
            let ts = i as Ts * 100;
            m.ingest(&t(Rel::R, ts, i), ts).unwrap();
            m.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        // Window is 1s = 10 ticks of 100ms; live state per relation is
        // bounded ≈ window/interval + archive slack, far below 200.
        let live_r: usize = (0..2).map(|row| m.cells[m.cell_index(row, 0)].r_index.len()).sum();
        assert!(live_r < 60, "expiry keeps fragments bounded, live {live_r}");
    }

    #[test]
    fn resize_migrates_live_state_and_keeps_joining() {
        let mut m = JoinMatrix::new(config(2, 2)).unwrap();
        m.capture_results();
        for i in 0..40i64 {
            m.ingest(&t(Rel::R, i as Ts, i), i as Ts).unwrap();
        }
        let report = m.resize(3, 3).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert!(report.tuples_moved >= 40, "every live tuple reinstalled");
        assert!(report.bytes_moved > 0);
        assert_eq!(report.cells_added, 5);
        // Joins still complete after the resize.
        for i in 0..40i64 {
            let ts = 50 + i as Ts;
            m.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        assert_eq!(m.take_captured().len(), 40);
    }

    #[test]
    fn band_join_on_matrix() {
        let mut cfg = config(2, 2);
        cfg.predicate = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.0 };
        let mut m = JoinMatrix::new(cfg).unwrap();
        m.capture_results();
        m.ingest(&t(Rel::R, 0, 10), 0).unwrap();
        m.ingest(&t(Rel::S, 1, 11), 1).unwrap();
        m.ingest(&t(Rel::S, 2, 12), 2).unwrap();
        let results = m.take_captured();
        assert_eq!(results.len(), 1, "only |10-11|<=1 matches");
    }

    #[test]
    fn meters_and_memory_accounting() {
        let mut m = JoinMatrix::new(config(2, 2)).unwrap();
        m.ingest(&t(Rel::R, 0, 1), 0).unwrap();
        assert!(m.memory_bytes() > 0);
        assert_eq!(m.pod_meters().len(), 4);
        let busy: u64 = m.pod_meters().iter().map(|(_, meter)| meter.cpu_busy_us()).sum();
        assert!(busy > 0);
    }

    #[test]
    fn attached_registry_tracks_per_cell_replication_across_resize() {
        let mut m = JoinMatrix::new(config(2, 2)).unwrap();
        let obs = Observability::new();
        m.attach_obs(&obs);
        for i in 0..10i64 {
            m.ingest(&t(Rel::R, i as Ts, i), i as Ts).unwrap();
        }
        let snap = obs.registry.scrape(10);
        // Each R tuple is replicated across its row's 2 cells → the
        // per-cell counters sum to the engine-wide copy count.
        let per_cell: u64 = ["0x0", "0x1", "1x0", "1x1"]
            .iter()
            .map(|c| {
                snap.counter(
                    bistream_types::metric_names::MATRIX_CELL_REPLICATED_TOTAL,
                    &[("cell", c)],
                )
                .unwrap()
            })
            .sum();
        assert_eq!(per_cell, 20);
        assert_eq!(
            snap.counter(
                bistream_types::metric_names::TUPLES_INGESTED_TOTAL,
                &[("engine", "matrix")]
            ),
            Some(10)
        );
        assert!(snap
            .get(bistream_types::metric_names::POD_CPU_BUSY_US_TOTAL, &[("pod", "cell0x0")])
            .is_some());

        m.resize(1, 3).unwrap();
        let snap = obs.registry.scrape(11);
        assert!(
            snap.get(
                bistream_types::metric_names::MATRIX_CELL_REPLICATED_TOTAL,
                &[("cell", "1x1")]
            )
            .is_none(),
            "destroyed cell's series dropped"
        );
        assert_eq!(
            snap.counter(
                bistream_types::metric_names::MATRIX_CELL_REPLICATED_TOTAL,
                &[("cell", "0x2")]
            ),
            Some(0),
            "new shape registered from zero"
        );
        m.ingest(&t(Rel::S, 20, 1), 20).unwrap();
        let snap = obs.registry.scrape(21);
        let post: u64 = ["0x0", "0x1", "0x2"]
            .iter()
            .map(|c| {
                snap.counter(
                    bistream_types::metric_names::MATRIX_CELL_REPLICATED_TOTAL,
                    &[("cell", c)],
                )
                .unwrap()
            })
            .sum();
        assert_eq!(post, 1, "S replicates across the single row's one column pick");
    }

    #[test]
    fn tracing_covers_every_cell_branch() {
        let mut m = JoinMatrix::new(config(2, 3)).unwrap();
        let obs = Observability::with_tracing(1);
        m.attach_obs(&obs);
        m.ingest(&t(Rel::R, 0, 7), 0).unwrap();
        m.ingest(&t(Rel::S, 1, 7), 1).unwrap();
        obs.tracer.flush_pending();
        let traces = obs.tracer.drain();
        assert_eq!(traces.len(), 2, "both ingests sampled at 1-in-1");
        for tr in &traces {
            assert!(tr.complete, "every cell branch closed synchronously");
            assert!(tr.has_hop(HopKind::Route));
            // R replicates across 3 columns, S across 2 rows.
            let stores = tr.spans.iter().filter(|s| s.kind == HopKind::Store).count();
            assert!(stores == 2 || stores == 3, "one store per receiving cell");
        }
        let emitted = traces.iter().filter(|tr| tr.has_hop(HopKind::Emit)).count();
        assert_eq!(emitted, 1, "only the probing S tuple emits the match");
        let snap = obs.registry.scrape(2);
        assert_eq!(snap.counter(bistream_types::metric_names::TRACE_COMPLETED_TOTAL, &[]), Some(2));
        assert!(snap
            .get(bistream_types::metric_names::TRACE_HOP_SERVICE_MS, &[("hop", "store")])
            .is_some());
    }

    #[test]
    fn zero_shape_rejected() {
        assert!(JoinMatrix::new(config(0, 2)).is_err());
        let mut m = JoinMatrix::new(config(2, 2)).unwrap();
        assert!(m.resize(0, 2).is_err());
    }
}
