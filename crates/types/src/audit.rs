//! Runtime invariant auditor: the paper's correctness guarantees, checked
//! mechanically while a harness runs.
//!
//! The ordering protocol is honoured by convention across routers, broker
//! queues, reorder buffers and the chained index; this module turns each
//! convention into a hook that detects the moment it is broken:
//!
//! * **Sequence density** — routers draw from one shared counter, so the
//!   multiset of emitted sequence numbers must be exactly `1..=max`, each
//!   assigned once, strictly increasing per router.
//! * **Punctuation monotonicity** — a router's punctuations never regress
//!   and never undercut a sequence number it already emitted.
//! * **Pairwise FIFO (Definition 8)** — on every router→joiner channel,
//!   data sequence numbers arrive strictly increasing and never at or
//!   below the channel's last punctuation barrier.
//! * **Order-consistent release (Definition 7)** — every key a reorder
//!   buffer releases is ≥ all keys it previously released and ≤ the
//!   watermark in force, and the watermark itself never regresses.
//! * **Safe discarding (Theorem 1)** — the chained index never discards a
//!   non-empty sub-index whose `max_ts` is still inside the window of a
//!   possible future arrival.
//! * **Queue conservation** — a broker queue never delivers more messages
//!   than were published to it.
//! * **Output oracle** (opt-in, O(n²)) — the final join output is a
//!   permutation-free multiset match of a naive nested-loop join over the
//!   observed inputs.
//!
//! A [`Violation`] carries the offending event chain: the recent history
//! of the stream that misbehaved, plus — when an
//! [`EventJournal`](crate::journal::EventJournal) is attached — a snapshot
//! of the journal tail, and the violation itself is recorded into the
//! journal as [`EventKind::InvariantViolation`].
//!
//! The auditor is cheap (a mutex and a few maps) but not free; harnesses
//! wire it behind `cfg(debug_assertions)` or an explicit opt-in so release
//! benchmarks pay nothing.

use crate::journal::{EventJournal, EventKind};
use crate::punct::{Purpose, RouterId, SeqNo};
use crate::time::Ts;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Which invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Router sequence numbers: dense, unique, strictly increasing.
    SeqDensity,
    /// Router punctuations: monotone, never undercut emitted data.
    PunctMonotonic,
    /// Per-channel FIFO delivery (Definition 8).
    ChannelFifo,
    /// Reorder-buffer release order and watermark bound (Definition 7).
    ReleaseOrder,
    /// Sub-index discard safety (Theorem 1).
    TheoremOne,
    /// Broker queue conservation: deliveries never exceed publishes.
    QueueConservation,
    /// Output equals the naive nested-loop oracle.
    OutputOracle,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::SeqDensity => "seq-density",
            Rule::PunctMonotonic => "punct-monotonic",
            Rule::ChannelFifo => "channel-fifo",
            Rule::ReleaseOrder => "release-order",
            Rule::TheoremOne => "theorem-1",
            Rule::QueueConservation => "queue-conservation",
            Rule::OutputOracle => "output-oracle",
        };
        f.write_str(s)
    }
}

/// One detected invariant violation, with the event chain that led to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant that was broken.
    pub rule: Rule,
    /// Human-readable description of the broken check.
    pub message: String,
    /// Recent events of the offending stream (router, channel, buffer or
    /// queue), oldest first, ending with the violating event.
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.rule, self.message)?;
        for ev in &self.chain {
            writeln!(f, "    ↳ {ev}")?;
        }
        Ok(())
    }
}

/// Bounded per-stream history ring used to build violation chains.
#[derive(Debug, Default, Clone)]
struct Chain {
    ring: VecDeque<String>,
}

const CHAIN_CAPACITY: usize = 24;

impl Chain {
    fn push(&mut self, event: String) {
        if self.ring.len() == CHAIN_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
    }

    fn snapshot(&self) -> Vec<String> {
        self.ring.iter().cloned().collect()
    }
}

#[derive(Debug, Default)]
struct RouterState {
    last_seq: Option<SeqNo>,
    last_punct: Option<SeqNo>,
    chain: Chain,
}

#[derive(Debug, Default)]
struct ChannelState {
    /// Highest data seq seen per purpose (indexed by [`Purpose::as_byte`]).
    /// A batching router keeps one pending frame per `(dest, purpose)`, so
    /// a Store frame `[70, 72, …]` is lawfully followed by a Join frame
    /// `[71, 73, …]` on the same channel: order is per purpose.
    last_seq: [Option<SeqNo>; 2],
    last_punct: Option<SeqNo>,
    chain: Chain,
}

#[derive(Debug, Default)]
struct ReleaseState {
    last_key: Option<(SeqNo, RouterId)>,
    last_watermark: Option<SeqNo>,
    chain: Chain,
}

#[derive(Debug, Default)]
struct QueueState {
    enqueued: u64,
    dequeued: u64,
}

/// One observed input tuple for the oracle: `(ts, join-key rendering,
/// canonical identity rendering)`.
type OracleInput = (Ts, String, String);

#[derive(Debug)]
struct OracleState {
    /// Pairwise window, `None` for full-history.
    window: Option<Ts>,
    r_inputs: Vec<OracleInput>,
    s_inputs: Vec<OracleInput>,
    /// Each output as `"<r identity> ⋈ <s identity>"`.
    outputs: Vec<String>,
}

#[derive(Debug, Default)]
struct AuditorState {
    routers: BTreeMap<RouterId, RouterState>,
    seen_seqs: BTreeSet<SeqNo>,
    max_seq: SeqNo,
    channels: BTreeMap<(String, RouterId), ChannelState>,
    releases: BTreeMap<String, ReleaseState>,
    queues: BTreeMap<String, QueueState>,
    oracle: Option<OracleState>,
    violations: Vec<Violation>,
    /// Total violations detected, including ones dropped past the cap.
    total_violations: u64,
    journal: Option<EventJournal>,
    /// Latest harness time observed via [`Auditor::set_now`]; stamps
    /// journal records for violations.
    now: Ts,
}

/// Keep at most this many violations; the counter keeps counting past it.
const MAX_STORED_VIOLATIONS: usize = 64;

impl AuditorState {
    fn violate(&mut self, rule: Rule, message: String, mut chain: Vec<String>) {
        self.total_violations += 1;
        if let Some(journal) = &self.journal {
            // Attach the journal tail as extra context, then record the
            // violation itself so a drained journal shows it in sequence.
            for ev in journal.snapshot().iter().rev().take(8).rev() {
                chain.push(format!("journal: {}", ev.to_json()));
            }
            journal.record(
                self.now,
                EventKind::InvariantViolation { rule: rule.to_string(), detail: message.clone() },
            );
        }
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(Violation { rule, message, chain });
        }
    }
}

/// Shared, thread-safe invariant auditor. Cloning shares the state.
///
/// All hooks are safe to call from any thread; detection is immediate,
/// except the density and oracle checks which require [`Auditor::finish`]
/// once the stream is complete.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    inner: Arc<Mutex<AuditorState>>,
}

impl Auditor {
    /// A fresh auditor with every check armed and no oracle.
    pub fn new() -> Auditor {
        Auditor::default()
    }

    /// An auditor only in debug builds — the standard way for harnesses to
    /// self-arm without slowing down release benchmarks.
    pub fn new_if_debug() -> Option<Auditor> {
        if cfg!(debug_assertions) {
            Some(Auditor::new())
        } else {
            None
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AuditorState> {
        // A panicking hook cannot leave the maps inconsistent in a way
        // that matters more than the panic itself; recover the guard.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attach the harness's event journal: violations are recorded into it
    /// and carry a snapshot of its tail as context.
    pub fn attach_journal(&self, journal: EventJournal) {
        self.lock().journal = Some(journal);
    }

    /// Advance the auditor's notion of harness time (stamps journal
    /// records for violations). Never regresses.
    pub fn set_now(&self, now: Ts) {
        let mut st = self.lock();
        if now > st.now {
            st.now = now;
        }
    }

    // ------------------------------------------------------------ routers

    /// A router assigned sequence number `seq` to a freshly routed tuple.
    pub fn router_emit(&self, router: RouterId, seq: SeqNo) {
        let mut st = self.lock();
        let state = st.routers.entry(router).or_default();
        state.chain.push(format!("router {router} emit seq {seq}"));
        let chain = state.chain.snapshot();
        let last_seq = state.last_seq;
        let last_punct = state.last_punct;
        state.last_seq = Some(last_seq.map_or(seq, |l| l.max(seq)));
        if seq == 0 {
            st.violate(Rule::SeqDensity, format!("router {router} emitted seq 0"), chain);
            return;
        }
        if let Some(last) = last_seq {
            if seq <= last {
                st.violate(
                    Rule::SeqDensity,
                    format!("router {router} emitted seq {seq} after {last} (not increasing)"),
                    chain,
                );
                return;
            }
        }
        if let Some(p) = last_punct {
            if seq <= p {
                st.violate(
                    Rule::PunctMonotonic,
                    format!("router {router} emitted seq {seq} at or below its punctuation {p}"),
                    chain,
                );
                return;
            }
        }
        if !st.seen_seqs.insert(seq) {
            st.violate(Rule::SeqDensity, format!("seq {seq} assigned twice across routers"), chain);
            return;
        }
        st.max_seq = st.max_seq.max(seq);
    }

    /// A router emitted a punctuation promising no future data ≤ `seq`.
    pub fn router_punct(&self, router: RouterId, seq: SeqNo) {
        let mut st = self.lock();
        let state = st.routers.entry(router).or_default();
        state.chain.push(format!("router {router} punct seq {seq}"));
        let chain = state.chain.snapshot();
        let last_seq = state.last_seq;
        let last_punct = state.last_punct;
        state.last_punct = Some(last_punct.map_or(seq, |l| l.max(seq)));
        if let Some(p) = last_punct {
            if seq < p {
                st.violate(
                    Rule::PunctMonotonic,
                    format!("router {router} punctuation regressed {p} -> {seq}"),
                    chain,
                );
                return;
            }
        }
        if let Some(d) = last_seq {
            if seq < d {
                st.violate(
                    Rule::PunctMonotonic,
                    format!("router {router} punctuated {seq} below its emitted seq {d}"),
                    chain,
                );
            }
        }
    }

    // ----------------------------------------------------------- channels

    /// A joiner received a data message for `purpose` on its channel from
    /// `router`. Data seqs must increase per `(channel, purpose)`; no data
    /// of either purpose may follow a punctuation that covers it.
    pub fn channel_recv(&self, joiner: &str, router: RouterId, purpose: Purpose, seq: SeqNo) {
        let mut st = self.lock();
        let state = st.channels.entry((joiner.to_string(), router)).or_default();
        state.chain.push(format!("{joiner} <- router {router} {purpose:?} data seq {seq}"));
        let chain = state.chain.snapshot();
        let slot = &mut state.last_seq[purpose.as_byte() as usize];
        let last_seq = *slot;
        let last_punct = state.last_punct;
        *slot = Some(last_seq.map_or(seq, |l| l.max(seq)));
        if let Some(last) = last_seq {
            if seq <= last {
                st.violate(
                    Rule::ChannelFifo,
                    format!(
                        "channel router {router} -> {joiner}: {purpose:?} data seq {seq} after \
                         {last} (FIFO broken)"
                    ),
                    chain,
                );
                return;
            }
        }
        if let Some(p) = last_punct {
            if seq <= p {
                st.violate(
                    Rule::ChannelFifo,
                    format!(
                        "channel router {router} -> {joiner}: data seq {seq} arrived after \
                         punctuation {p}"
                    ),
                    chain,
                );
            }
        }
    }

    /// A joiner received a punctuation on its channel from `router`.
    pub fn channel_punct(&self, joiner: &str, router: RouterId, seq: SeqNo) {
        let mut st = self.lock();
        let state = st.channels.entry((joiner.to_string(), router)).or_default();
        state.chain.push(format!("{joiner} <- router {router} punct seq {seq}"));
        let chain = state.chain.snapshot();
        let last_seq = state.last_seq.iter().flatten().max().copied();
        let last_punct = state.last_punct;
        state.last_punct = Some(last_punct.map_or(seq, |l| l.max(seq)));
        if let Some(p) = last_punct {
            if seq < p {
                st.violate(
                    Rule::ChannelFifo,
                    format!(
                        "channel router {router} -> {joiner}: punctuation regressed {p} -> {seq}"
                    ),
                    chain,
                );
                return;
            }
        }
        if let Some(d) = last_seq {
            if seq < d {
                st.violate(
                    Rule::ChannelFifo,
                    format!(
                        "channel router {router} -> {joiner}: punctuation {seq} undercuts \
                         delivered data seq {d}"
                    ),
                    chain,
                );
            }
        }
    }

    /// Joiner `joiner` crashed and restarted as a fresh incarnation.
    ///
    /// Its channels and release history restart from scratch: routers will
    /// retransmit un-acknowledged frames (so old sequence numbers lawfully
    /// reappear on the wire) and the rebuilt reorder buffer re-releases
    /// from its restored frontier. Without this hook both would read as
    /// FIFO / release-order violations; with it the auditor treats the new
    /// incarnation's channels as brand new, exactly like a joiner added by
    /// a scaling operation. Router-side state (sequence density,
    /// punctuation monotonicity) and queue conservation deliberately
    /// survive the restart — crashes must not excuse router bugs.
    pub fn unit_restarted(&self, joiner: &str) {
        let mut st = self.lock();
        st.channels.retain(|(j, _), _| j != joiner);
        st.releases.remove(joiner);
    }

    // ------------------------------------------------------------ release

    /// A reorder buffer released `(seq, router)` under `watermark`.
    ///
    /// Besides order/watermark monotonicity, the release is cross-checked
    /// against the auditor's own channel state: releasing `(seq, router)`
    /// is only lawful once `router`'s punctuation on this joiner's channel
    /// has reached `seq` (Definition 7 — the watermark is a minimum over
    /// router frontiers, so each frontier individually bounds it). A buffer
    /// whose watermark computation is corrupt passes its own
    /// `seq <= watermark` test but fails this one. The cross-check is
    /// skipped for channels the harness never reported, so unit tests may
    /// drive `release` standalone.
    pub fn release(&self, joiner: &str, router: RouterId, seq: SeqNo, watermark: SeqNo) {
        let mut st = self.lock();
        let channel_punct = st.channels.get(&(joiner.to_string(), router)).map(|c| c.last_punct);
        let state = st.releases.entry(joiner.to_string()).or_default();
        state.chain.push(format!(
            "{joiner} released (seq {seq}, router {router}) @ watermark {watermark}"
        ));
        let chain = state.chain.snapshot();
        let last_key = state.last_key;
        let last_watermark = state.last_watermark;
        state.last_key = Some(last_key.map_or((seq, router), |l| l.max((seq, router))));
        state.last_watermark = Some(last_watermark.map_or(watermark, |l| l.max(watermark)));
        if let Some(w) = last_watermark {
            if watermark < w {
                st.violate(
                    Rule::ReleaseOrder,
                    format!("{joiner}: watermark regressed {w} -> {watermark}"),
                    chain,
                );
                return;
            }
        }
        if seq > watermark {
            st.violate(
                Rule::ReleaseOrder,
                format!("{joiner}: released seq {seq} above watermark {watermark}"),
                chain,
            );
            return;
        }
        if let Some(punct) = channel_punct {
            if punct.is_none() || punct.is_some_and(|p| seq > p) {
                st.violate(
                    Rule::ReleaseOrder,
                    format!(
                        "{joiner}: released (seq {seq}, router {router}) but that channel's \
                         punctuation frontier is {punct:?} — premature release (corrupt \
                         watermark?)"
                    ),
                    chain,
                );
                return;
            }
        }
        if let Some(last) = last_key {
            if (seq, router) < last {
                st.violate(
                    Rule::ReleaseOrder,
                    format!(
                        "{joiner}: released key (seq {seq}, router {router}) below previously \
                         released {last:?}"
                    ),
                    chain,
                );
            }
        }
    }

    // -------------------------------------------------------------- index

    /// The chained index is about to discard an archived sub-index link.
    ///
    /// `window` is the pairwise window size (`None` = full history, where
    /// discarding live tuples is never safe).
    pub fn index_discard(
        &self,
        owner: &str,
        min_ts: Ts,
        max_ts: Ts,
        tuples: u64,
        incoming_ts: Ts,
        window: Option<Ts>,
    ) {
        if tuples == 0 {
            return; // Dropping an empty link never loses matches.
        }
        let safe = match window {
            Some(ws) => incoming_ts.saturating_sub(max_ts) > ws,
            None => false,
        };
        let span_sane = min_ts <= max_ts;
        if safe && span_sane {
            return;
        }
        let mut st = self.lock();
        let chain = vec![format!(
            "{owner} discarding link [{min_ts}, {max_ts}] ({tuples} tuples) on incoming ts \
             {incoming_ts}, window {window:?}"
        )];
        if !span_sane {
            st.violate(
                Rule::TheoremOne,
                format!("{owner}: link span inverted (min {min_ts} > max {max_ts})"),
                chain,
            );
        } else {
            st.violate(
                Rule::TheoremOne,
                format!(
                    "{owner}: discarded live sub-index (max_ts {max_ts}, incoming {incoming_ts}, \
                     window {window:?}) — Theorem 1 violated"
                ),
                chain,
            );
        }
    }

    // ------------------------------------------------------------- queues

    /// A message was published to broker queue `queue`.
    pub fn queue_enqueue(&self, queue: &str) {
        let mut st = self.lock();
        st.queues.entry(queue.to_string()).or_default().enqueued += 1;
    }

    /// A message was delivered from broker queue `queue`.
    pub fn queue_dequeue(&self, queue: &str) {
        let mut st = self.lock();
        let state = st.queues.entry(queue.to_string()).or_default();
        state.dequeued += 1;
        let (enq, deq) = (state.enqueued, state.dequeued);
        if deq > enq {
            st.violate(
                Rule::QueueConservation,
                format!("queue {queue}: delivered {deq} messages but only {enq} were published"),
                vec![format!("queue {queue}: enqueued {enq}, dequeued {deq}")],
            );
        }
    }

    // ------------------------------------------------------------- oracle

    /// Arm the nested-loop output oracle (O(n²) — small inputs only).
    ///
    /// `window` is the pairwise equi-join window (`None` = full history).
    pub fn enable_oracle(&self, window: Option<Ts>) {
        self.lock().oracle = Some(OracleState {
            window,
            r_inputs: Vec::new(),
            s_inputs: Vec::new(),
            outputs: Vec::new(),
        });
    }

    /// `true` if [`Auditor::enable_oracle`] was called.
    pub fn oracle_enabled(&self) -> bool {
        self.lock().oracle.is_some()
    }

    /// Record one input tuple for the oracle: its side, timestamp, a
    /// canonical rendering of its join key, and a canonical rendering of
    /// its full identity (the same rendering outputs are reported with).
    pub fn observe_input(&self, is_r: bool, ts: Ts, key: String, identity: String) {
        let mut st = self.lock();
        if let Some(oracle) = st.oracle.as_mut() {
            if is_r {
                oracle.r_inputs.push((ts, key, identity));
            } else {
                oracle.s_inputs.push((ts, key, identity));
            }
        }
    }

    /// Record one emitted join result as the pair of input identities.
    pub fn observe_output(&self, r_identity: &str, s_identity: &str) {
        let mut st = self.lock();
        if let Some(oracle) = st.oracle.as_mut() {
            oracle.outputs.push(format!("{r_identity} ⋈ {s_identity}"));
        }
    }

    // ------------------------------------------------------------ results

    /// Run the end-of-stream checks (sequence density, output oracle) and
    /// drain every recorded violation.
    pub fn finish(&self) -> Vec<Violation> {
        let mut st = self.lock();
        // Density: with unique, increasing seqs already enforced online,
        // the only remaining failure is a hole below the maximum.
        if st.seen_seqs.len() as u64 != st.max_seq {
            let missing: Vec<SeqNo> =
                (1..=st.max_seq).filter(|s| !st.seen_seqs.contains(s)).take(8).collect();
            let max = st.max_seq;
            let count = st.seen_seqs.len();
            st.violate(
                Rule::SeqDensity,
                format!("{count} distinct seqs emitted but max is {max}; missing {missing:?}"),
                Vec::new(),
            );
        }
        if let Some(oracle) = st.oracle.take() {
            let mut expected: Vec<String> = Vec::new();
            for (r_ts, r_key, r_id) in &oracle.r_inputs {
                for (s_ts, s_key, s_id) in &oracle.s_inputs {
                    let in_scope = match oracle.window {
                        Some(ws) => r_ts.abs_diff(*s_ts) <= ws,
                        None => true,
                    };
                    if in_scope && r_key == s_key {
                        expected.push(format!("{r_id} ⋈ {s_id}"));
                    }
                }
            }
            expected.sort();
            let mut got = oracle.outputs;
            got.sort();
            if expected != got {
                let missing: Vec<&String> =
                    diff_multiset(&expected, &got).into_iter().take(4).collect();
                let spurious: Vec<&String> =
                    diff_multiset(&got, &expected).into_iter().take(4).collect();
                st.violate(
                    Rule::OutputOracle,
                    format!(
                        "output differs from nested-loop oracle: {} expected, {} emitted; \
                         missing {missing:?}; spurious {spurious:?}",
                        expected.len(),
                        got.len()
                    ),
                    Vec::new(),
                );
            }
        }
        st.seen_seqs.clear();
        st.max_seq = 0;
        std::mem::take(&mut st.violations)
    }

    /// Violations detected so far (including any finished batches).
    pub fn violation_count(&self) -> u64 {
        self.lock().total_violations
    }

    /// Drain violations detected so far without running the final checks.
    pub fn take_violations(&self) -> Vec<Violation> {
        std::mem::take(&mut self.lock().violations)
    }

    /// Run [`Auditor::finish`] and panic with a full report if any
    /// invariant was violated — the standard test epilogue.
    pub fn assert_clean(&self) {
        let violations = self.finish();
        if !violations.is_empty() {
            let mut report = format!("{} invariant violation(s):\n", violations.len());
            for v in &violations {
                report.push_str(&v.to_string());
            }
            panic!("{report}");
        }
    }
}

/// Elements of sorted `a` not matched (multiset-wise) in sorted `b`.
fn diff_multiset<'a>(a: &'a [String], b: &[String]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(&a[i]);
            i += 1;
        } else if a[i] > b[j] {
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_has_no_violations() {
        let a = Auditor::new();
        for seq in 1..=6u64 {
            a.router_emit((seq % 2) as u32, seq);
        }
        a.router_punct(0, 6);
        a.router_punct(1, 6);
        a.channel_recv("R0", 0, Purpose::Store, 2);
        a.channel_recv("R0", 0, Purpose::Store, 4);
        a.channel_punct("R0", 0, 6);
        a.release("R0", 0, 2, 6);
        a.release("R0", 0, 4, 6);
        a.index_discard("R0", 10, 20, 5, 1000, Some(100));
        a.queue_enqueue("unit.R0");
        a.queue_dequeue("unit.R0");
        assert!(a.finish().is_empty());
        assert_eq!(a.violation_count(), 0);
    }

    #[test]
    fn duplicate_seq_across_routers_is_caught() {
        let a = Auditor::new();
        a.router_emit(0, 1);
        a.router_emit(1, 1);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SeqDensity);
        assert!(v[0].message.contains("assigned twice"), "{}", v[0].message);
    }

    #[test]
    fn seq_hole_is_caught_at_finish() {
        let a = Auditor::new();
        a.router_emit(0, 1);
        a.router_emit(0, 3);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SeqDensity);
        assert!(v[0].message.contains("missing [2]"), "{}", v[0].message);
    }

    #[test]
    fn punctuation_regression_is_caught_with_chain() {
        let a = Auditor::new();
        a.router_punct(3, 10);
        a.router_punct(3, 9);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PunctMonotonic);
        assert!(v[0].chain.iter().any(|e| e.contains("punct seq 10")), "{:?}", v[0].chain);
    }

    #[test]
    fn emitting_below_own_punctuation_is_caught() {
        let a = Auditor::new();
        a.router_emit(0, 1);
        a.router_punct(0, 5);
        a.router_emit(0, 4);
        let v = a.finish();
        assert!(v.iter().any(|v| v.rule == Rule::PunctMonotonic), "{v:?}");
    }

    #[test]
    fn channel_fifo_regression_is_caught() {
        let a = Auditor::new();
        a.channel_recv("S1", 0, Purpose::Store, 5);
        a.channel_recv("S1", 0, Purpose::Store, 3);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ChannelFifo);
    }

    #[test]
    fn interleaved_purposes_on_one_channel_are_fifo_per_purpose() {
        // A batching router flushes its pending Store frame, then its
        // pending Join frame: seqs interleave across the two frames.
        let a = Auditor::new();
        for seq in [70, 72, 74] {
            a.channel_recv("R0", 0, Purpose::Store, seq);
        }
        for seq in [71, 73] {
            a.channel_recv("R0", 0, Purpose::Join, seq);
        }
        a.channel_punct("R0", 0, 74);
        assert!(a.finish().is_empty(), "{:?}", a.finish());
        // The punctuation rule stays channel-wide: neither purpose may
        // deliver at or below it afterwards.
        a.channel_recv("R0", 0, Purpose::Join, 74);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("after punctuation"), "{}", v[0].message);
    }

    #[test]
    fn data_after_channel_punctuation_is_caught() {
        let a = Auditor::new();
        a.channel_punct("S1", 2, 10);
        a.channel_recv("S1", 2, Purpose::Store, 7);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ChannelFifo);
        assert!(v[0].message.contains("after"), "{}", v[0].message);
    }

    #[test]
    fn unit_restart_resets_channel_and_release_state() {
        let a = Auditor::new();
        a.channel_recv("R0", 0, Purpose::Store, 5);
        a.channel_punct("R0", 0, 5);
        a.release("R0", 0, 5, 5);
        a.channel_recv("S0", 0, Purpose::Store, 6);
        // Without the restart hook, re-delivering seq 3 and re-releasing
        // from scratch would both be violations.
        a.unit_restarted("R0");
        a.channel_recv("R0", 0, Purpose::Store, 3);
        a.channel_punct("R0", 0, 5);
        a.release("R0", 0, 3, 5);
        assert!(a.finish().is_empty());
        // Other joiners' channels are untouched by the restart.
        a.channel_recv("S0", 0, Purpose::Store, 6);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ChannelFifo);
    }

    #[test]
    fn release_above_watermark_is_caught() {
        let a = Auditor::new();
        a.release("R0", 0, 7, 5);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ReleaseOrder);
    }

    #[test]
    fn release_order_regression_is_caught() {
        let a = Auditor::new();
        a.release("R0", 1, 5, 10);
        a.release("R0", 0, 3, 10);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ReleaseOrder);
    }

    #[test]
    fn premature_release_with_corrupt_watermark_is_caught() {
        let a = Auditor::new();
        // Data arrived on the channel but no punctuation ever did; a buffer
        // with a corrupt (inflated) watermark would release it anyway.
        a.channel_recv("R0", 1, Purpose::Store, 7);
        a.release("R0", 1, 7, 10);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ReleaseOrder);
        assert!(v[0].message.contains("punctuation frontier"), "{}", v[0].message);
    }

    #[test]
    fn watermark_regression_is_caught() {
        let a = Auditor::new();
        a.release("R0", 0, 1, 10);
        a.release("R0", 0, 2, 8);
        let v = a.finish();
        assert!(v.iter().any(|v| v.message.contains("watermark regressed")), "{v:?}");
    }

    #[test]
    fn live_discard_violates_theorem_one() {
        let a = Auditor::new();
        // Window 100, link max_ts 950, incoming 1000: still live.
        a.index_discard("R0", 900, 950, 3, 1000, Some(100));
        // Empty links may always go.
        a.index_discard("R0", u64::MAX, 0, 0, 1000, Some(100));
        // Full history never discards non-empty links.
        a.index_discard("R1", 0, 1, 1, u64::MAX, None);
        let v = a.finish();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == Rule::TheoremOne));
    }

    #[test]
    fn inverted_link_span_is_caught() {
        let a = Auditor::new();
        a.index_discard("R0", u64::MAX, 0, 2, u64::MAX, Some(1));
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("span inverted"), "{}", v[0].message);
    }

    #[test]
    fn queue_overdelivery_is_caught() {
        let a = Auditor::new();
        a.queue_enqueue("q");
        a.queue_dequeue("q");
        a.queue_dequeue("q");
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::QueueConservation);
    }

    #[test]
    fn oracle_matches_nested_loop_join() {
        let a = Auditor::new();
        a.enable_oracle(Some(10));
        a.observe_input(true, 5, "k".into(), "r@5".into());
        a.observe_input(false, 8, "k".into(), "s@8".into());
        a.observe_input(false, 100, "k".into(), "s@100".into()); // out of window
        a.observe_input(false, 9, "other".into(), "s@9".into()); // key mismatch
        a.observe_output("r@5", "s@8");
        assert!(a.finish().is_empty());
    }

    #[test]
    fn oracle_flags_missing_and_spurious_outputs() {
        let a = Auditor::new();
        a.enable_oracle(None);
        a.observe_input(true, 1, "k".into(), "r@1".into());
        a.observe_input(false, 2, "k".into(), "s@2".into());
        a.observe_output("r@1", "s@999"); // spurious; the real match missing
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::OutputOracle);
        assert!(v[0].message.contains("missing"), "{}", v[0].message);
        assert!(v[0].message.contains("spurious"), "{}", v[0].message);
    }

    #[test]
    fn oracle_respects_duplicate_multiplicity() {
        let a = Auditor::new();
        a.enable_oracle(None);
        a.observe_input(true, 1, "k".into(), "r@1".into());
        a.observe_input(true, 1, "k".into(), "r@1".into());
        a.observe_input(false, 2, "k".into(), "s@2".into());
        a.observe_output("r@1", "s@2");
        a.observe_output("r@1", "s@2");
        assert!(a.finish().is_empty());
    }

    #[test]
    fn violations_land_in_attached_journal() {
        let a = Auditor::new();
        let journal = EventJournal::with_capacity(32);
        a.attach_journal(journal.clone());
        a.set_now(42);
        a.release("R0", 0, 9, 5);
        let events = journal.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts, 42);
        match &events[0].kind {
            EventKind::InvariantViolation { rule, detail } => {
                assert_eq!(rule, "release-order");
                assert!(detail.contains("above watermark"), "{detail}");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn violation_chain_includes_journal_tail() {
        let a = Auditor::new();
        let journal = EventJournal::with_capacity(32);
        journal.record(1, EventKind::TupleStored { side: crate::rel::Rel::R, unit: 0, seq: 3 });
        a.attach_journal(journal);
        a.channel_recv("R0", 0, Purpose::Store, 5);
        a.channel_recv("R0", 0, Purpose::Store, 5);
        let v = a.finish();
        assert_eq!(v.len(), 1);
        assert!(
            v[0].chain.iter().any(|e| e.starts_with("journal: ") && e.contains("TupleStored")),
            "{:?}",
            v[0].chain
        );
    }

    #[test]
    fn assert_clean_panics_with_report() {
        let a = Auditor::new();
        a.router_emit(0, 1);
        a.router_emit(0, 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.assert_clean()))
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("seq-density"), "{msg}");
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let a = Auditor::new();
        for _ in 0..(MAX_STORED_VIOLATIONS + 10) {
            a.queue_dequeue("q");
        }
        assert_eq!(a.violation_count(), (MAX_STORED_VIOLATIONS + 10) as u64);
        assert_eq!(a.take_violations().len(), MAX_STORED_VIOLATIONS);
    }

    #[test]
    fn new_if_debug_matches_build_profile() {
        assert_eq!(Auditor::new_if_debug().is_some(), cfg!(debug_assertions));
    }
}
