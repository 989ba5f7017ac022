//! Simulated message delivery between routers and joiners.
//!
//! The network guarantee the engine relies on is exactly *pairwise FIFO*
//! (Definition 8): messages from one router to one joiner arrive in send
//! order. Everything else — the interleaving across channels — is up to
//! the scheduler, and that freedom is what the ordering protocol must
//! tolerate. [`ChannelNet`] is the one simulated net, with two arms:
//!
//! - **In order** ([`DeliveryMode::InOrder`]): one global queue, delivered
//!   in send order (the benign schedule; what a single-threaded run would
//!   see).
//! - **Scheduled**: per-channel FIFO queues and a step counter; every
//!   delivery picks among the eligible channels with
//!   [`fault::mix`](bistream_types::fault::mix)`(seed, step)` — no thread
//!   timing, no generator state — so an identical seed and plan replay an
//!   identical schedule. [`DeliveryMode::Shuffled`] runs this arm over an
//!   empty [`FaultPlan`]: adversarial cross-channel interleavings that
//!   still honour per-channel FIFO, the schedule that exposes the
//!   duplicate/missed-result races when the ordering protocol is off
//!   (experiment E7). [`ChannelNet::with_plan`] runs it over a seeded
//!   plan, whose fault families act here:
//!   - **Delay windows** make a channel ineligible for delivery while the
//!     window is open (frames queue up; FIFO is preserved).
//!   - **Partitions** make [`ChannelNet::send`] refuse the frame entirely
//!     — the caller (the engine's retry queue) keeps it and backs off.
//!   - **Queue stalls** targeting a `unit.N` broker queue defer every
//!     channel into unit `N` while the window is open — the virtual-time
//!     analogue of the live broker parking publishers on a stalled queue.
//!   - **Crashes** are not network events at all; the net merely reports
//!     which units are due to die via [`ChannelNet::take_due_crashes`] so
//!     the engine can run the crash/recover drill.
//!
//! Loss is *modelled*, never literal: a partition or delay holds frames
//! back, but no frame is silently dropped (a dropped frame would fake a
//! FIFO gap the real transports — TCP, AMQP — never produce). Past the
//! plan's horizon every fault expires, which guarantees the drained
//! schedule terminates.
//!
//! The live pipeline's threads keep the same pairwise-FIFO contract
//! through their own transport seam (`crate::exec::driver`).

use crate::layout::JoinerId;
use bistream_types::fault::{mix, FaultEvent, FaultPlan};
use bistream_types::punct::RouterId;
use std::collections::VecDeque;

/// Delivery scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Global send order (benign).
    InOrder,
    /// A seeded pick among the non-empty channels per step (adversarial
    /// but pairwise-FIFO).
    Shuffled {
        /// Seed of the channel choice.
        seed: u64,
    },
}

/// One message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct InFlight<M> {
    /// Destination unit.
    pub dest: JoinerId,
    /// The message.
    pub msg: M,
}

/// Hard cap on how long fault windows are honoured, in steps. A
/// hand-written plan whose window never closes (e.g. `until_step:
/// u64::MAX`) would otherwise wedge [`ChannelNet::deliver_next`]; capping
/// the effective horizon turns "delay forever" into "delay for a bounded
/// eternity", preserving the termination guarantee.
const MAX_HORIZON: u64 = 1 << 20;

// One NetImpl exists per engine; the size spread between the two
// variants is irrelevant next to heap contents.
#[allow(clippy::large_enum_variant)]
enum NetImpl<M> {
    InOrder { queue: VecDeque<InFlight<M>> },
    Scheduled(Scheduled<M>),
}

/// The scheduled arm: a schedule and faults replayable from a
/// [`FaultPlan`].
struct Scheduled<M> {
    plan: FaultPlan,
    horizon: u64,
    step: u64,
    /// Per-channel FIFO queues.
    channels: Vec<((RouterId, JoinerId), VecDeque<M>)>,
    pending: usize,
    /// `(unit, at_step)` crash events not yet fired.
    crashes: Vec<(u32, u64)>,
    /// `(unit, from_step, until_step)` stall windows parsed from
    /// `StallQueue` events naming a `unit.N` queue: all channels into the
    /// unit are held while a window is open.
    stalls: Vec<(u32, u64, u64)>,
}

impl<M> Scheduled<M> {
    fn new(plan: FaultPlan) -> Scheduled<M> {
        let horizon = plan.horizon().min(MAX_HORIZON);
        let mut crashes: Vec<(u32, u64)> = plan
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashUnit { unit, at_step } => Some((*unit, *at_step)),
                _ => None,
            })
            .collect();
        crashes.sort_by_key(|&(unit, at)| (at, unit));
        let stalls: Vec<(u32, u64, u64)> = plan
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::StallQueue { queue, from_step, until_step } => {
                    let unit = queue.strip_prefix("unit.")?.parse::<u32>().ok()?;
                    Some((unit, *from_step, *until_step))
                }
                _ => None,
            })
            .collect();
        Scheduled { plan, horizon, step: 0, channels: Vec::new(), pending: 0, crashes, stalls }
    }

    /// Whether a `unit.N` stall window holds deliveries into `unit` at
    /// `step`.
    fn unit_stalled(&self, unit: u32, step: u64) -> bool {
        self.stalls.iter().any(|&(u, from, until)| u == unit && (from..until).contains(&step))
    }

    fn channel_open(&self, router: RouterId, unit: u32) -> bool {
        self.step > self.horizon || !self.plan.partitions_channel(router, unit, self.step)
    }

    fn send(&mut self, router: RouterId, dest: JoinerId, msg: M) -> bool {
        if !self.channel_open(router, dest.0) {
            return false;
        }
        let key = (router, dest);
        match self.channels.iter_mut().find(|(k, _)| *k == key) {
            Some((_, q)) => q.push_back(msg),
            None => {
                let mut q = VecDeque::new();
                q.push_back(msg);
                self.channels.push((key, q));
            }
        }
        self.pending += 1;
        true
    }

    /// Advances the step, skips channels whose delay window is open, and
    /// picks among the eligible channels with `mix(seed, step)`. Once the
    /// step passes the plan's horizon all delay windows are void, so this
    /// terminates whenever frames are pending.
    fn deliver_next(&mut self) -> Option<InFlight<M>> {
        if self.pending == 0 {
            return None;
        }
        loop {
            self.step += 1;
            let past_horizon = self.step > self.horizon;
            let eligible: Vec<usize> = self
                .channels
                .iter()
                .enumerate()
                .filter(|(_, ((router, dest), q))| {
                    !q.is_empty()
                        && (past_horizon
                            || (!self.plan.delays_channel(*router, dest.0, self.step)
                                && !self.unit_stalled(dest.0, self.step)))
                })
                .map(|(i, _)| i)
                .collect();
            if eligible.is_empty() {
                // Every pending channel is inside a delay window; let the
                // step tick until one closes (bounded by the horizon).
                continue;
            }
            let pick = eligible[(mix(self.plan.seed, self.step) % eligible.len() as u64) as usize];
            let ((_, dest), q) = &mut self.channels[pick];
            let dest = *dest;
            if let Some(msg) = q.pop_front() {
                self.pending -= 1;
                return Some(InFlight { dest, msg });
            }
        }
    }

    fn take_due_crashes(&mut self) -> Vec<u32> {
        let step = self.step;
        let mut due = Vec::new();
        self.crashes.retain(|&(unit, at)| {
            if at <= step {
                due.push(unit);
                false
            } else {
                true
            }
        });
        due
    }

    fn forget_unit(&mut self, unit: JoinerId) {
        let pending = &mut self.pending;
        self.channels.retain(|((_, dest), q)| {
            if *dest == unit {
                *pending -= q.len();
                false
            } else {
                true
            }
        });
    }
}

/// The simulated network, generic over the frame type it carries (the
/// engine moves [`bistream_types::BatchMessage`] frames).
pub struct ChannelNet<M> {
    inner: NetImpl<M>,
}

impl<M> ChannelNet<M> {
    /// A fault-free network with the given scheduling policy.
    pub fn new(mode: DeliveryMode) -> ChannelNet<M> {
        match mode {
            DeliveryMode::InOrder => {
                ChannelNet { inner: NetImpl::InOrder { queue: VecDeque::new() } }
            }
            DeliveryMode::Shuffled { seed } => {
                ChannelNet::with_plan(FaultPlan { seed, ..FaultPlan::none() })
            }
        }
    }

    /// A scheduled network executing `plan`. The plan's crash events are
    /// queued for [`ChannelNet::take_due_crashes`]; everything else is
    /// evaluated lazily per step.
    pub fn with_plan(plan: FaultPlan) -> ChannelNet<M> {
        ChannelNet { inner: NetImpl::Scheduled(Scheduled::new(plan)) }
    }

    /// The current schedule step (advances on every scheduled delivery
    /// attempt; the in-order arm has no schedule and stays at 0).
    pub fn step(&self) -> u64 {
        match &self.inner {
            NetImpl::InOrder { .. } => 0,
            NetImpl::Scheduled(s) => s.step,
        }
    }

    /// Fast-forward the schedule to `step` (never rewinds). Used to jump
    /// to a retry-backoff due time when nothing else is deliverable.
    pub fn advance_to(&mut self, step: u64) {
        if let NetImpl::Scheduled(s) = &mut self.inner {
            s.step = s.step.max(step);
        }
    }

    /// Whether the `router → unit` channel accepts frames at the current
    /// step (i.e. no partition window covers it). Callers that must not
    /// lose a frame check this before [`ChannelNet::send`].
    pub fn channel_open(&self, router: RouterId, unit: u32) -> bool {
        match &self.inner {
            NetImpl::InOrder { .. } => true,
            NetImpl::Scheduled(s) => s.channel_open(router, unit),
        }
    }

    /// Enqueue a frame from `router` to `dest`, unless the channel is
    /// partitioned at the current step — then the frame is refused
    /// (returns `false`) and the caller must retry later. Without a plan
    /// nothing is ever refused.
    #[must_use]
    pub fn send(&mut self, router: RouterId, dest: JoinerId, msg: M) -> bool {
        match &mut self.inner {
            NetImpl::InOrder { queue } => {
                queue.push_back(InFlight { dest, msg });
                true
            }
            NetImpl::Scheduled(s) => s.send(router, dest, msg),
        }
    }

    /// Deliver the next frame per the scheduling policy.
    pub fn deliver_next(&mut self) -> Option<InFlight<M>> {
        match &mut self.inner {
            NetImpl::InOrder { queue } => queue.pop_front(),
            NetImpl::Scheduled(s) => s.deliver_next(),
        }
    }

    /// Crash events whose step has arrived, in `(at_step, unit)` order.
    /// Each fires exactly once.
    pub fn take_due_crashes(&mut self) -> Vec<u32> {
        match &mut self.inner {
            NetImpl::InOrder { .. } => Vec::new(),
            NetImpl::Scheduled(s) => s.take_due_crashes(),
        }
    }

    /// Crash events that have not fired yet.
    pub fn crashes_pending(&self) -> usize {
        match &self.inner {
            NetImpl::InOrder { .. } => 0,
            NetImpl::Scheduled(s) => s.crashes.len(),
        }
    }

    /// Frames currently in flight.
    pub fn pending(&self) -> usize {
        match &self.inner {
            NetImpl::InOrder { queue } => queue.len(),
            NetImpl::Scheduled(s) => s.pending,
        }
    }

    /// Drop all channels to a unit: a retired unit's traffic is moot, a
    /// crashed unit's in-flight traffic is lost with it (recovery re-sends
    /// from the engine's log).
    pub fn forget_unit(&mut self, unit: JoinerId) {
        match &mut self.inner {
            NetImpl::InOrder { queue } => queue.retain(|m| m.dest != unit),
            NetImpl::Scheduled(s) => s.forget_unit(unit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::punct::{Punctuation, StreamMessage};

    fn punct(router: RouterId, seq: u64) -> StreamMessage {
        StreamMessage::Punct(Punctuation { router, seq })
    }

    #[test]
    fn in_order_preserves_global_send_order() {
        let mut net = ChannelNet::new(DeliveryMode::InOrder);
        for seq in 1..=5 {
            assert!(net.send(0, JoinerId(seq as u32 % 2), punct(0, seq)));
        }
        let seqs: Vec<u64> =
            std::iter::from_fn(|| net.deliver_next()).map(|m| m.msg.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn shuffled_preserves_pairwise_fifo() {
        let mut net = ChannelNet::new(DeliveryMode::Shuffled { seed: 42 });
        // Two routers, two joiners, interleaved sends.
        for seq in 1..=50u64 {
            for r in 0..2 {
                for j in 0..2 {
                    assert!(net.send(r, JoinerId(j), punct(r, seq)));
                }
            }
        }
        let mut last: std::collections::HashMap<(RouterId, JoinerId), u64> = Default::default();
        let mut count = 0;
        while let Some(m) = net.deliver_next() {
            let key = (m.msg.router(), m.dest);
            let prev = last.insert(key, m.msg.seq());
            if let Some(p) = prev {
                assert!(m.msg.seq() > p, "FIFO violated on {key:?}");
            }
            count += 1;
        }
        assert_eq!(count, 200);
    }

    #[test]
    fn shuffled_actually_interleaves_across_channels() {
        let mut net = ChannelNet::new(DeliveryMode::Shuffled { seed: 7 });
        for seq in 1..=20u64 {
            assert!(net.send(0, JoinerId(0), punct(0, seq)));
            assert!(net.send(1, JoinerId(0), punct(1, seq)));
        }
        let order: Vec<RouterId> =
            std::iter::from_fn(|| net.deliver_next()).map(|m| m.msg.router()).collect();
        // Not all of router 0 then all of router 1 (or vice versa).
        let first_half_same = order[..20].iter().all(|&r| r == order[0]);
        assert!(!first_half_same, "expected interleaving, got {order:?}");
    }

    #[test]
    fn forget_unit_discards_its_traffic() {
        for mode in [DeliveryMode::InOrder, DeliveryMode::Shuffled { seed: 1 }] {
            let mut net = ChannelNet::new(mode);
            assert!(net.send(0, JoinerId(0), punct(0, 1)));
            assert!(net.send(0, JoinerId(1), punct(0, 2)));
            net.forget_unit(JoinerId(0));
            assert_eq!(net.pending(), 1);
            let only = net.deliver_next().unwrap();
            assert_eq!(only.dest, JoinerId(1));
        }
    }
}
