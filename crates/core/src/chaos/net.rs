//! Plan-driven network scheduler: [`ChannelNet`] semantics plus injected
//! faults.
//!
//! [`ChaosNet`] carries the same per-channel FIFO queues as the shuffled
//! [`ChannelNet`](crate::delivery::ChannelNet) scheduler, but every
//! scheduling decision is a pure function of `(plan.seed, step)` via
//! [`fault::mix`](bistream_types::fault::mix) — no thread timing, no
//! shared RNG state — so an identical plan replays an identical schedule.
//! Three fault families act here:
//!
//! - **Delay windows** make a channel ineligible for delivery while the
//!   window is open (frames queue up; FIFO is preserved).
//! - **Partitions** make [`ChaosNet::send`] refuse the frame entirely —
//!   the caller (the engine's retry queue) keeps it and backs off.
//! - **Queue stalls** targeting a `unit.N` broker queue defer every
//!   channel into unit `N` while the window is open — the virtual-time
//!   analogue of the live broker parking publishers on a stalled queue.
//! - **Crashes** are not network events at all; the net merely reports
//!   which units are due to die via [`ChaosNet::take_due_crashes`] so the
//!   engine can run the crash/recover drill.
//!
//! Loss is *modelled*, never literal: a partition or delay holds frames
//! back, but no frame is silently dropped (a dropped frame would fake a
//! FIFO gap the real transports — TCP, AMQP — never produce). Past the
//! plan's horizon every fault expires, which guarantees the drained
//! schedule terminates.

use crate::delivery::InFlight;
use crate::layout::JoinerId;
use bistream_types::fault::{mix, FaultPlan};
use bistream_types::punct::RouterId;
use std::collections::VecDeque;

/// Hard cap on how long fault windows are honoured, in steps. A
/// hand-written plan whose window never closes (e.g. `until_step:
/// u64::MAX`) would otherwise wedge [`ChaosNet::deliver_next`]; capping
/// the effective horizon turns "delay forever" into "delay for a bounded
/// eternity", preserving the termination guarantee.
const MAX_HORIZON: u64 = 1 << 20;

/// A pairwise-FIFO network whose schedule and faults are replayable from
/// a [`FaultPlan`].
pub struct ChaosNet<M> {
    plan: FaultPlan,
    horizon: u64,
    step: u64,
    channels: Vec<((RouterId, JoinerId), VecDeque<M>)>,
    pending: usize,
    /// `(unit, at_step)` crash events not yet fired.
    crashes: Vec<(u32, u64)>,
    /// `(unit, from_step, until_step)` stall windows parsed from
    /// `StallQueue` events naming a `unit.N` queue: all channels into the
    /// unit are held while a window is open.
    stalls: Vec<(u32, u64, u64)>,
}

impl<M> ChaosNet<M> {
    /// A network executing `plan`. The plan's crash events are queued for
    /// [`ChaosNet::take_due_crashes`]; everything else is evaluated lazily
    /// per step.
    pub fn new(plan: FaultPlan) -> ChaosNet<M> {
        let horizon = plan.horizon().min(MAX_HORIZON);
        let mut crashes: Vec<(u32, u64)> = plan
            .events
            .iter()
            .filter_map(|e| match e {
                bistream_types::fault::FaultEvent::CrashUnit { unit, at_step } => {
                    Some((*unit, *at_step))
                }
                _ => None,
            })
            .collect();
        crashes.sort_by_key(|&(unit, at)| (at, unit));
        let stalls: Vec<(u32, u64, u64)> = plan
            .events
            .iter()
            .filter_map(|e| match e {
                bistream_types::fault::FaultEvent::StallQueue { queue, from_step, until_step } => {
                    let unit = queue.strip_prefix("unit.")?.parse::<u32>().ok()?;
                    Some((unit, *from_step, *until_step))
                }
                _ => None,
            })
            .collect();
        ChaosNet { plan, horizon, step: 0, channels: Vec::new(), pending: 0, crashes, stalls }
    }

    /// Whether a `unit.N` stall window holds deliveries into `unit` at
    /// `step`.
    fn unit_stalled(&self, unit: u32, step: u64) -> bool {
        self.stalls.iter().any(|&(u, from, until)| u == unit && (from..until).contains(&step))
    }

    /// The current schedule step (advances on every delivery attempt).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Fast-forward the schedule to `step` (never rewinds). Used to jump
    /// to a retry-backoff due time when nothing else is deliverable.
    pub fn advance_to(&mut self, step: u64) {
        self.step = self.step.max(step);
    }

    /// The plan driving this network.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the `router → unit` channel accepts frames at the current
    /// step (i.e. no partition window covers it). Callers that must not
    /// lose a frame check this before [`ChaosNet::send`].
    pub fn channel_open(&self, router: RouterId, unit: u32) -> bool {
        self.step > self.horizon || !self.plan.partitions_channel(router, unit, self.step)
    }

    /// Enqueue a frame from `router` to `dest`, unless the channel is
    /// partitioned at the current step — then the frame is refused
    /// (returns `false`) and the caller must retry later.
    #[must_use]
    pub fn send(&mut self, router: RouterId, dest: JoinerId, msg: M) -> bool {
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

    /// Deliver one frame. Advances the step, skips channels whose delay
    /// window is open, and picks among the eligible channels with
    /// `mix(seed, step)`. Once the step passes the plan's horizon all
    /// delay windows are void, so this terminates whenever frames are
    /// pending.
    pub fn deliver_next(&mut self) -> Option<InFlight<M>> {
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

    /// Crash events whose step has arrived, in `(at_step, unit)` order.
    /// Each fires exactly once.
    pub fn take_due_crashes(&mut self) -> Vec<u32> {
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

    /// Crash events that have not fired yet.
    pub fn crashes_pending(&self) -> usize {
        self.crashes.len()
    }

    /// Frames currently in flight.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Drop all channels to a unit (its in-flight traffic is lost with
    /// it; recovery re-sends from the engine's log).
    pub fn forget_unit(&mut self, unit: JoinerId) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::fault::{ChaosProfile, FaultEvent};
    use bistream_types::punct::Punctuation;
    use bistream_types::punct::StreamMessage;

    fn punct(router: RouterId, seq: u64) -> StreamMessage {
        StreamMessage::Punct(Punctuation { router, seq })
    }

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { seed: 9, scenario: "test".into(), events }
    }

    #[test]
    fn identical_plans_replay_identical_schedules() {
        let profile = ChaosProfile::new("mixed", vec![0, 1], vec![0, 1]);
        let plan = FaultPlan::generate(3, &profile);
        let run = |plan: &FaultPlan| {
            let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan.clone());
            for seq in 1..=40u64 {
                for r in 0..2 {
                    for j in 0..2 {
                        let _ = net.send(r, JoinerId(j), punct(r, seq));
                    }
                }
            }
            let mut order = Vec::new();
            while let Some(m) = net.deliver_next() {
                order.push((m.msg.router(), m.dest.0, m.msg.seq()));
            }
            order
        };
        assert_eq!(run(&plan), run(&plan));
    }

    #[test]
    fn pairwise_fifo_survives_delays() {
        let plan = plan_with(vec![FaultEvent::DelayChannel {
            router: 0,
            unit: 0,
            from_step: 1,
            until_step: 30,
        }]);
        let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan);
        for seq in 1..=20u64 {
            assert!(net.send(0, JoinerId(0), punct(0, seq)));
            assert!(net.send(1, JoinerId(0), punct(1, seq)));
        }
        let mut last: std::collections::HashMap<(RouterId, JoinerId), u64> = Default::default();
        let mut delivered = 0;
        while let Some(m) = net.deliver_next() {
            let key = (m.msg.router(), m.dest);
            if let Some(p) = last.insert(key, m.msg.seq()) {
                assert!(m.msg.seq() > p, "FIFO violated on {key:?}");
            }
            delivered += 1;
        }
        assert_eq!(delivered, 40, "delays must defer frames, never drop them");
    }

    #[test]
    fn delayed_channel_is_held_while_window_open() {
        let plan = plan_with(vec![FaultEvent::DelayChannel {
            router: 0,
            unit: 0,
            from_step: 1,
            until_step: 10,
        }]);
        let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan);
        let _ = net.send(0, JoinerId(0), punct(0, 1));
        let _ = net.send(1, JoinerId(1), punct(1, 1));
        // While both channels are pending and one is delayed, the open
        // channel is the only one that can deliver within the window.
        let first = net.deliver_next().expect("open channel delivers");
        assert_eq!(first.dest, JoinerId(1));
        assert!(net.step() <= 10);
        // The held frame still arrives (after the window, if need be).
        let second = net.deliver_next().expect("held frame eventually delivers");
        assert_eq!(second.dest, JoinerId(0));
    }

    #[test]
    fn unit_queue_stalls_hold_deliveries_into_the_unit() {
        let plan = plan_with(vec![FaultEvent::StallQueue {
            queue: "unit.0".into(),
            from_step: 1,
            until_step: 10,
        }]);
        let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan);
        let _ = net.send(0, JoinerId(0), punct(0, 1));
        let _ = net.send(0, JoinerId(1), punct(0, 1));
        // While the stall window is open, only the unstalled unit's
        // channel is eligible.
        let first = net.deliver_next().expect("unstalled unit delivers first");
        assert_eq!(first.dest, JoinerId(1));
        assert!(net.step() < 10);
        // The held frame still arrives once the window closes.
        let second = net.deliver_next().expect("held frame delivers after the window");
        assert_eq!(second.dest, JoinerId(0));
        assert!(net.step() >= 10);
    }

    #[test]
    fn partitioned_sends_are_refused_then_accepted() {
        let plan = plan_with(vec![FaultEvent::Partition {
            router: 0,
            unit: 0,
            from_step: 0,
            until_step: 5,
        }]);
        let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan);
        assert!(!net.send(0, JoinerId(0), punct(0, 1)), "partitioned send must refuse");
        assert!(net.send(0, JoinerId(1), punct(0, 1)), "other channels unaffected");
        net.advance_to(6);
        assert!(net.send(0, JoinerId(0), punct(0, 1)), "partition heals after window");
    }

    #[test]
    fn crashes_fire_once_in_step_order() {
        let plan = plan_with(vec![
            FaultEvent::CrashUnit { unit: 1, at_step: 8 },
            FaultEvent::CrashUnit { unit: 0, at_step: 3 },
        ]);
        let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan);
        assert!(net.take_due_crashes().is_empty());
        net.advance_to(4);
        assert_eq!(net.take_due_crashes(), vec![0]);
        net.advance_to(100);
        assert_eq!(net.take_due_crashes(), vec![1]);
        assert!(net.take_due_crashes().is_empty(), "each crash fires exactly once");
        assert_eq!(net.crashes_pending(), 0);
    }

    #[test]
    fn schedule_terminates_past_the_horizon() {
        // A delay window covering every step of the horizon cannot wedge
        // the net: past the horizon all faults are void.
        let plan = plan_with(vec![FaultEvent::DelayChannel {
            router: 0,
            unit: 0,
            from_step: 0,
            until_step: u64::MAX,
        }]);
        let mut net: ChaosNet<StreamMessage> = ChaosNet::new(plan);
        let _ = net.send(0, JoinerId(0), punct(0, 1));
        assert!(net.deliver_next().is_some());
        assert_eq!(net.pending(), 0);
    }
}
