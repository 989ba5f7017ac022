//! Deterministic fault injection: seeded chaos schedules, crash/recover
//! drills and the exploration harness.
//!
//! The original systems outsource failure handling to their platforms
//! (Storm's tuple replay, Kubernetes restarts), so the paper never tests
//! it — but a reproduction that claims the ordering protocol's guarantees
//! (Definitions 7/8, Theorem 1) should demonstrate they hold *under*
//! failure, not just under adversarial-but-lossless schedules. This
//! module makes failure a first-class, replayable input:
//!
//! - the scheduled arm of [`crate::delivery::ChannelNet`] executes a
//!   seeded [`FaultPlan`](bistream_types::fault::FaultPlan) —
//!   channel-delay windows, router→joiner partitions and unit-crash
//!   events — as a pure function of `(seed, step)` over pairwise-FIFO
//!   channels.
//! - [`trial`] runs a fixed two-phase workload (store everything, then
//!   probe everything) through a chaos-armed
//!   [`BicliqueEngine`](crate::engine::BicliqueEngine) with the
//!   protocol-invariant [`Auditor`](bistream_types::audit::Auditor) and
//!   its output oracle armed as the pass/fail judge.
//! - [`minimize`](minimize::minimize) shrinks any failing plan, ddmin
//!   style, to a 1-minimal set of fault events worth committing as a
//!   regression artifact.
//!
//! The exploration loop ([`trial::explore`]) sweeps seeds per scenario,
//! minimises every failure and packages it as a
//! [`ChaosArtifact`](bistream_types::fault::ChaosArtifact) that a plain
//! `#[test]` re-executes byte-for-byte.
//!
//! [`slo`] grades the same seeded plans against service-level objectives
//! instead of the auditor: sim trials with a scrape sampler riding along,
//! plus a live broker-stall drill for the fault family virtual time
//! cannot express (E19).

pub mod minimize;
pub mod slo;
pub mod trial;

pub use minimize::minimize;
pub use slo::{run_broker_stall_drill, run_graded_trial, GradedTrial, StallDrillReport};
pub use trial::{
    explore, replay, run_trial, scenario_profile, Exploration, TrialReport, SCENARIOS,
};

/// The scheduled arm of [`ChannelNet`](crate::delivery::ChannelNet) under
/// fault plans: delay, stall and partition windows, the crash schedule,
/// replay determinism and termination.
#[cfg(test)]
mod net {
    mod tests {
        use crate::delivery::{ChannelNet, DeliveryMode};
        use crate::layout::JoinerId;
        use bistream_types::fault::{ChaosProfile, FaultEvent, FaultPlan};
        use bistream_types::punct::{Punctuation, RouterId, StreamMessage};

        fn punct(router: RouterId, seq: u64) -> StreamMessage {
            StreamMessage::Punct(Punctuation { router, seq })
        }

        fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
            FaultPlan { seed: 9, scenario: "test".into(), events }
        }

        #[test]
        fn identical_plans_replay_identical_schedules() {
            let run = |mut net: ChannelNet<StreamMessage>| {
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
            let profile = ChaosProfile::new("mixed", vec![0, 1], vec![0, 1]);
            let plan = FaultPlan::generate(3, &profile);
            assert_eq!(
                run(ChannelNet::with_plan(plan.clone())),
                run(ChannelNet::with_plan(plan.clone()))
            );
            // A shuffle is the same schedule over an empty plan: the seed
            // alone names the delivery order.
            let shuffled = |seed| run(ChannelNet::new(DeliveryMode::Shuffled { seed }));
            assert_eq!(shuffled(3), shuffled(3));
            assert_eq!(
                shuffled(3),
                run(ChannelNet::with_plan(FaultPlan { seed: 3, ..FaultPlan::none() }))
            );
            assert_ne!(shuffled(3), shuffled(4));
        }

        #[test]
        fn pairwise_fifo_survives_delays() {
            let plan = plan_with(vec![FaultEvent::DelayChannel {
                router: 0,
                unit: 0,
                from_step: 1,
                until_step: 30,
            }]);
            let mut net: ChannelNet<StreamMessage> = ChannelNet::with_plan(plan);
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
            let mut net: ChannelNet<StreamMessage> = ChannelNet::with_plan(plan);
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
            let mut net: ChannelNet<StreamMessage> = ChannelNet::with_plan(plan);
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
            let mut net: ChannelNet<StreamMessage> = ChannelNet::with_plan(plan);
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
            let mut net: ChannelNet<StreamMessage> = ChannelNet::with_plan(plan);
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
            let mut net: ChannelNet<StreamMessage> = ChannelNet::with_plan(plan);
            let _ = net.send(0, JoinerId(0), punct(0, 1));
            assert!(net.deliver_next().is_some());
            assert_eq!(net.pending(), 0);
        }
    }
}
