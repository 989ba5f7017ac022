//! Offline stand-in for `crossbeam` 0.8: `queue::ArrayQueue` and the
//! bounded MPMC `channel` (disconnect detection, `recv_timeout`).
//!
//! Both are a `std::sync::Mutex` around a `VecDeque` — the semantics of
//! the registry crate without its lock-free implementation. What a
//! benchmark run measures through them (the broker backend's queues, the
//! event journal, the tracer's completed ring) is therefore this code's
//! cost, which `benchmark/README.md` states next to the numbers.

/// Bounded lock-protected queue with the `ArrayQueue` API.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// A bounded multi-producer multi-consumer queue.
    #[derive(Debug)]
    pub struct ArrayQueue<T> {
        items: Mutex<VecDeque<T>>,
        capacity: usize,
    }

    impl<T> ArrayQueue<T> {
        /// A queue holding at most `capacity` items. Panics on zero, as
        /// the registry crate does.
        pub fn new(capacity: usize) -> ArrayQueue<T> {
            assert!(capacity > 0, "capacity must be non-zero");
            ArrayQueue { items: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
        }

        fn items(&self) -> MutexGuard<'_, VecDeque<T>> {
            // Every critical section below leaves the deque valid, so a
            // panic elsewhere while holding the lock cannot corrupt it.
            self.items.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Append `value`, or hand it back when the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut items = self.items();
            if items.len() == self.capacity {
                return Err(value);
            }
            items.push_back(value);
            Ok(())
        }

        /// Remove the oldest item.
        pub fn pop(&self) -> Option<T> {
            self.items().pop_front()
        }

        /// Maximum number of items.
        pub fn capacity(&self) -> usize {
            self.capacity
        }

        /// Items currently queued.
        pub fn len(&self) -> usize {
            self.items().len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.items().is_empty()
        }

        /// Whether `push` would fail right now.
        pub fn is_full(&self) -> bool {
            self.items().len() == self.capacity
        }
    }
}

/// Bounded MPMC channel with the `crossbeam::channel` API.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        /// Signalled when an item arrives or the last sender leaves.
        not_empty: Condvar,
        /// Signalled when a slot frees up or the last receiver leaves.
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn state(&self) -> MutexGuard<'_, State<T>> {
            // Every critical section leaves the state valid.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// A bounded channel of `capacity` items. Zero (crossbeam's
    /// rendezvous channel) is not supported and panics.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity > 0, "the offline channel stand-in has no rendezvous mode");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(1 << 16)),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (clones compete for items).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// `send` failed: every receiver is gone. Carries the message back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    /// Why `try_send` failed. Carries the message back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// `recv` failed: the channel is empty and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Why `try_recv` failed.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and every sender is gone.
        Disconnected,
    }

    /// Why `recv_timeout` failed.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time.
        Timeout,
        /// Empty and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Queue `msg` if there is room and a receiver.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.state();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if st.items.len() >= self.shared.capacity {
                return Err(TrySendError::Full(msg));
            }
            st.items.push_back(msg);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Queue `msg`, blocking while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.items.len() < self.shared.capacity {
                    st.items.push_back(msg);
                    drop(st);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                st = self.shared.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Items currently queued.
        pub fn len(&self) -> usize {
            self.shared.state().items.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// The oldest item, if one is queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state();
            match st.items.pop_front() {
                Some(v) => {
                    drop(st);
                    self.shared.not_full.notify_one();
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// The oldest item, blocking until one arrives or every sender
        /// is gone. Queued items are still delivered after disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state();
            loop {
                if let Some(v) = st.items.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// As [`Receiver::recv`], giving up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.state();
            loop {
                if let Some(v) = st.items.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                st = self
                    .shared
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        /// Items currently queued.
        pub fn len(&self) -> usize {
            self.shared.state().items.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.state().senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.state().receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.shared.not_full.notify_all();
            }
        }
    }
}
