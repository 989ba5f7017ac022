//! The stand-in crates behave the way the engine relies on.

use bistream_types::batch::{BatchMessage, TupleBatch};
use bistream_types::punct::Purpose;
use bistream_types::rel::Rel;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bytes::{Buf, Bytes};
use crossbeam::channel::{bounded, RecvTimeoutError, TryRecvError, TrySendError};
use crossbeam::queue::ArrayQueue;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[test]
fn channel_reports_full_then_accepts_after_a_receive() {
    let (tx, rx) = bounded::<u32>(2);
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
    assert_eq!(rx.len(), 2);
    assert_eq!(rx.try_recv(), Ok(1));
    tx.try_send(3).unwrap();
    assert_eq!((rx.recv(), rx.recv()), (Ok(2), Ok(3)));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
}

#[test]
fn channel_delivers_queued_items_before_reporting_disconnect() {
    let (tx, rx) = bounded::<u32>(4);
    let tx2 = tx.clone();
    tx.send(7).unwrap();
    drop(tx);
    // One sender is still alive: an empty channel is only empty.
    assert_eq!(rx.recv(), Ok(7));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    tx2.send(8).unwrap();
    drop(tx2);
    assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(8));
    assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Err(RecvTimeoutError::Disconnected));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
}

#[test]
fn channel_send_fails_once_every_receiver_is_gone() {
    let (tx, rx) = bounded::<u32>(1);
    let rx2 = rx.clone();
    drop(rx);
    tx.send(1).unwrap();
    drop(rx2);
    assert_eq!(tx.send(2).map_err(|e| e.0), Err(2));
    assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
}

#[test]
fn channel_recv_timeout_waits_about_as_long_as_asked() {
    let (_tx, rx) = bounded::<u32>(1);
    let started = Instant::now();
    assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Err(RecvTimeoutError::Timeout));
    assert!(started.elapsed() >= Duration::from_millis(30));
}

#[test]
fn channel_blocked_sender_resumes_when_a_slot_frees() {
    let (tx, rx) = bounded::<u32>(1);
    tx.send(1).unwrap();
    let at_send = Arc::new(Barrier::new(2));
    let gate = Arc::clone(&at_send);
    let sender = std::thread::spawn(move || {
        gate.wait();
        tx.send(2).unwrap();
    });
    // The sender is at (or inside) its blocking send; the receive below is
    // the only thing that can let it finish.
    at_send.wait();
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    sender.join().unwrap();
}

#[test]
fn array_queue_hands_the_value_back_when_full() {
    let q = ArrayQueue::new(2);
    assert!(q.is_empty());
    q.push("a").unwrap();
    q.push("b").unwrap();
    assert!(q.is_full());
    assert_eq!(q.push("c"), Err("c"));
    assert_eq!((q.len(), q.capacity()), (2, 2));
    assert_eq!(q.pop(), Some("a"));
    q.push("c").unwrap();
    assert_eq!((q.pop(), q.pop(), q.pop()), (Some("b"), Some("c"), None));
}

fn frame() -> TupleBatch {
    let mut b = TupleBatch::new(3, Purpose::Join);
    for i in 0..5u64 {
        let values = vec![
            Value::Int(i as i64 - 2),
            Value::Str(format!("payload-{i}")),
            Value::Float(i as f64 / 8.0),
        ];
        b.push(100 + i * 3, Tuple::new(Rel::S, 1_000 + i, values));
    }
    b
}

#[test]
fn bytes_slice_advance_and_copy_to_bytes_round_trip_a_batch_frame() {
    let batch = frame();
    let wire: Bytes = batch.encode().unwrap();

    // Decoding consumes exactly the frame.
    let mut cursor = wire.clone();
    assert_eq!(TupleBatch::decode(&mut cursor).unwrap(), batch);
    assert_eq!(cursor.remaining(), 0);
    assert_eq!(wire.len(), wire.remaining(), "the clone's cursor is its own");

    // A frame embedded in a longer buffer: slice it out, or advance to it.
    let mut padded = vec![0xAAu8; 7];
    padded.extend_from_slice(&wire);
    padded.extend_from_slice(&[0xBB; 3]);
    let padded = Bytes::from(padded);
    let mut sliced = padded.slice(7..7 + wire.len());
    assert_eq!(sliced, wire);
    assert_eq!(TupleBatch::decode(&mut sliced).unwrap(), batch);
    let mut advanced = padded.clone();
    advanced.advance(7);
    let mut taken = advanced.copy_to_bytes(wire.len());
    assert_eq!(advanced.remaining(), 3, "copy_to_bytes moved the cursor past the frame");
    assert_eq!(TupleBatch::decode(&mut taken).unwrap(), batch);

    // Every truncation is an error, never a panic.
    for cut in 0..wire.len() {
        assert!(TupleBatch::decode(&mut wire.slice(..cut)).is_err(), "cut at {cut}");
    }
}

#[test]
fn batch_message_round_trips_through_the_kind_byte() {
    let msg = BatchMessage::Batch(frame());
    let mut wire = msg.encode().unwrap();
    assert_eq!(BatchMessage::decode(&mut wire).unwrap(), msg);
    assert!(!wire.has_remaining());
}
