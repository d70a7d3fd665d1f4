//! Model checks for the two concurrency kernels under `--cfg loom`:
//! the SPSC batch ring ([`instameasure_core::ring`]) and the
//! epoch-stamped snapshot slot ([`instameasure_core::snapshot`]).
//!
//! Built and run only as
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p instameasure-core --test loom_model --release
//! ```
//!
//! which swaps the kernels' atomics and cells for `loom`'s modeled
//! types (the workspace ships a schedule-perturbing shim in `shims/loom`
//! with the same API, so the check runs in the offline container; a
//! real `loom` crate drops in with no source change). Each `model`
//! closure is executed across many explored/perturbed interleavings;
//! assertions hold in all of them.
#![cfg(loom)]

use instameasure_core::ring::{ring, PushError};
use instameasure_core::snapshot::SnapshotSlot;
use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use loom::thread;

/// FIFO transfer: everything pushed is popped exactly once, in order,
/// across every interleaving of producer and consumer.
#[test]
fn ring_transfers_in_order_without_loss() {
    loom::model(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let producer = thread::spawn(move || {
            let mut sent = 0u32;
            while sent < 3 {
                match tx.push(sent) {
                    Ok(()) => sent += 1,
                    Err(PushError::Full(_)) => thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!("consumer never closes here"),
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            match rx.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2], "SPSC ring must be lossless FIFO");
    });
}

/// The close/drain handshake accounts every item to exactly one side:
/// an `Ok` push is always popped by the closing consumer's bounded
/// drain; a `Closed` push never is. No loss, no double count.
#[test]
fn ring_close_handshake_accounts_every_item_exactly_once() {
    loom::model(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let producer = thread::spawn(move || {
            let mut accepted = 0u32;
            for v in 0..2u32 {
                match tx.push(v) {
                    Ok(()) => accepted += 1,
                    Err(PushError::Full(_)) | Err(PushError::Closed(_)) => break,
                }
            }
            accepted
        });
        // Race the close against the pushes, then drain to the bound the
        // handshake published.
        rx.close();
        let mut drained = 0u32;
        while !rx.is_drained() {
            if rx.pop().is_some() {
                drained += 1;
            } else {
                thread::yield_now();
            }
        }
        let accepted = producer.join().unwrap();
        assert_eq!(
            drained, accepted,
            "every Ok push must be drained; every Closed push must not be"
        );
    });
}

/// Producer drop is a close from the other side: the consumer drains
/// exactly what was pushed, then observes `producer_closed`.
#[test]
fn ring_reaps_a_dropped_producer() {
    loom::model(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let producer = thread::spawn(move || {
            let pushed = u32::from(tx.push(7).is_ok());
            drop(tx);
            pushed
        });
        let mut got = 0u32;
        loop {
            if rx.pop().is_some() {
                got += 1;
            } else if rx.producer_closed() {
                // One final sweep: close-then-drain may still find the
                // item published just before the producer flag.
                while rx.pop().is_some() {
                    got += 1;
                }
                break;
            } else {
                thread::yield_now();
            }
        }
        assert_eq!(got, producer.join().unwrap());
    });
}

/// Seqlock snapshot: readers racing a publisher never observe a torn
/// pairing — the stamp in the view always matches the validated stamp,
/// views never go backwards, and the published value is internally
/// consistent (both halves written together).
#[test]
fn snapshot_readers_never_observe_torn_views() {
    loom::model(|| {
        let slot = Arc::new(SnapshotSlot::new((0u64, 0u64)));
        let publisher = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                for g in 1..=2u64 {
                    slot.publish((g, g * 1000));
                }
            })
        };
        let reader = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..3 {
                    let (view, _retries) = slot.read();
                    assert_eq!(view.stamp % 2, 0, "validated stamp must be even");
                    let (g, scaled) = view.value;
                    assert_eq!(scaled, g * 1000, "torn view: halves from different publishes");
                    assert!(g >= last, "validated views must not regress");
                    last = g;
                }
            })
        };
        publisher.join().unwrap();
        reader.join().unwrap();
        let (view, _) = slot.read();
        assert_eq!(view.value, (2, 2000), "final read sees the last publication");
    });
}

/// The engine's freshness protocol in miniature: a version counter is
/// bumped before publishing, and a reader that saw version `v` always
/// obtains a view at least as new as `v` once the publisher is done.
#[test]
fn snapshot_version_handshake_is_monotone() {
    loom::model(|| {
        let ver = Arc::new(AtomicU64::new(0));
        let slot = Arc::new(SnapshotSlot::new(0u64));
        let publisher = {
            let (ver, slot) = (Arc::clone(&ver), Arc::clone(&slot));
            thread::spawn(move || {
                ver.store(1, Ordering::Release);
                slot.publish(1);
            })
        };
        let want = ver.load(Ordering::Acquire);
        loop {
            let (view, _) = slot.read();
            if view.value >= want {
                break;
            }
            thread::yield_now();
        }
        publisher.join().unwrap();
    });
}
