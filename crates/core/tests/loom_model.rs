//! Model checks for the concurrency kernels under `--cfg loom`: the SPSC
//! batch ring ([`instameasure_core::ring`]), the epoch-stamped snapshot
//! slot and the question mailbox beside it
//! ([`instameasure_core::snapshot`]).
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
use instameasure_core::snapshot::{Mailbox, SnapshotSlot};
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

/// The engine's question protocol in miniature: a reader captures its
/// freshness floor `want`, posts a question and bumps the request
/// counter; the worker, which keeps applying batches (bumping the
/// version), drains the mailbox whenever the counter moves and publishes
/// one view answering every pending question, carrying earlier answers
/// forward as the engine does. Every validated view the reader accepts
/// answers its question at a version `>= want`, and the question is never
/// lost: the reader always finds its answer.
#[test]
fn mailbox_questions_are_answered_in_fresh_views_and_never_lost() {
    loom::model(|| {
        let ver = Arc::new(AtomicU64::new(0));
        let requests = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let mailbox = Arc::new(Mailbox::<u64>::new());
        // A view: (version, [(question id, (answer, version answered at))]).
        type View = (u64, Vec<(u64, (u64, u64))>);
        let slot = Arc::new(SnapshotSlot::<View>::new((0, Vec::new())));

        let worker = {
            let (ver, requests, done) =
                (Arc::clone(&ver), Arc::clone(&requests), Arc::clone(&done));
            let (mailbox, slot) = (Arc::clone(&mailbox), Arc::clone(&slot));
            thread::spawn(move || {
                let mut served = 0u64;
                let mut answered: Vec<(u64, (u64, u64))> = Vec::new();
                let mut batches = 0u64;
                while done.load(Ordering::Acquire) == 0 {
                    if batches < 2 {
                        batches += 1;
                        ver.fetch_add(1, Ordering::Release);
                    }
                    let want = requests.load(Ordering::Acquire);
                    if want != served {
                        let v = ver.load(Ordering::Acquire);
                        answered = mailbox
                            .pending()
                            .into_iter()
                            .map(|(id, q)| match answered.iter().find(|(a, _)| *a == id) {
                                Some(&carried) => carried,
                                None => (id, (q * 10, v)),
                            })
                            .collect();
                        slot.publish((v, answered.clone()));
                        served = want;
                    }
                    thread::yield_now();
                }
            })
        };

        let want = ver.load(Ordering::Acquire);
        let id = mailbox.post(7);
        requests.fetch_add(1, Ordering::AcqRel);
        let mut answer = None;
        for _ in 0..100_000 {
            let (view, _) = slot.read();
            let (v, answers) = &view.value;
            if *v >= want {
                if let Some(&(_, (a, at))) = answers.iter().find(|(q, _)| *q == id) {
                    assert!(at >= want, "answered at version {at}, below the floor {want}");
                    assert!(at <= *v, "a view carries an answer from its future");
                    answer = Some(a);
                    break;
                }
            }
            thread::yield_now();
        }
        mailbox.withdraw(id);
        done.store(1, Ordering::Release);
        worker.join().unwrap();
        assert_eq!(answer, Some(70), "the posted question was lost");
        assert!(mailbox.pending().is_empty(), "withdrawn questions stay gone");
    });
}
