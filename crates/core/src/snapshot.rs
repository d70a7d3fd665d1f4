//! Epoch-stamped shard snapshots: how queries read a shard that is owned
//! by exactly one worker thread.
//!
//! The worker never shares its live [`crate::InstaMeasure`];
//! instead it *publishes* — at batch boundaries, on demand — an immutable
//! view behind a seqlock-style version stamp:
//!
//! 1. worker bumps the stamp to **odd** (publication in progress),
//! 2. worker swaps the view slot,
//! 3. worker bumps the stamp to the next **even** value, which is also
//!    recorded inside the view itself.
//!
//! Readers load the stamp, read the slot, and re-load the stamp: an odd
//! stamp, a changed stamp, or a view whose embedded stamp disagrees means
//! the read raced a publication — retry (counted, so the torn-read test
//! can prove validation actually fires). The classic seqlock lets readers
//! race the writer over the *raw data* and relies on the re-check to
//! discard torn reads; that is sound for plain-old-data but not for heap
//! structures in Rust (a reader could dereference memory the writer
//! already freed *before* reaching the re-check). Here the slot holds an
//! `Arc`, so memory safety never depends on the stamp — the stamp exists
//! to pair the slot with publication epochs, to detect mixed-epoch reads,
//! and to keep the retry discipline observable. The slot swap itself sits
//! behind a reader/writer lock that only publication (a per-publish, not
//! per-batch, event) takes for writing; the ingest hot path never touches
//! it.
//!
//! Ordering argument: the writer's final `store(even, Release)` happens
//! after the slot swap; a reader that observes that even value with
//! `Acquire` therefore observes the swapped slot, and equality of the
//! before/after loads plus the embedded stamp proves the slot belonged to
//! that publication interval.
//!
//! A [`Mailbox`] carries the other direction: questions readers post for
//! the writer to answer *inside* its next publication. A question stays
//! posted until its reader withdraws it, so every publication from the
//! one that first answers it until the withdrawal carries its answer —
//! a reader that misses one publication finds the answer in the next,
//! and no question is lost.

#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::{Arc, Mutex, RwLock};

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::{Arc, Mutex, RwLock};

/// A published value plus the (even) stamp of its publication.
#[derive(Debug)]
pub struct Stamped<T> {
    /// Seqlock stamp at publication: even, strictly increasing.
    pub stamp: u64,
    /// The published view.
    pub value: T,
}

/// A validated read: shared ownership of one publication. Spelled as an
/// alias so callers compile against whichever `Arc` the slot uses.
pub type SnapshotRef<T> = Arc<Stamped<T>>;

/// One shard's publication slot (see module docs).
#[derive(Debug)]
pub struct SnapshotSlot<T> {
    stamp: AtomicU64,
    slot: RwLock<Arc<Stamped<T>>>,
    /// Test hook: nanoseconds to dawdle inside the odd window, so the
    /// torn-read regression test can force readers into the retry path.
    publish_stall: AtomicU64,
}

impl<T> SnapshotSlot<T> {
    /// Creates the slot holding `initial` at stamp 0.
    #[must_use]
    pub fn new(initial: T) -> Self {
        SnapshotSlot {
            stamp: AtomicU64::new(0),
            slot: RwLock::new(Arc::new(Stamped { stamp: 0, value: initial })),
            publish_stall: AtomicU64::new(0),
        }
    }

    /// Publishes a new view. Single writer only: the owning worker, or
    /// the engine once the worker has exited (serialized by the drain
    /// lock) — never both.
    pub fn publish(&self, value: T) {
        let s0 = self.stamp.load(Ordering::Relaxed);
        self.stamp.store(s0 + 1, Ordering::Release);
        self.stall();
        let next = Arc::new(Stamped { stamp: s0 + 2, value });
        *self.slot.write().unwrap_or_else(std::sync::PoisonError::into_inner) = next;
        self.stall();
        self.stamp.store(s0 + 2, Ordering::Release);
    }

    /// Reads a validated view, returning it plus the number of retries
    /// the seqlock validation forced (0 on a quiet slot).
    pub fn read(&self) -> (SnapshotRef<T>, u64) {
        let mut retries = 0u64;
        loop {
            let s1 = self.stamp.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let view = Arc::clone(
                    &self.slot.read().unwrap_or_else(std::sync::PoisonError::into_inner),
                );
                let s2 = self.stamp.load(Ordering::Acquire);
                if s1 == s2 && view.stamp == s1 {
                    return (view, retries);
                }
            }
            retries += 1;
            spin_hint();
        }
    }

    /// Stamp as of now (odd while a publication is in flight).
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    /// Arms the slow-publication test hook (nanoseconds per odd-window
    /// pause); 0 disarms.
    pub fn set_publish_stall(&self, nanos: u64) {
        self.publish_stall.store(nanos, Ordering::Relaxed);
    }

    fn stall(&self) {
        let nanos = self.publish_stall.load(Ordering::Relaxed);
        if nanos > 0 {
            #[cfg(not(loom))]
            std::thread::sleep(std::time::Duration::from_nanos(nanos));
            #[cfg(loom)]
            loom::thread::yield_now();
        }
    }
}

/// Questions posted to one slot's writer (see module docs): readers
/// [`post`](Mailbox::post) and later [`withdraw`](Mailbox::withdraw);
/// the writer reads what is [`pending`](Mailbox::pending) when it
/// publishes and answers each question in the published view.
#[derive(Debug)]
pub struct Mailbox<Q> {
    next_id: AtomicU64,
    questions: Mutex<Vec<(u64, Q)>>,
}

impl<Q: Clone> Mailbox<Q> {
    /// An empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        Mailbox { next_id: AtomicU64::new(0), questions: Mutex::new(Vec::new()) }
    }

    /// Posts a question, returning its id (unique per mailbox).
    pub fn post(&self, question: Q) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.lock().push((id, question));
        id
    }

    /// Withdraws question `id` once its reader has its answer (or gave
    /// up); later publications stop answering it.
    pub fn withdraw(&self, id: u64) {
        self.lock().retain(|(q, _)| *q != id);
    }

    /// Every posted, unwithdrawn question with its id, oldest first.
    #[must_use]
    pub fn pending(&self) -> Vec<(u64, Q)> {
        self.lock().clone()
    }

    fn lock(&self) -> impl core::ops::DerefMut<Target = Vec<(u64, Q)>> + '_ {
        // Every update is one push or retain, so a poisoned list is
        // still whole.
        self.questions.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<Q: Clone> Default for Mailbox<Q> {
    fn default() -> Self {
        Self::new()
    }
}

fn spin_hint() {
    #[cfg(loom)]
    loom::hint::spin_loop();
    #[cfg(not(loom))]
    std::thread::yield_now();
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn read_returns_latest_publication() {
        let slot = SnapshotSlot::new(0u64);
        let (v, retries) = slot.read();
        assert_eq!((v.stamp, v.value, retries), (0, 0, 0));
        slot.publish(7);
        slot.publish(9);
        let (v, _) = slot.read();
        assert_eq!((v.stamp, v.value), (4, 9));
    }

    #[test]
    fn readers_never_observe_odd_or_mixed_stamps() {
        let slot = std::sync::Arc::new(SnapshotSlot::new((0u64, 0u64)));
        slot.set_publish_stall(50_000); // 50µs odd window
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let slot = std::sync::Arc::clone(&slot);
            let stop = std::sync::Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                let mut retries = 0u64;
                let mut last_stamp = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (v, r) = slot.read();
                    retries += r;
                    assert_eq!(v.stamp & 1, 0, "validated read returned an odd stamp");
                    assert!(v.stamp >= last_stamp, "stamps went backwards");
                    // The two halves are written together; a mixed-epoch
                    // view would expose disagreeing halves.
                    assert_eq!(v.value.0, v.value.1, "mixed-epoch view observed");
                    last_stamp = v.stamp;
                }
                retries
            }));
        }
        for i in 1..=50u64 {
            slot.publish((i, i));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        // With a 50µs odd window and continuous readers, some reads must
        // have hit the window and retried.
        assert!(total > 0, "slow publications never forced a retry");
    }
}
