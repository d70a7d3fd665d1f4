//! The shard runtime of paper Fig. 5: thread-per-shard ownership,
//! lock-free ingest, snapshot queries.
//!
//! One runtime serves both deployments, and one [`EngineConfig`]
//! describes both (checked by [`EngineConfig::validate`]). The live
//! daemon boots an [`Engine`] and feeds it from many connections while
//! queries run; the offline pipeline
//! ([`crate::multicore::run_multicore_stream`]) boots the same engine,
//! feeds one lane from its iterator, drains it and takes the shards'
//! final states back from the worker threads. Each shard's
//! [`InstaMeasure`] is owned by exactly one worker thread, so no lock
//! sits on the hot path:
//!
//! * **Thread-per-shard ownership.** Each shard's sketch state is a plain
//!   (unshared) [`InstaMeasure`] owned by one worker thread, optionally
//!   pinned to a CPU ([`EngineConfig::pin`]) so megabytes of regulator
//!   and WSAF arrays stay cache-resident. Flow→shard routing is the
//!   paper's popcount rule ([`worker_for`]), so all packets of a flow
//!   meet one shard.
//! * **SPSC ring ingest.** Each [`IngestLane`] (one per connection, or
//!   one per offline run) holds a bounded [`crate::ring`] pair per shard:
//!   a forward ring carrying filled batches and a return ring carrying
//!   drained buffers back, so the steady state allocates nothing and
//!   neither enqueue nor drain takes a lock. A full ring spins the pusher
//!   (counted in `service.ring.full_stalls`) — the backpressure that
//!   ultimately closes the remote tap's TCP window — unless the lane is
//!   lossy ([`BackpressurePolicy::Drop`]), which drops the batch and
//!   counts its packets instead. Workers discover new lanes through a
//!   mailbox guarded by a mutex plus a generation counter, so the
//!   per-batch path costs one relaxed atomic load, not a lock.
//! * **Epoch-stamped snapshot queries, answered in place.** Queries never
//!   touch live shard state and no worker copies it. On demand (a reader
//!   asks, the worker answers at its next batch boundary) the worker
//!   publishes a small view into a [`crate::snapshot::SnapshotSlot`]: its
//!   version and epoch, a copy of the WSAF's exact top-K index
//!   ([`instameasure_wsaf::TOP_INDEX_K`] records), and its answers — from
//!   live state — to the point-estimate, telemetry and deep top-k
//!   questions readers posted in the shard's
//!   [`crate::snapshot::Mailbox`]. Readers validate the seqlock stamp and
//!   retry on odd/changed values (`service.snapshot.retries`). A rotation
//!   moves the retiring state out of the worker whole and publishes it
//!   once behind an `Arc`; after a drain the worker's last act is
//!   publishing its exact end-of-stream state the same way, so
//!   post-drain queries are bit-identical to an offline replay of the
//!   same per-shard stream.
//! * **Packet-exact accounting.** `service.ingest.packets` counts what
//!   lanes shipped, per-worker counters count what shards processed, and
//!   [`Engine::drain`] proves `submitted == processed`: shutdown closes
//!   every ring through the handshake in [`crate::ring`], so a push
//!   racing the drain is either processed-and-counted or
//!   rejected-and-uncounted (`service.ingest.rejected_packets`), never
//!   lost. A lane flushes its partial batches when dropped, so an
//!   abruptly closed connection loses nothing that was decoded. `drain`
//!   is idempotent; concurrent calls all return the first report.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_telemetry::{
    AtomicCell, Counter, Histogram, Instrumented, LogHistogram, SharedRegistry, Snapshot,
};
pub use instameasure_wsaf::TopFlow;
use instameasure_wsaf::TOP_INDEX_K;

use crate::affinity;
use crate::multicore::worker_for;
use crate::ring::{ring, PushError, RingConsumer, RingProducer};
use crate::snapshot::{Mailbox, SnapshotRef, SnapshotSlot};
use crate::{InstaMeasure, InstaMeasureConfig};

/// Batches a worker drains from one lane before giving others a turn.
const DRAIN_QUANTUM: usize = 8;
/// Idle loop iterations (yields) before a worker parks on its condvar.
const SPIN_ROUNDS: u32 = 64;
/// Parked workers re-check their flags at least this often, so a lost
/// wakeup costs bounded latency, never liveness.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);
/// How long a query waits for its worker's answer before falling back to
/// the newest published view (a stalled worker must not stall reads
/// forever). An idle worker answers in microseconds — the generous
/// bound only matters when the host starves the worker thread outright,
/// where a fallback answer would turn scheduler noise into wrong ones.
const SNAPSHOT_PATIENCE: Duration = Duration::from_secs(2);

/// Largest accepted [`EngineConfig::batch_size`]; beyond this a batch
/// costs more cache than the ring synchronization it amortizes.
pub const MAX_BATCH_SIZE: usize = 65_536;

/// What a lane does when a shard's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Spin until the worker drains (lossless; offline replay and every
    /// daemon connection).
    #[default]
    Block,
    /// Drop the batch and count its packets — how a real tap behaves when
    /// overrun (the paper's mirror port "starts to drop packets when
    /// port capacity is exceeded", §IV-B).
    Drop,
}

/// Geometry of a sharded run (paper Fig. 5): `workers` shards, each with
/// its own measurement memory and a bounded ring of `queue_batches`
/// batches of `batch_size` packets feeding it. The one description of
/// every sharded deployment — the offline drivers in
/// [`crate::multicore`], the daemon and the benches all take it — and
/// [`EngineConfig::validate`] is its one check.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker shard count (the paper evaluates 1–4).
    pub workers: usize,
    /// Packets per dispatch batch, in `1..=`[`MAX_BATCH_SIZE`]. 1
    /// degenerates to per-packet sends; the default 256 amortizes ring
    /// synchronization ~256×.
    pub batch_size: usize,
    /// Per-shard ring capacity in whole batches (rounded up to a power of
    /// two by the ring).
    pub queue_batches: usize,
    /// Pin worker `w` to CPU `w mod available` ([`affinity`]); off by
    /// default because it is an optimization that a best-effort failure
    /// silently skips.
    pub pin: bool,
    /// Per-shard measurement configuration (each shard gets its own
    /// sketch and WSAF of this size).
    pub per_worker: InstaMeasureConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            batch_size: 256,
            queue_batches: 16,
            pin: false,
            per_worker: InstaMeasureConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Checks the geometry; [`Engine::start`] panics with this error's
    /// message on a config that fails it.
    ///
    /// ```
    /// use instameasure_core::engine::{EngineConfig, EngineConfigError};
    ///
    /// assert!(EngineConfig::default().validate().is_ok());
    /// let cfg = EngineConfig { batch_size: 0, ..EngineConfig::default() };
    /// assert_eq!(cfg.validate(), Err(EngineConfigError::BatchSize { got: 0 }));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`EngineConfigError`] naming the first rejected field.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if self.workers == 0 {
            return Err(EngineConfigError::NoWorkers);
        }
        if self.batch_size == 0 || self.batch_size > MAX_BATCH_SIZE {
            return Err(EngineConfigError::BatchSize { got: self.batch_size });
        }
        if self.queue_batches == 0 {
            return Err(EngineConfigError::ZeroQueueBatches);
        }
        Ok(())
    }
}

/// A rejected [`EngineConfig`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineConfigError {
    /// `workers` was zero.
    NoWorkers,
    /// `batch_size` was zero or above [`MAX_BATCH_SIZE`].
    BatchSize {
        /// The rejected value.
        got: usize,
    },
    /// `queue_batches` was zero.
    ZeroQueueBatches,
}

impl core::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineConfigError::NoWorkers => write!(f, "need at least one worker"),
            EngineConfigError::BatchSize { got } => {
                write!(f, "batch size must be in 1..={MAX_BATCH_SIZE}, got {got}")
            }
            EngineConfigError::ZeroQueueBatches => {
                write!(f, "queue must hold at least one batch")
            }
        }
    }
}

impl std::error::Error for EngineConfigError {}

/// The ingest side is closed (the daemon is draining); the submitted
/// records were not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineClosed;

impl core::fmt::Display for EngineClosed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "engine is draining; ingest is closed")
    }
}

impl std::error::Error for EngineClosed {}

/// Final accounting of a drained engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Packets lanes shipped into shard rings over the engine's life.
    pub submitted: u64,
    /// Packets workers fully processed (equals `submitted` after a clean
    /// drain — every ring was drained through the close handshake).
    pub processed: u64,
    /// Per-worker processed counts.
    pub per_worker: Vec<u64>,
}

/// The global top-`k` flows by packets across shards, from each shard's
/// own top-`k` (`candidates`, in any order): merged by packets
/// descending, ties broken by key so the answer does not depend on shard
/// order. Offline ([`crate::multicore::MultiCoreSystem::top_k_by_packets`])
/// and live ([`Engine::top_k`]) rankings both come from here.
pub fn merge_top_k(candidates: impl IntoIterator<Item = TopFlow>, k: usize) -> Vec<TopFlow> {
    let mut all: Vec<TopFlow> = candidates.into_iter().collect();
    all.sort_by(|a, b| b.packets.total_cmp(&a.packets).then_with(|| a.key.cmp(&b.key)));
    all.truncate(k);
    all
}

/// A question a reader posts in its shard's mailbox for the worker to
/// answer from live state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ask {
    /// The flow's `(packets, bytes)` estimate.
    Flow(FlowKey),
    /// The shard's measurement telemetry (`regulator.*`, `wsaf.*`).
    Telemetry,
    /// The shard's top-`k` by packets. Views answer it from their index
    /// records whenever those cover `k`; the worker answers the rest.
    TopK(usize),
}

/// An answer to one [`Ask`].
#[derive(Debug, Clone)]
enum Answer {
    Flow(f64, f64),
    Telemetry(Snapshot),
    TopK(Vec<TopFlow>),
}

/// A published point-in-time view of one shard.
#[derive(Debug)]
struct ShardView {
    /// State version (batches applied, plus two per rotate) at publish.
    ver: u64,
    /// Measurement epoch this view belongs to. A rotation publishes the
    /// *complete* retiring state stamped with the old epoch, then the
    /// fresh state stamped with the new one — so merged queries can
    /// demand one epoch across all shards.
    epoch: u64,
    /// The WSAF's top-K index records at publish: its exact top
    /// `top.len()` flows, in rank order.
    top: Vec<TopFlow>,
    /// WSAF-resident flows at publish (`top` holds all of them when the
    /// two agree).
    resident: usize,
    /// The worker's answers, by question id, to every question posted in
    /// the shard's mailbox at publish.
    answers: Vec<(u64, Arc<Answer>)>,
    /// The complete state this view stands for, when it holds one: a
    /// rotation's retiring state or the post-drain final state. Readers
    /// answer any question from it themselves.
    state: Option<Arc<InstaMeasure>>,
}

impl ShardView {
    /// A view of a whole state that no worker answers for any more.
    fn of_state(ver: u64, epoch: u64, state: Arc<InstaMeasure>) -> Self {
        ShardView {
            ver,
            epoch,
            top: state.wsaf().top_index().collect(),
            resident: state.wsaf().len(),
            answers: Vec::new(),
            state: Some(state),
        }
    }

    /// Answers `ask` from this view alone — from the state it holds, its
    /// index records, or the worker's answer to question `id` — or
    /// `None` when it cannot. Top-k answers that fall off an index count
    /// in `full_scans`.
    fn answer(
        &self,
        ask: &Ask,
        id: Option<u64>,
        full_scans: &Counter<AtomicCell>,
    ) -> Option<Answer> {
        if let Some(im) = &self.state {
            return Some(answer_from(im, ask, full_scans));
        }
        if let Ask::TopK(k) = *ask {
            if k <= self.top.len() || self.top.len() == self.resident {
                return Some(Answer::TopK(self.top.iter().take(k).copied().collect()));
            }
        }
        let id = id?;
        self.answers.iter().find(|(q, _)| *q == id).map(|(_, a)| Answer::clone(a))
    }

    /// The best answer this view gives without its worker: the index
    /// records for a top-k (possibly fewer than asked), a listed flow's
    /// WSAF counters (0 for an unlisted one, the filter residual left
    /// out), and no shard telemetry.
    fn fallback(&self, ask: &Ask) -> Answer {
        match *ask {
            Ask::Flow(key) => {
                let hit = self.top.iter().find(|r| r.key == key);
                hit.map_or(Answer::Flow(0.0, 0.0), |r| Answer::Flow(r.packets, r.bytes))
            }
            Ask::Telemetry => Answer::Telemetry(Snapshot::new()),
            Ask::TopK(k) => Answer::TopK(self.top.iter().take(k).copied().collect()),
        }
    }
}

/// Answers `ask` from a whole shard state.
fn answer_from(im: &InstaMeasure, ask: &Ask, full_scans: &Counter<AtomicCell>) -> Answer {
    match *ask {
        Ask::Flow(key) => {
            let (packets, bytes) = im.estimate(&key);
            Answer::Flow(packets, bytes)
        }
        Ask::Telemetry => Answer::Telemetry(im.telemetry()),
        Ask::TopK(k) => {
            if !im.wsaf().top_k_indexed(k) {
                full_scans.inc();
            }
            Answer::TopK(im.wsaf().top_k_by_packets(k).iter().map(TopFlow::from).collect())
        }
    }
}

/// Worker-side endpoints of one lane's ring pair.
struct LaneRings {
    fwd: RingConsumer<Vec<PacketRecord>>,
    ret: RingProducer<Vec<PacketRecord>>,
}

/// Lane-side endpoints of one lane's ring pair.
struct LanePort {
    fwd: RingProducer<Vec<PacketRecord>>,
    ret: RingConsumer<Vec<PacketRecord>>,
}

/// Control requests a worker handles at a batch boundary.
enum Control {
    /// Swap in `fresh` (built off the worker) and retire the old state.
    Rotate { fresh: InstaMeasure, sync: Arc<RotateSync> },
}

struct RotateSync {
    retired: AtomicU64,
    remaining: AtomicUsize,
    /// The epoch the rotation opens (workers stamp their publications of
    /// the fresh state with it).
    new_epoch: u64,
    /// Each worker parks its complete retiring state in `states[w]` — the
    /// same `Arc` its retiring view publishes — before acking.
    states: Mutex<Vec<Option<Arc<InstaMeasure>>>>,
}

/// What one epoch rotation produced.
#[derive(Debug)]
pub struct RotateOutcome {
    /// The epoch the rotation opened (old epoch + 1).
    pub epoch: u64,
    /// WSAF-resident flows retired across all shards.
    pub retired: u64,
    /// The complete retiring per-shard measurement states, indexed by
    /// shard: the very states the workers retired, shared with the views
    /// that published them.
    pub snapshots: Vec<Arc<InstaMeasure>>,
}

/// Everything shared between one worker thread, the lanes feeding it and
/// the query side. Note what is *not* here: the shard's `InstaMeasure`,
/// which the worker owns outright.
struct Shard {
    /// Hand-off point for newly opened lanes' ring endpoints. Locked by
    /// lane creation and by the worker only when `reg_gen` moves — never
    /// on the per-batch path.
    mailbox: Mutex<Vec<LaneRings>>,
    reg_gen: AtomicU64,
    /// Final-sweep latch: once set (under `mailbox`), no lane may
    /// register here again, which bounds shutdown.
    reg_closed: AtomicBool,
    control: Mutex<Vec<Control>>,
    control_flag: AtomicBool,
    draining: AtomicBool,
    /// Cleared by the worker after its final exact publication, so
    /// queries know the newest view is the end-of-stream truth.
    running: AtomicBool,
    /// Worker is (about to be) blocked on `wake_cv`; producers skip the
    /// notify entirely while this is false, keeping the hot path
    /// lock-free.
    parked: AtomicBool,
    wake: Mutex<bool>,
    wake_cv: Condvar,
    slot: SnapshotSlot<ShardView>,
    /// Batches applied so far (the freshness ruler for snapshot waits).
    ver: AtomicU64,
    /// Bumped by readers that need a fresher view than the slot holds.
    snap_requests: AtomicU64,
    /// Questions for the worker to answer in its next publication.
    questions: Mailbox<Ask>,
    /// WSAF-resident flow count, maintained per batch so `status` polls
    /// never force a publication.
    flows_resident: AtomicU64,
    /// Test hook: nanoseconds the worker dawdles per batch.
    worker_stall: AtomicU64,
    /// Batch-mode shard ([`Engine::start_batch`]): nothing queries it and
    /// its driver takes the final state from the join handle, so it skips
    /// the final publication.
    batch: bool,
    cfg: InstaMeasureConfig,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wakes a shard's worker if (and only if) it is parked.
fn wake(shard: &Shard) {
    if shard.parked.load(Ordering::Relaxed) {
        let mut pending = lock(&shard.wake);
        *pending = true;
        shard.wake_cv.notify_all();
    }
}

/// The shard runtime: shard-owning workers and the lock-free ingest
/// fabric.
pub struct Engine {
    shards: Vec<Arc<Shard>>,
    batch_size: usize,
    queue_batches: usize,
    open: Arc<AtomicBool>,
    handles: Mutex<Vec<thread::JoinHandle<WorkerExit>>>,
    registry: Arc<SharedRegistry>,
    submitted: Counter<AtomicCell>,
    batches: Counter<AtomicCell>,
    batch_fill: Histogram<AtomicCell>,
    ring_occupancy: Histogram<AtomicCell>,
    ring_stalls: Counter<AtomicCell>,
    snap_retries: Counter<AtomicCell>,
    epoch_retries: Counter<AtomicCell>,
    full_scans: Counter<AtomicCell>,
    rejected: Counter<AtomicCell>,
    epoch: AtomicU64,
    drained: Mutex<Option<DrainReport>>,
}

/// What a worker thread returns when it exits.
pub(crate) struct WorkerExit {
    /// Packets the worker processed.
    pub(crate) processed: u64,
    /// Wall time from the worker's start to its exit.
    pub(crate) busy_nanos: u64,
    /// The shard state the worker owned, handed back by batch-mode
    /// shards (a live shard publishes it in its final view instead).
    pub(crate) im: Option<InstaMeasure>,
}

/// Per-worker context moved into the worker thread.
struct WorkerCtx {
    index: usize,
    shard: Arc<Shard>,
    packets_ctr: Counter<AtomicCell>,
    publishes_ctr: Counter<AtomicCell>,
    full_scans_ctr: Counter<AtomicCell>,
    pinned_ctr: Counter<AtomicCell>,
    pin_cpu: Option<usize>,
}

impl Engine {
    /// Boots the engine: builds the shards and spawns the worker threads.
    /// Metrics are registered in `registry` under `service.*`.
    ///
    /// # Panics
    ///
    /// Panics with the [`EngineConfigError`] message if `cfg` fails
    /// [`EngineConfig::validate`].
    #[must_use]
    pub fn start(cfg: &EngineConfig, registry: Arc<SharedRegistry>) -> Self {
        Self::boot(cfg, registry, false)
    }

    /// Boots an engine for one finite run that ends in
    /// [`Engine::into_shards`]: its shards cannot be queried, so they hand
    /// their final state back instead of publishing it.
    pub(crate) fn start_batch(cfg: &EngineConfig, registry: Arc<SharedRegistry>) -> Self {
        Self::boot(cfg, registry, true)
    }

    fn boot(cfg: &EngineConfig, registry: Arc<SharedRegistry>, batch: bool) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }

        let shards: Vec<Arc<Shard>> = (0..cfg.workers)
            .map(|_| {
                Arc::new(Shard {
                    mailbox: Mutex::new(Vec::new()),
                    reg_gen: AtomicU64::new(0),
                    reg_closed: AtomicBool::new(false),
                    control: Mutex::new(Vec::new()),
                    control_flag: AtomicBool::new(false),
                    draining: AtomicBool::new(false),
                    running: AtomicBool::new(true),
                    parked: AtomicBool::new(false),
                    wake: Mutex::new(false),
                    wake_cv: Condvar::new(),
                    slot: SnapshotSlot::new(ShardView {
                        ver: 0,
                        epoch: 0,
                        top: Vec::new(),
                        resident: 0,
                        answers: Vec::new(),
                        state: None,
                    }),
                    ver: AtomicU64::new(0),
                    snap_requests: AtomicU64::new(0),
                    questions: Mailbox::new(),
                    flows_resident: AtomicU64::new(0),
                    worker_stall: AtomicU64::new(0),
                    batch,
                    cfg: cfg.per_worker,
                })
            })
            .collect();

        let submitted = registry.counter("service.ingest.packets");
        let batches = registry.counter("service.ingest.batches");
        let batch_fill = registry.histogram("ingest.batch_fill");
        let ring_occupancy = registry.histogram("service.ring.occupancy");
        let ring_stalls = registry.counter("service.ring.full_stalls");
        let snap_retries = registry.counter("service.snapshot.retries");
        let epoch_retries = registry.counter("service.snapshot.epoch_retries");
        let full_scans = registry.counter("service.snapshot.full_scans");
        let rejected = registry.counter("service.ingest.rejected_packets");
        let publishes = registry.counter("service.snapshot.publishes");
        let pinned = registry.counter("service.workers.pinned");
        registry
            .gauge("hotpath.prefetch_enabled")
            .set(if instameasure_packet::prefetch::prefetch_enabled() { 1.0 } else { 0.0 });
        registry
            .gauge("hotpath.prefetch_distance")
            .set(instameasure_packet::prefetch::prefetch_distance() as f64);
        registry.gauge("hotpath.simd_enabled").set(if instameasure_packet::simd::simd_enabled() {
            1.0
        } else {
            0.0
        });
        for feature in instameasure_packet::simd::cpu_features() {
            registry.gauge(&format!("hotpath.cpu.{feature}")).set(1.0);
        }

        let cpus = affinity::available_cpus();
        // Workers allocate their state in parallel; `start` returns only
        // once every worker runs, so ingest never outpaces a shard whose
        // thread is still starting.
        let live = Arc::new(Barrier::new(cfg.workers + 1));
        let mut handles = Vec::with_capacity(cfg.workers);
        for (w, shard) in shards.iter().enumerate() {
            let ctx = WorkerCtx {
                index: w,
                shard: Arc::clone(shard),
                packets_ctr: registry.counter(&format!("service.worker{w}.packets")),
                publishes_ctr: publishes.clone(),
                full_scans_ctr: full_scans.clone(),
                pinned_ctr: pinned.clone(),
                pin_cpu: cfg.pin.then_some(w % cpus),
            };
            let per_worker = cfg.per_worker;
            let live = Arc::clone(&live);
            handles.push(
                thread::Builder::new()
                    .name(format!("im-shard-{w}"))
                    .spawn(move || {
                        let im = InstaMeasure::new(per_worker);
                        live.wait();
                        worker_loop(&ctx, im)
                    })
                    .expect("spawning a shard worker thread"),
            );
        }
        live.wait();

        Engine {
            shards,
            batch_size: cfg.batch_size,
            queue_batches: cfg.queue_batches,
            open: Arc::new(AtomicBool::new(true)),
            handles: Mutex::new(handles),
            registry,
            submitted,
            batches,
            batch_fill,
            ring_occupancy,
            ring_stalls,
            snap_retries,
            epoch_retries,
            full_scans,
            rejected,
            epoch: AtomicU64::new(0),
            drained: Mutex::new(None),
        }
    }

    /// Opens an ingest lane for one connection, or `None` if the engine
    /// is draining.
    #[must_use]
    pub fn lane(&self) -> Option<IngestLane> {
        self.lane_with(BackpressurePolicy::Block)
    }

    /// Opens a lane whose full rings either spin the pusher
    /// ([`BackpressurePolicy::Block`]) or drop the batch
    /// ([`BackpressurePolicy::Drop`]); `None` if the engine is draining.
    pub(crate) fn lane_with(&self, policy: BackpressurePolicy) -> Option<IngestLane> {
        if !self.open.load(Ordering::SeqCst) {
            return None;
        }
        let workers = self.shards.len();
        let mut ports = Vec::with_capacity(workers);
        let mut endpoints = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (fwd_tx, fwd_rx) = ring::<Vec<PacketRecord>>(self.queue_batches);
            // The return ring holds every buffer that can be in flight.
            let (ret_tx, ret_rx) = ring::<Vec<PacketRecord>>(self.queue_batches + 2);
            ports.push(LanePort { fwd: fwd_tx, ret: ret_rx });
            endpoints.push(LaneRings { fwd: fwd_rx, ret: ret_tx });
        }
        for (shard, ep) in self.shards.iter().zip(endpoints) {
            let mut mb = lock(&shard.mailbox);
            if shard.reg_closed.load(Ordering::SeqCst) {
                // Drain won the race: abort the lane. Endpoints already
                // registered are reaped by their workers once the ports
                // drop (right now, via this early return).
                return None;
            }
            mb.push(ep);
            drop(mb);
            shard.reg_gen.fetch_add(1, Ordering::Release);
            wake(shard);
        }
        Some(IngestLane {
            ports,
            shards: self.shards.clone(),
            open: Arc::clone(&self.open),
            pending: (0..workers).map(|_| Vec::with_capacity(self.batch_size)).collect(),
            batch_size: self.batch_size,
            accepted: 0,
            submitted_ctr: self.submitted.clone(),
            batches_ctr: self.batches.clone(),
            batch_fill: self.batch_fill.clone(),
            ring_occupancy: self.ring_occupancy.clone(),
            ring_stalls: self.ring_stalls.clone(),
            rejected_ctr: self.rejected.clone(),
            shed: (policy == BackpressurePolicy::Drop)
                .then(|| Shed { packets: vec![0; workers], batches: LogHistogram::new() }),
        })
    }

    /// Number of worker shards.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Current measurement epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Packets shipped into shard rings so far.
    #[must_use]
    pub fn packets_submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Packets fully processed by shards so far.
    #[must_use]
    pub fn packets_processed(&self) -> u64 {
        (0..self.shards.len())
            .map(|w| self.registry.counter(&format!("service.worker{w}.packets")).get())
            .sum()
    }

    /// One validated read of shard `w`'s newest view.
    fn read_view(&self, w: usize) -> SnapshotRef<ShardView> {
        let (view, retries) = self.shards[w].slot.read();
        self.snap_retries.add(retries);
        view
    }

    /// Asks shard `w` a question, answered no staler than the shard's
    /// state at call time: from the newest view if it is fresh enough
    /// and can answer alone, else by posting the question and waiting for
    /// a view that answers it. Returns the answering view and the answer.
    ///
    /// A worker that fails to answer within [`SNAPSHOT_PATIENCE`] gets
    /// the newest view's [`ShardView::fallback`] instead of stalling the
    /// query; a shard that has never published is waited out, never
    /// answered from its empty initial view.
    fn ask(&self, w: usize, ask: Ask) -> (SnapshotRef<ShardView>, Answer) {
        let shard = &self.shards[w];
        let want = shard.ver.load(Ordering::Acquire);
        let view = self.read_view(w);
        if view.value.ver >= want {
            if let Some(answer) = view.value.answer(&ask, None, &self.full_scans) {
                return (view, answer);
            }
        }
        let id = shard.questions.post(ask);
        shard.snap_requests.fetch_add(1, Ordering::AcqRel);
        wake(shard);
        let deadline = Instant::now() + SNAPSHOT_PATIENCE;
        let answered = loop {
            let view = self.read_view(w);
            if view.value.ver >= want {
                if let Some(answer) = view.value.answer(&ask, Some(id), &self.full_scans) {
                    break (view, answer);
                }
            }
            if !shard.running.load(Ordering::Acquire) {
                // The worker exited; its final view, which holds the
                // whole state, is ordered before `running := false`.
                let view = self.read_view(w);
                let answer = view
                    .value
                    .answer(&ask, Some(id), &self.full_scans)
                    .expect("a drained shard's view holds its final state");
                break (view, answer);
            }
            // Falling back on deadline is bounded staleness; answering
            // from the never-published initial view would answer "empty"
            // for a shard that holds data. The worker is alive
            // (`running`) and answers within one loop round, so waiting
            // out the first publication terminates.
            if Instant::now() >= deadline && view.value.ver > 0 {
                let answer = view.value.fallback(&ask);
                break (view, answer);
            }
            wake(shard);
            thread::sleep(Duration::from_micros(20));
        };
        shard.questions.withdraw(id);
        answered
    }

    /// Per-flow estimate `(packets, bytes)` answered by the owning shard's
    /// worker from live state — WSAF accumulation plus sketch residual,
    /// the paper's instant query. The key is digested once; both halves of
    /// the answer derive from that single hash ([`InstaMeasure::estimate`]).
    #[must_use]
    pub fn estimate(&self, key: &FlowKey) -> (f64, f64) {
        match self.ask(worker_for(key, self.shards.len()), Ask::Flow(*key)).1 {
            Answer::Flow(packets, bytes) => (packets, bytes),
            other => unreachable!("a flow question answered with {other:?}"),
        }
    }

    /// Merged top-`k` flows by packets across all shards ([`merge_top_k`],
    /// the same merge the offline CLI prints), each shard's top-`k` read
    /// from its published index records (the worker answers deeper
    /// questions). The per-shard answers are epoch-validated *and*
    /// mutually epoch-consistent — a merge racing a rotation sees either
    /// every shard's retiring state or every shard's fresh state, never a
    /// mix. Ingest never pauses.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<TopFlow> {
        let per_shard =
            self.ask_all(Ask::TopK(k)).into_iter().flat_map(|(_, answer)| match answer {
                Answer::TopK(flows) => flows,
                other => unreachable!("a top-k question answered with {other:?}"),
            });
        merge_top_k(per_shard, k)
    }

    /// [`Engine::ask`] of every shard, retried until every answering view
    /// carries the *same* epoch. During a rotation the shards flip to
    /// the new epoch at their own batch boundaries; the handful of
    /// microseconds where they disagree is waited out (counted in
    /// `service.snapshot.epoch_retries`), bounded by the same patience
    /// as single-shard reads — on deadline the freshest mix is served
    /// rather than stalling the caller forever.
    fn ask_all(&self, ask: Ask) -> Vec<(SnapshotRef<ShardView>, Answer)> {
        let deadline = Instant::now() + SNAPSHOT_PATIENCE;
        loop {
            let answers: Vec<_> = (0..self.shards.len()).map(|w| self.ask(w, ask)).collect();
            let epoch0 = answers[0].0.value.epoch;
            if answers.iter().all(|(v, _)| v.value.epoch == epoch0) || Instant::now() >= deadline {
                return answers;
            }
            self.epoch_retries.inc();
            thread::sleep(Duration::from_micros(20));
        }
    }

    /// Distinct flows currently resident across all WSAF shards. Served
    /// from per-batch counters, so status polls cost a few atomic loads,
    /// not a snapshot.
    #[must_use]
    pub fn flows(&self) -> u64 {
        self.shards.iter().map(|s| s.flows_resident.load(Ordering::Acquire)).sum()
    }

    /// Rotates the measurement epoch: every shard starts over from fresh
    /// state and the epoch counter bumps. Returns `(new_epoch,
    /// flows_retired)`. Live shards rotate at a batch boundary inside
    /// their owning worker; packets racing the rotation land entirely in
    /// the old or entirely in the new epoch of their one shard.
    pub fn rotate(&self) -> (u64, u64) {
        let outcome = self.rotate_with_snapshots();
        (outcome.epoch, outcome.retired)
    }

    /// Rotates the epoch and returns every shard's *complete* retiring
    /// measurement state — the per-shard epoch capture streaming
    /// detection consumes. This thread builds each shard's fresh state;
    /// each worker swaps it in at its own rotation boundary and hands the
    /// retired one over whole (moved, never copied), so the captured
    /// shards jointly form exactly the closed epoch.
    pub fn rotate_with_snapshots(&self) -> RotateOutcome {
        // The drain lock serializes rotations, so the epoch arithmetic
        // below is race-free.
        let drained = lock(&self.drained);
        let new_epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let (retired, snapshots) = if drained.is_some() {
            // Workers have exited; the engine is the (sole, serialized by
            // the drain lock) writer now. Retire what the final views
            // hold and publish fresh empty state.
            let mut retired = 0u64;
            let mut snapshots = Vec::with_capacity(self.shards.len());
            for (w, shard) in self.shards.iter().enumerate() {
                let view = self.read_view(w);
                let state =
                    view.value.state.clone().expect("a drained shard's view holds its state");
                retired += state.wsaf().len() as u64;
                snapshots.push(state);
                let ver = shard.ver.fetch_add(1, Ordering::AcqRel) + 1;
                let fresh = Arc::new(InstaMeasure::new(shard.cfg));
                shard.slot.publish(ShardView::of_state(ver, new_epoch, fresh));
                shard.flows_resident.store(0, Ordering::Release);
            }
            (retired, snapshots)
        } else {
            let sync = Arc::new(RotateSync {
                retired: AtomicU64::new(0),
                remaining: AtomicUsize::new(self.shards.len()),
                new_epoch,
                states: Mutex::new((0..self.shards.len()).map(|_| None).collect()),
            });
            for shard in &self.shards {
                let fresh = InstaMeasure::new(shard.cfg);
                lock(&shard.control).push(Control::Rotate { fresh, sync: Arc::clone(&sync) });
                shard.control_flag.store(true, Ordering::Release);
                wake(shard);
            }
            while sync.remaining.load(Ordering::Acquire) > 0 {
                thread::yield_now();
            }
            let snapshots = lock(&sync.states)
                .drain(..)
                .map(|s| s.expect("every worker parks its retired state before acking"))
                .collect();
            (sync.retired.load(Ordering::Acquire), snapshots)
        };
        self.epoch.store(new_epoch, Ordering::Relaxed);
        drop(drained);
        self.registry.gauge("service.epoch").set(new_epoch as f64);
        RotateOutcome { epoch: new_epoch, retired, snapshots }
    }

    /// The service registry (`service.*` metrics) merged with every
    /// shard's measurement telemetry (`regulator.*`, `wsaf.*`), answered
    /// by the workers from epoch-consistent live state.
    #[must_use]
    pub fn full_telemetry(&self) -> Snapshot {
        let shards = self.ask_all(Ask::Telemetry);
        let mut snap = self.registry.snapshot();
        for (_, answer) in shards {
            match answer {
                Answer::Telemetry(shard) => snap.merge(&shard),
                other => unreachable!("a telemetry question answered with {other:?}"),
            }
        }
        snap
    }

    /// Closes ingest, drains every ring and joins the workers, returning
    /// the final accounting. Idempotent and safe to race: later or
    /// concurrent calls return the first call's report. Every batch a
    /// lane successfully shipped is processed and counted — the ring
    /// close handshake resolves pushes racing the drain to exactly one
    /// side — and a lane racing the drain gets [`EngineClosed`] for
    /// anything after.
    pub fn drain(&self) -> DrainReport {
        self.shutdown().0
    }

    /// Drains the engine and hands back what each worker owned, indexed by
    /// shard — the offline driver's exit.
    pub(crate) fn into_shards(self) -> (DrainReport, Vec<WorkerExit>) {
        self.shutdown()
    }

    /// [`Engine::drain`] plus the worker exits, which only the first call
    /// receives.
    fn shutdown(&self) -> (DrainReport, Vec<WorkerExit>) {
        let mut drained = lock(&self.drained);
        if let Some(report) = drained.as_ref() {
            return (report.clone(), Vec::new());
        }
        self.open.store(false, Ordering::SeqCst);
        for shard in &self.shards {
            shard.draining.store(true, Ordering::SeqCst);
            wake(shard);
        }
        let handles: Vec<_> = lock(&self.handles).drain(..).collect();
        let exits: Vec<WorkerExit> =
            handles.into_iter().map(|h| h.join().expect("worker thread must not panic")).collect();
        let per_worker: Vec<u64> = exits.iter().map(|e| e.processed).collect();
        let report = DrainReport {
            submitted: self.submitted.get(),
            processed: per_worker.iter().sum(),
            per_worker,
        };
        *drained = Some(report.clone());
        (report, exits)
    }

    /// Test hook: slow every snapshot publication by `nanos` inside the
    /// odd seqlock window (0 disarms). Lets the torn-read regression test
    /// prove readers retry rather than observe a mixed-epoch view.
    #[doc(hidden)]
    pub fn debug_set_publish_stall(&self, nanos: u64) {
        for shard in &self.shards {
            shard.slot.set_publish_stall(nanos);
        }
    }

    /// Test hook: make every worker dawdle `nanos` per batch (0 disarms),
    /// so tests can hold rings non-empty deterministically.
    #[doc(hidden)]
    pub fn debug_set_worker_stall(&self, nanos: u64) {
        for shard in &self.shards {
            shard.worker_stall.store(nanos, Ordering::Relaxed);
        }
    }

    /// Test hook: the raw seqlock stamp of shard `w`'s snapshot slot.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_snapshot_stamp(&self, w: usize) -> u64 {
        self.shards[w].slot.stamp()
    }

    /// Test hook: one validated snapshot read of shard `w`, returning
    /// `(seqlock stamp, shard version)` of the view. Within one reader
    /// thread both components must be monotone non-decreasing and the
    /// stamp always even — the torn-read regression test hammers this
    /// while publication is artificially slowed.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_shard_view_meta(&self, w: usize) -> (u64, u64) {
        let view = self.read_view(w);
        (view.stamp, view.value.ver)
    }

    /// Test hook: a full copy of drained shard `w`'s final measurement
    /// state, read through the same validated-snapshot path as queries.
    /// The differential suites diff this against an offline replay of
    /// the shard's exact packet stream.
    ///
    /// # Panics
    ///
    /// Panics unless the engine has drained.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_shard_measurement(&self, w: usize) -> InstaMeasure {
        assert!(!self.shards[w].running.load(Ordering::Acquire), "the engine must drain first");
        let view = self.read_view(w);
        InstaMeasure::clone(
            view.value.state.as_ref().expect("a drained shard's view holds its state"),
        )
    }

    /// Test hook: one epoch-consistent merged read, returning the epoch
    /// stamp and WSAF-resident flow count of every shard's view. The
    /// epoch-boundary regression test hammers this against racing
    /// rotations: the epochs must always agree, and the per-shard
    /// states must be all-retiring or all-fresh, never mixed.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_consistent_view(&self) -> Vec<(u64, usize)> {
        self.ask_all(Ask::TopK(0))
            .into_iter()
            .map(|(v, _)| (v.value.epoch, v.value.resident))
            .collect()
    }
}

impl Drop for Engine {
    /// A dropped engine still joins its workers (via the idempotent
    /// drain), so no shard thread outlives the fabric it serves.
    fn drop(&mut self) {
        self.drain();
    }
}

impl Instrumented for Engine {
    fn telemetry(&self) -> Snapshot {
        self.full_telemetry()
    }
}

/// The owning worker: drains its lanes' rings, applies batches to its
/// private `InstaMeasure`, publishes views on request, and exits only
/// after the drain handshake has emptied and closed every ring.
fn worker_loop(ctx: &WorkerCtx, mut im: InstaMeasure) -> WorkerExit {
    let started = Instant::now();
    if let Some(cpu) = ctx.pin_cpu {
        if affinity::pin_current_thread(cpu) {
            ctx.pinned_ctr.inc();
        }
    }
    let shard = &*ctx.shard;
    let mut lanes: Vec<LaneRings> = Vec::new();
    let mut seen_gen = 0u64;
    let mut processed = 0u64;
    let mut served_snaps = 0u64;
    let mut published = Published::default();
    let mut epoch = 0u64;
    let mut idle_rounds = 0u32;

    loop {
        let mut busy = false;

        // Absorb newly registered lanes; one relaxed-ish load when quiet.
        let gen = shard.reg_gen.load(Ordering::Acquire);
        if gen != seen_gen {
            lanes.extend(lock(&shard.mailbox).drain(..));
            seen_gen = gen;
            busy = true;
        }

        // Drain a bounded quantum per lane (fairness across connections),
        // then reap lanes whose producer side is gone.
        lanes.retain_mut(|lane| {
            for _ in 0..DRAIN_QUANTUM {
                match lane.fwd.pop() {
                    Some(batch) => {
                        busy = true;
                        process_one(shard, &mut im, &batch, &mut processed, &ctx.packets_ctr);
                        recycle(lane, batch);
                    }
                    None => break,
                }
            }
            !(lane.fwd.producer_closed() && lane.fwd.is_drained())
        });

        // Control requests (epoch rotation) land at batch boundaries.
        if shard.control_flag.swap(false, Ordering::AcqRel) {
            busy = true;
            let pending: Vec<Control> = lock(&shard.control).drain(..).collect();
            for ctl in pending {
                match ctl {
                    Control::Rotate { fresh, sync } => {
                        let retired = Arc::new(std::mem::replace(&mut im, fresh));
                        sync.retired.fetch_add(retired.wsaf().len() as u64, Ordering::AcqRel);
                        // Publish the *complete* retiring state, stamped
                        // with the closing epoch, before the fresh one.
                        // Queries racing the rotation (their freshness
                        // `want` was captured pre-rotate) are satisfied
                        // by this view instead of the fresh empty one.
                        let ver = shard.ver.fetch_add(1, Ordering::Release) + 1;
                        shard.slot.publish(ShardView::of_state(ver, epoch, Arc::clone(&retired)));
                        ctx.publishes_ctr.inc();
                        // The rotating thread takes this reference, so the
                        // retired state is freed there, not here.
                        lock(&sync.states)[ctx.index] = Some(retired);
                        epoch = sync.new_epoch;
                        shard.flows_resident.store(0, Ordering::Release);
                        shard.ver.fetch_add(1, Ordering::Release);
                        // Answers given before the swap belong to the old
                        // epoch; the fresh view answers everything anew.
                        published = Published::default();
                        publish(ctx, &mut im, epoch, &mut published);
                        sync.remaining.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
        }

        // Publish a view if any reader asked since the last one.
        let want = shard.snap_requests.load(Ordering::Acquire);
        if want != served_snaps {
            publish(ctx, &mut im, epoch, &mut published);
            served_snaps = want;
        }

        if busy {
            idle_rounds = 0;
            continue;
        }

        if shard.draining.load(Ordering::Acquire) {
            final_sweep(shard, &mut im, &mut lanes, &mut processed, &ctx.packets_ctr);
            // The last act before `running := false` is publishing the
            // exact end-of-stream state, whole; queries re-read after
            // observing the flag, so post-drain answers are bit-exact.
            let im = if shard.batch {
                Some(im)
            } else {
                let ver = shard.ver.fetch_add(1, Ordering::Release) + 1;
                shard.slot.publish(ShardView::of_state(ver, epoch, Arc::new(im)));
                ctx.publishes_ctr.inc();
                None
            };
            shard.running.store(false, Ordering::Release);
            let busy_nanos = started.elapsed().as_nanos() as u64;
            return WorkerExit { processed, busy_nanos, im };
        }

        idle_rounds += 1;
        if idle_rounds < SPIN_ROUNDS {
            thread::yield_now();
        } else {
            park(shard);
        }
    }
}

/// Applies one batch to the worker's private state and maintains the
/// shard's version/occupancy counters.
fn process_one(
    shard: &Shard,
    im: &mut InstaMeasure,
    batch: &[PacketRecord],
    processed: &mut u64,
    packets_ctr: &Counter<AtomicCell>,
) {
    let stall = shard.worker_stall.load(Ordering::Relaxed);
    if stall > 0 {
        thread::sleep(Duration::from_nanos(stall));
    }
    if batch.is_empty() {
        return;
    }
    im.process_batch(batch);
    *processed += batch.len() as u64;
    packets_ctr.add(batch.len() as u64);
    shard.flows_resident.store(im.wsaf().len() as u64, Ordering::Release);
    shard.ver.fetch_add(1, Ordering::Release);
}

/// Hands a drained buffer back through the return ring; if the lane is
/// gone or the ring full, the allocation just drops.
fn recycle(lane: &mut LaneRings, mut batch: Vec<PacketRecord>) {
    batch.clear();
    let _ = lane.ret.push(batch);
}

/// What the worker's newest live-state publication carried.
#[derive(Default)]
struct Published {
    ver: u64,
    answers: Vec<(u64, Arc<Answer>)>,
}

/// Publishes a view of the live state — version, epoch, the WSAF's top-K
/// index records and answers to every posted question — unless the
/// newest publication already carries the same version and answers
/// (idle polls publish nothing). Answers to questions still posted are
/// carried over, not recomputed; top-k questions the index records
/// cover need no answer of their own.
fn publish(ctx: &WorkerCtx, im: &mut InstaMeasure, epoch: u64, published: &mut Published) {
    let shard = &*ctx.shard;
    let ver = shard.ver.load(Ordering::Acquire);
    let mut fresh = false;
    let mut answers = Vec::new();
    for (id, ask) in shard.questions.pending() {
        if let Some((_, answer)) = published.answers.iter().find(|(q, _)| *q == id) {
            answers.push((id, Arc::clone(answer)));
            continue;
        }
        if let Ask::TopK(k) = ask {
            if im.wsaf().top_k_indexed(k) {
                continue;
            }
            if k <= TOP_INDEX_K {
                // One full scan refills the index, so this and later
                // questions of this depth read the published records.
                ctx.full_scans_ctr.inc();
                im.rebuild_top_index();
                fresh = true;
                continue;
            }
        }
        fresh = true;
        answers.push((id, Arc::new(answer_from(im, &ask, &ctx.full_scans_ctr))));
    }
    if ver == published.ver && !fresh {
        return;
    }
    shard.slot.publish(ShardView {
        ver,
        epoch,
        top: im.wsaf().top_index().collect(),
        resident: im.wsaf().len(),
        answers: answers.clone(),
        state: None,
    });
    *published = Published { ver, answers };
    ctx.publishes_ctr.inc();
}

/// Shutdown sweep: latch registration closed, then empty and close every
/// ring through the handshake in [`crate::ring`]. After this returns, no
/// packet is in flight for this shard anywhere.
fn final_sweep(
    shard: &Shard,
    im: &mut InstaMeasure,
    lanes: &mut Vec<LaneRings>,
    processed: &mut u64,
    packets_ctr: &Counter<AtomicCell>,
) {
    let stragglers: Vec<LaneRings> = {
        let mut mb = lock(&shard.mailbox);
        // Under the mailbox lock: every racing `Engine::lane()` either
        // registered before this (absorbed below) or observes the latch
        // and aborts. Registration is therefore finished for good.
        shard.reg_closed.store(true, Ordering::SeqCst);
        mb.drain(..).collect()
    };
    lanes.extend(stragglers);
    for lane in lanes.iter_mut() {
        while let Some(batch) = lane.fwd.pop() {
            process_one(shard, im, &batch, processed, packets_ctr);
            recycle(lane, batch);
        }
        lane.fwd.close();
        // The close bound admits at most the one racing push; drain it.
        while let Some(batch) = lane.fwd.pop() {
            process_one(shard, im, &batch, processed, packets_ctr);
            recycle(lane, batch);
        }
    }
    lanes.clear();
}

/// Parks the worker until a producer, control request or timeout wakes
/// it. The `parked` flag keeps producers off the mutex while the worker
/// runs; the timeout turns any lost wakeup into bounded latency.
fn park(shard: &Shard) {
    shard.parked.store(true, Ordering::SeqCst);
    {
        let mut pending = lock(&shard.wake);
        if !*pending {
            let (guard, _timeout) = shard
                .wake_cv
                .wait_timeout(pending, PARK_TIMEOUT)
                .unwrap_or_else(PoisonError::into_inner);
            pending = guard;
        }
        *pending = false;
    }
    shard.parked.store(false, Ordering::SeqCst);
}

/// One connection's private ingest path: per-shard batch buffers plus the
/// producing ends of the per-shard ring pairs. Dropping a lane flushes
/// its partial batches, so every decoded record is delivered exactly once
/// even when the connection dies mid-stream.
pub struct IngestLane {
    ports: Vec<LanePort>,
    shards: Vec<Arc<Shard>>,
    open: Arc<AtomicBool>,
    pending: Vec<Vec<PacketRecord>>,
    batch_size: usize,
    accepted: u64,
    submitted_ctr: Counter<AtomicCell>,
    batches_ctr: Counter<AtomicCell>,
    batch_fill: Histogram<AtomicCell>,
    ring_occupancy: Histogram<AtomicCell>,
    ring_stalls: Counter<AtomicCell>,
    rejected_ctr: Counter<AtomicCell>,
    /// `Some` on a lossy lane ([`BackpressurePolicy::Drop`]).
    shed: Option<Shed>,
}

/// What a lossy lane dropped at full rings.
#[derive(Debug)]
pub(crate) struct Shed {
    /// Packets dropped, per shard.
    pub(crate) packets: Vec<u64>,
    /// Sizes of the dropped batches.
    pub(crate) batches: LogHistogram,
}

impl IngestLane {
    /// Routes a decoded batch into the per-shard buffers, shipping every
    /// buffer that fills. Spins (with yields) when a shard ring is full —
    /// that is the backpressure propagating to the socket.
    ///
    /// # Errors
    ///
    /// Returns [`EngineClosed`] if the engine drained underneath the
    /// lane; records of the failed call are not counted as accepted.
    pub fn submit(&mut self, records: &[PacketRecord]) -> Result<(), EngineClosed> {
        for pkt in records {
            self.push(*pkt)?;
        }
        self.accepted += records.len() as u64;
        Ok(())
    }

    /// Routes one record into its shard's buffer, shipping the buffer if
    /// it fills. Not counted in [`IngestLane::accepted`].
    #[inline]
    pub(crate) fn push(&mut self, pkt: PacketRecord) -> Result<(), EngineClosed> {
        let w = worker_for(&pkt.key, self.ports.len());
        self.pending[w].push(pkt);
        if self.pending[w].len() == self.batch_size {
            self.ship(w)?;
        }
        Ok(())
    }

    /// Batches waiting in this lane's forward rings (racy by nature).
    pub(crate) fn queued_batches(&self) -> usize {
        self.ports.iter().map(|p| p.fwd.len()).sum()
    }

    /// Non-empty partial batches a [`IngestLane::flush`] would ship.
    pub(crate) fn partial_batches(&self) -> u64 {
        self.pending.iter().filter(|b| !b.is_empty()).count() as u64
    }

    /// What this lane dropped so far; `None` unless it is lossy.
    pub(crate) fn shed(&self) -> Option<&Shed> {
        self.shed.as_ref()
    }

    /// Ships every non-empty partial buffer (end-of-stream flush).
    ///
    /// # Errors
    ///
    /// Returns [`EngineClosed`] if the engine drained underneath the lane.
    pub fn flush(&mut self) -> Result<(), EngineClosed> {
        for w in 0..self.ports.len() {
            if !self.pending[w].is_empty() {
                self.ship(w)?;
            }
        }
        Ok(())
    }

    /// Packets accepted on this lane so far (what the fin-ack reports).
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    fn ship(&mut self, w: usize) -> Result<(), EngineClosed> {
        if !self.open.load(Ordering::SeqCst) {
            // Fail fast while draining; the records of this batch are
            // rejected (counted, never half-processed).
            let n = self.pending[w].len() as u64;
            self.pending[w].clear();
            self.rejected_ctr.add(n);
            return Err(EngineClosed);
        }
        let full = std::mem::take(&mut self.pending[w]);
        let n = full.len() as u64;
        let mut item = full;
        let mut stalled = false;
        loop {
            match self.ports[w].fwd.push(item) {
                Ok(()) => {
                    self.submitted_ctr.add(n);
                    self.batches_ctr.inc();
                    self.batch_fill.observe(n);
                    self.ring_occupancy.observe(self.ports[w].fwd.len() as u64);
                    wake(&self.shards[w]);
                    // Reuse a drained buffer if one came back.
                    self.pending[w] = self.ports[w]
                        .ret
                        .pop()
                        .unwrap_or_else(|| Vec::with_capacity(self.batch_size));
                    return Ok(());
                }
                Err(PushError::Full(mut back)) => {
                    if let Some(shed) = self.shed.as_mut() {
                        // Lossy lane: a mirror-port overrun loses the
                        // burst, counted packet-exactly; the buffer is
                        // reused. The yield hands the core to the lagging
                        // worker, so an oversubscribed host cannot starve
                        // it into dropping everything.
                        shed.packets[w] += n;
                        shed.batches.observe(n);
                        back.clear();
                        self.pending[w] = back;
                        thread::yield_now();
                        return Ok(());
                    }
                    if !stalled {
                        self.ring_stalls.inc();
                        stalled = true;
                    }
                    wake(&self.shards[w]);
                    thread::yield_now();
                    item = back;
                }
                Err(PushError::Closed(back)) => {
                    // Engine drained mid-push. Either the buffer came
                    // back (never entered the ring) or it is orphaned
                    // past the close bound; both mean "not processed".
                    let mut buf = back.unwrap_or_default();
                    buf.clear();
                    self.pending[w] = buf;
                    self.rejected_ctr.add(n);
                    return Err(EngineClosed);
                }
            }
        }
    }
}

impl Drop for IngestLane {
    /// Flush-on-drop: an abruptly closed connection still delivers every
    /// record that was decoded from complete frames. Dropping the ports
    /// marks the rings producer-closed, so the worker reaps them.
    fn drop(&mut self) {
        let _ = self.flush();
        for shard in &self.shards {
            wake(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [9, 9, 9, 9], 40000, 443, Protocol::Tcp)
    }

    fn records(n: u64, flows: u32) -> Vec<PacketRecord> {
        (0..n).map(|t| PacketRecord::new(key(t as u32 % flows), 100, t)).collect()
    }

    fn test_engine(workers: usize) -> Engine {
        let cfg = EngineConfig {
            workers,
            batch_size: 64,
            queue_batches: 4,
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        };
        Engine::start(&cfg, Arc::new(SharedRegistry::new()))
    }

    #[test]
    fn validate_rejects_each_bad_field_with_its_message() {
        let base = EngineConfig::default();
        assert_eq!(base.validate(), Ok(()));
        let too_big = MAX_BATCH_SIZE + 1;
        for (cfg, err, text) in [
            (
                EngineConfig { workers: 0, ..base },
                EngineConfigError::NoWorkers,
                "need at least one worker".to_string(),
            ),
            (
                EngineConfig { batch_size: 0, ..base },
                EngineConfigError::BatchSize { got: 0 },
                format!("batch size must be in 1..={MAX_BATCH_SIZE}, got 0"),
            ),
            (
                EngineConfig { batch_size: too_big, ..base },
                EngineConfigError::BatchSize { got: too_big },
                format!("batch size must be in 1..={MAX_BATCH_SIZE}, got {too_big}"),
            ),
            (
                EngineConfig { queue_batches: 0, ..base },
                EngineConfigError::ZeroQueueBatches,
                "queue must hold at least one batch".to_string(),
            ),
        ] {
            assert_eq!(cfg.validate(), Err(err));
            assert_eq!(err.to_string(), text);
        }
    }

    #[test]
    fn submit_flush_drain_accounts_for_every_packet() {
        let engine = test_engine(3);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(10_007, 91)).unwrap();
        lane.flush().unwrap();
        assert_eq!(lane.accepted(), 10_007);
        drop(lane);
        let report = engine.drain();
        assert_eq!(report.submitted, 10_007);
        assert_eq!(report.processed, 10_007);
        assert_eq!(report.per_worker.iter().sum::<u64>(), 10_007);
    }

    #[test]
    fn dropped_lane_flushes_partials() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        // 10 packets with batch_size 64: nothing ships until the drop.
        lane.submit(&records(10, 10)).unwrap();
        drop(lane);
        let report = engine.drain();
        assert_eq!(report.processed, 10);
    }

    #[test]
    fn estimates_match_offline_single_core_when_one_worker() {
        let recs = records(30_000, 50);
        let engine = test_engine(1);
        let mut lane = engine.lane().unwrap();
        lane.submit(&recs).unwrap();
        drop(lane);
        engine.drain();

        let mut offline = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for r in &recs {
            offline.process(r);
        }
        for i in 0..50 {
            let (pkts, _) = engine.estimate(&key(i));
            let want = offline.estimate_packets(&key(i));
            assert!((pkts - want).abs() < 1e-12, "flow {i}: {pkts} vs {want}");
        }
    }

    #[test]
    fn top_k_merges_across_shards() {
        let engine = test_engine(4);
        let mut lane = engine.lane().unwrap();
        // Eight heavy flows of strictly decreasing size; all are large
        // enough to saturate the regulator and land in the WSAF, and
        // popcount sharding spreads them over several shards.
        let mut recs = Vec::new();
        let mut t = 0u64;
        for i in 0..8u32 {
            for _ in 0..(40_000 - 4_000 * u64::from(i)) {
                recs.push(PacketRecord::new(key(i + 1), 700, t));
                t += 1;
            }
        }
        lane.submit(&recs).unwrap();
        drop(lane);
        engine.drain();
        let top = engine.top_k(5);
        assert_eq!(top.len(), 5, "all heavy flows must be WSAF-resident");
        assert_eq!(top[0].key, key(1));
        assert!(top[0].packets > top[1].packets);
        for w in top.windows(2) {
            assert!(w[0].packets >= w[1].packets, "top-k must be sorted");
        }
    }

    #[test]
    fn top_k_reads_the_index_and_scans_only_past_it() {
        // 3000 flows of 200 packets each: most saturate the small
        // regulator into the one shard's WSAF, more than the index holds.
        let engine = test_engine(1);
        let mut lane = engine.lane().unwrap();
        let recs: Vec<PacketRecord> =
            (0..600_000u64).map(|t| PacketRecord::new(key(t as u32 % 3000), 100, t)).collect();
        lane.submit(&recs).unwrap();
        lane.flush().unwrap();
        while engine.packets_processed() < recs.len() as u64 {
            thread::yield_now();
        }
        let mut offline = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        offline.process_batch(&recs);
        assert!(offline.wsaf().len() > TOP_INDEX_K + 1, "the shard must outgrow its index");
        let scans = || engine.full_telemetry().counter("service.snapshot.full_scans");
        let expect = |k: usize| -> Vec<TopFlow> {
            merge_top_k(offline.wsaf().top_k_by_packets(k).iter().map(TopFlow::from), k)
        };

        assert_eq!(engine.top_k(TOP_INDEX_K), expect(TOP_INDEX_K), "from the index");
        assert_eq!(engine.top_k(10), expect(10));
        assert_eq!(scans(), Some(0), "the index covers k <= TOP_INDEX_K");
        assert_eq!(engine.top_k(TOP_INDEX_K + 1), expect(TOP_INDEX_K + 1), "from a scan");
        assert_eq!(scans(), Some(1), "one full scan past the index");
        drop(lane);
        engine.drain();
        // The final view holds the whole state; the same rule applies.
        assert_eq!(engine.top_k(TOP_INDEX_K + 1), expect(TOP_INDEX_K + 1));
        assert_eq!(scans(), Some(2));
    }

    #[test]
    fn queries_work_while_ingest_runs() {
        let engine = Arc::new(test_engine(2));
        let e2 = Arc::clone(&engine);
        let pusher = thread::spawn(move || {
            let mut lane = e2.lane().unwrap();
            for chunk in records(200_000, 128).chunks(1000) {
                lane.submit(chunk).unwrap();
            }
            lane.flush().unwrap();
        });
        // Interleave queries with the live ingest.
        for _ in 0..50 {
            let _ = engine.top_k(5);
            let _ = engine.estimate(&key(3));
            let _ = engine.flows();
        }
        pusher.join().unwrap();
        let report = engine.drain();
        assert_eq!(report.submitted, 200_000);
        assert_eq!(report.processed, 200_000);
    }

    #[test]
    fn rotate_resets_shards_and_bumps_epoch() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(50_000, 40)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        engine.drain();
        let resident = engine.flows();
        assert!(resident > 0, "elephants must be resident before rotate");
        let (epoch, retired) = engine.rotate();
        assert_eq!(epoch, 1);
        assert_eq!(retired, resident);
        assert_eq!(engine.flows(), 0);
        let (pkts, bytes) = engine.estimate(&key(1));
        assert_eq!((pkts, bytes), (0.0, 0.0));
    }

    #[test]
    fn rotate_while_live_resets_at_batch_boundary() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(50_000, 40)).unwrap();
        lane.flush().unwrap();
        // Quiesce (processed == submitted) without draining.
        while engine.packets_processed() < 50_000 {
            thread::yield_now();
        }
        assert!(engine.flows() > 0);
        let (epoch, retired) = engine.rotate();
        assert_eq!(epoch, 1);
        assert!(retired > 0, "live rotate must retire resident flows");
        assert_eq!(engine.flows(), 0);
        // The engine is still ingesting after a live rotate.
        lane.submit(&records(1_000, 8)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        let report = engine.drain();
        assert_eq!(report.submitted, 51_000);
        assert_eq!(report.processed, 51_000);
    }

    #[test]
    fn rotate_with_snapshots_captures_the_complete_closed_epoch() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(50_000, 40)).unwrap();
        lane.flush().unwrap();
        while engine.packets_processed() < 50_000 {
            thread::yield_now();
        }
        let resident = engine.flows();
        assert!(resident > 0, "elephants must be resident before rotate");
        let outcome = engine.rotate_with_snapshots();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.snapshots.len(), 2, "one capture per shard");
        let captured: u64 = outcome.snapshots.iter().map(|im| im.wsaf().len() as u64).sum();
        assert_eq!(captured, resident, "captures hold the complete retiring epoch");
        assert_eq!(outcome.retired, resident);
        assert_eq!(engine.flows(), 0, "live state was reset");
        drop(lane);
        engine.drain();
        // The drained path (engine as sole writer) snapshots too.
        let outcome = engine.rotate_with_snapshots();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.snapshots.len(), 2);
        assert_eq!(outcome.retired, 0, "nothing resident after the first rotate");
    }

    #[test]
    fn hot_path_telemetry_is_surfaced() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(1_000, 16)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        engine.drain();
        let snap = engine.full_telemetry();
        let fill = snap.histogram("ingest.batch_fill").unwrap();
        assert_eq!(fill.sum, 1_000, "every shipped packet lands in one fill bucket");
        assert_eq!(fill.count, snap.counter("service.ingest.batches").unwrap());
        let occupancy = snap.histogram("service.ring.occupancy").unwrap();
        assert_eq!(occupancy.count, fill.count, "every ship observes ring occupancy");
        let expected = if instameasure_packet::prefetch::prefetch_enabled() { 1.0 } else { 0.0 };
        assert_eq!(snap.gauge("hotpath.prefetch_enabled"), Some(expected));
        assert_eq!(
            snap.gauge("hotpath.prefetch_distance"),
            Some(instameasure_packet::prefetch::prefetch_distance() as f64)
        );
        let expected_simd = if instameasure_packet::simd::simd_enabled() { 1.0 } else { 0.0 };
        assert_eq!(snap.gauge("hotpath.simd_enabled"), Some(expected_simd));
        for feature in instameasure_packet::simd::cpu_features() {
            assert_eq!(snap.gauge(&format!("hotpath.cpu.{feature}")), Some(1.0));
        }
    }

    #[test]
    fn drain_closes_ingest_and_is_idempotent() {
        let engine = test_engine(2);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(100, 7)).unwrap();
        drop(lane);
        let a = engine.drain();
        let b = engine.drain();
        assert_eq!(a, b);
        assert!(engine.lane().is_none(), "no lanes after drain");
    }

    #[test]
    fn double_shutdown_with_nonempty_rings_drains_packet_exactly() {
        let engine = Arc::new(test_engine(2));
        // Dawdle per batch so rings are still populated when the drain
        // lands mid-stream.
        engine.debug_set_worker_stall(200_000);
        let mut lane = engine.lane().unwrap();
        lane.submit(&records(20_000, 64)).unwrap();
        lane.flush().unwrap();
        drop(lane);
        // Two concurrent shutdowns must agree on one packet-exact report.
        let e2 = Arc::clone(&engine);
        let racer = thread::spawn(move || e2.drain());
        let a = engine.drain();
        let b = racer.join().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.submitted, 20_000);
        assert_eq!(a.processed, 20_000, "nonempty rings must drain before workers exit");
        // Nothing the lane shipped was silently dropped.
        let snap = engine.full_telemetry();
        assert_eq!(snap.counter("service.ingest.rejected_packets").unwrap_or(0), 0);
        // A third shutdown still returns the same report.
        assert_eq!(engine.drain(), a);
    }

    #[test]
    fn submit_after_drain_is_classified_and_counted() {
        let engine = test_engine(1);
        let mut lane = engine.lane().unwrap();
        engine.drain();
        let err = lane.submit(&records(256, 1)).unwrap_err();
        assert_eq!(err, EngineClosed);
        // The rejected batch shows up in telemetry, not in thin air.
        let snap = engine.full_telemetry();
        assert!(snap.counter("service.ingest.rejected_packets").unwrap_or(0) > 0);
        assert_eq!(engine.packets_submitted(), engine.packets_processed());
    }
}
