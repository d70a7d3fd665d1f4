//! The network-facing daemon: accept loop, per-connection protocol
//! handlers, and the shutdown/drain choreography.
//!
//! One listener accepts TCP connections; each gets its own handler
//! thread. A connection may mix ingest and query frames freely — taps
//! stream [`crate::wire::Request::IngestBatch`] frames, operators open a
//! second connection for queries, and neither blocks the other: ingest
//! backpressure is per-connection (bounded worker queues block that
//! lane's socket only), and queries read shards one at a time.
//!
//! Robustness rules, each of which the adversarial test suite exercises:
//!
//! * every malformed frame (bad magic, unknown opcode, oversized length
//!   prefix, truncated stream, mismatched payload) yields one classified
//!   error reply where possible, a `service.rejects.<class>` count, and a
//!   closed connection — never a panic;
//! * a peer that goes silent is cut off by the read timeout
//!   ([`ServiceConfig::read_timeout`]) so dead taps cannot pin
//!   connections forever;
//! * a connection that dies mid-batch loses only the frame that did not
//!   arrive completely — decoded records are flushed to the pipeline by
//!   the lane's drop;
//! * [`crate::wire::Request::Shutdown`] stops the accept loop, waits for
//!   peer connections to finish (bounded by
//!   [`ServiceConfig::drain_grace`]), drains the engine, and only then
//!   acks with the final packet-exact [`StatusReport`].

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use instameasure_core::engine::{Engine, EngineConfig, EngineConfigError, IngestLane};
use instameasure_telemetry::{AtomicCell, Counter, Histogram, SharedRegistry};

use crate::detect::{DetectionConfig, DetectionRuntime};
use crate::tune::{TuneRuntime, TuneState};
use crate::wire::{
    frame_wire_len, read_frame, write_frame, Request, Response, StatusReport, WireError,
    DEFAULT_MAX_PAYLOAD, SUBSCRIBE_MASK_ALL,
};

/// Configuration of the daemon. Build via [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral loopback port;
    /// read the bound address back from [`Server::local_addr`]).
    pub addr: String,
    /// Shard geometry and per-shard measurement configuration of the
    /// engine the daemon boots.
    pub engine: EngineConfig,
    /// Ceiling on one frame's payload; larger length prefixes are
    /// rejected before allocation.
    pub max_frame_bytes: u32,
    /// Idle cutoff: a connection with no complete frame for this long is
    /// closed (`service.timeouts` counts them).
    pub read_timeout: Duration,
    /// Maximum simultaneous connections; excess accepts are refused with
    /// a classified error frame.
    pub max_connections: usize,
    /// How long a shutdown waits for other connections to finish before
    /// draining anyway.
    pub drain_grace: Duration,
    /// Streaming anomaly detection (`None` disables it; `Subscribe`
    /// frames are then rejected as `unsupported`).
    pub detect: Option<DetectionConfig>,
    /// Auto-tuning state from a pre-boot solve (`serve --auto-tune`).
    /// `None` rejects [`Request::QueryPlan`] as `unsupported`.
    pub tune: Option<TuneState>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_secs(30),
            max_connections: 64,
            drain_grace: Duration::from_secs(5),
            detect: None,
            tune: None,
        }
    }
}

/// Rejected [`ServiceConfigBuilder`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceConfigError {
    /// The engine geometry failed [`EngineConfig::validate`].
    Engine(EngineConfigError),
    /// `max_frame_bytes` cannot hold even a one-record ingest frame.
    FrameTooSmall {
        /// The rejected value.
        got: u32,
    },
    /// `max_connections` was zero.
    NoConnections,
    /// `read_timeout` was zero (a zero timeout means "block forever" to
    /// the socket layer, which defeats the idle cutoff).
    ZeroReadTimeout,
    /// A detection interval of zero would spin the rotation loop.
    ZeroDetectInterval,
}

impl core::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceConfigError::Engine(e) => e.fmt(f),
            ServiceConfigError::FrameTooSmall { got } => {
                write!(f, "max frame bytes {got} below the one-record minimum")
            }
            ServiceConfigError::NoConnections => {
                write!(f, "need at least one connection slot")
            }
            ServiceConfigError::ZeroReadTimeout => {
                write!(f, "read timeout must be non-zero")
            }
            ServiceConfigError::ZeroDetectInterval => {
                write!(f, "detection interval must be non-zero")
            }
        }
    }
}

impl std::error::Error for ServiceConfigError {}

/// Validating builder for [`ServiceConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the listen address (default `127.0.0.1:0`).
    #[must_use]
    pub fn addr(mut self, addr: &str) -> Self {
        self.cfg.addr = addr.to_string();
        self
    }

    /// Sets the engine geometry and per-shard measurement configuration
    /// (default [`EngineConfig::default`]).
    #[must_use]
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Sets the frame payload ceiling (default 1 MiB).
    #[must_use]
    pub fn max_frame_bytes(mut self, n: u32) -> Self {
        self.cfg.max_frame_bytes = n;
        self
    }

    /// Sets the idle read timeout (default 30 s).
    #[must_use]
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.cfg.read_timeout = t;
        self
    }

    /// Sets the connection-slot ceiling (default 64).
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Sets the shutdown drain grace period (default 5 s).
    #[must_use]
    pub fn drain_grace(mut self, t: Duration) -> Self {
        self.cfg.drain_grace = t;
        self
    }

    /// Enables streaming anomaly detection (default off).
    #[must_use]
    pub fn detect(mut self, detect: DetectionConfig) -> Self {
        self.cfg.detect = Some(detect);
        self
    }

    /// Attaches a pre-boot auto-tuning solve (default off). The caller
    /// remains responsible for booting the engine with the plan's
    /// geometry ([`instameasure_autotune::TunePlan::to_config`] →
    /// [`EngineConfig::per_worker`]); this only arms the live
    /// side: `QueryPlan` service and epoch re-solves.
    #[must_use]
    pub fn auto_tune(mut self, state: TuneState) -> Self {
        self.cfg.tune = Some(state);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceConfigError`] naming the rejected parameter.
    pub fn build(self) -> Result<ServiceConfig, ServiceConfigError> {
        let c = &self.cfg;
        c.engine.validate().map_err(ServiceConfigError::Engine)?;
        let min_frame = 4 + instameasure_packet::PacketRecord::WIRE_BYTES as u32;
        if c.max_frame_bytes < min_frame {
            return Err(ServiceConfigError::FrameTooSmall { got: c.max_frame_bytes });
        }
        if c.max_connections == 0 {
            return Err(ServiceConfigError::NoConnections);
        }
        if c.read_timeout.is_zero() {
            return Err(ServiceConfigError::ZeroReadTimeout);
        }
        if let Some(detect) = &c.detect {
            if detect.interval.is_some_and(|i| i.is_zero()) {
                return Err(ServiceConfigError::ZeroDetectInterval);
            }
        }
        Ok(self.cfg)
    }
}

impl ServiceConfig {
    /// Starts building a validated config from the defaults.
    #[must_use]
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }
}

/// Shared per-server state each handler thread clones.
struct Shared {
    engine: Arc<Engine>,
    detection: Option<Arc<DetectionRuntime>>,
    tune: Option<Arc<TuneRuntime>>,
    registry: Arc<SharedRegistry>,
    stop: AtomicBool,
    active: AtomicUsize,
    final_report: Mutex<Option<StatusReport>>,
    cfg: ServiceConfig,
    conns_opened: Counter<AtomicCell>,
    conns_closed: Counter<AtomicCell>,
    frames_ingest: Counter<AtomicCell>,
    frames_query: Counter<AtomicCell>,
    bytes_rx: Counter<AtomicCell>,
    bytes_tx: Counter<AtomicCell>,
    rejects: Counter<AtomicCell>,
    timeouts: Counter<AtomicCell>,
    query_nanos: Histogram<AtomicCell>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn status(&self) -> StatusReport {
        StatusReport {
            packets_submitted: self.engine.packets_submitted(),
            packets_processed: self.engine.packets_processed(),
            ingest_frames: self.frames_ingest.get(),
            connections: self.conns_opened.get(),
            flows: self.engine.flows(),
            epoch: self.engine.epoch(),
            workers: self.engine.workers() as u32,
        }
    }

    fn count_reject(&self, class: &str) {
        self.rejects.inc();
        self.registry.counter(&format!("service.rejects.{class}")).inc();
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::join`] to wait for a protocol-initiated shutdown, or
/// [`Server::request_stop`] + [`Server::join`] to stop it locally.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
    detect_handle: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, boots the engine and starts accepting.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let registry = Arc::new(SharedRegistry::new());
        let engine = Arc::new(Engine::start(&cfg.engine, Arc::clone(&registry)));
        let tune =
            cfg.tune.clone().map(|state| Arc::new(TuneRuntime::new(state, registry.as_ref())));
        let detection = cfg.detect.as_ref().map(|d| {
            let mut runtime =
                DetectionRuntime::new(Arc::clone(&engine), d.detectors, registry.as_ref());
            if let Some(tuner) = &tune {
                // Detection owns the epoch clock, so it also drives the
                // re-tuner: every closed epoch's observed flow sizes are
                // re-solved against the operator's target.
                runtime = runtime.with_tuner(Arc::clone(tuner));
            }
            Arc::new(runtime)
        });
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            engine,
            detection,
            tune,
            conns_opened: registry.counter("service.connections.opened"),
            conns_closed: registry.counter("service.connections.closed"),
            frames_ingest: registry.counter("service.frames.ingest"),
            frames_query: registry.counter("service.frames.query"),
            bytes_rx: registry.counter("service.bytes.rx"),
            bytes_tx: registry.counter("service.bytes.tx"),
            rejects: registry.counter("service.rejects"),
            timeouts: registry.counter("service.timeouts"),
            query_nanos: registry.histogram("service.query_nanos"),
            registry,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            final_report: Mutex::new(None),
            cfg,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("im-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawning the accept thread");

        // The epoch clock: with a configured interval, detection runs on
        // its own thread; otherwise epochs close on protocol rotates.
        let interval = shared.cfg.detect.as_ref().and_then(|d| d.interval);
        let detect_handle = match (interval, &shared.detection) {
            (Some(every), Some(runtime)) => {
                let runtime = Arc::clone(runtime);
                let stop_shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("im-detect".to_string())
                        .spawn(move || detect_loop(&runtime, &stop_shared, every))
                        .expect("spawning the detection thread"),
                )
            }
            _ => None,
        };

        Ok(Server { shared, addr, accept_handle: Some(accept_handle), detect_handle })
    }

    /// The address the listener actually bound (resolves `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for in-process queries (examples, embedded use).
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// The server's metric registry (`service.*`).
    #[must_use]
    pub fn registry(&self) -> &Arc<SharedRegistry> {
        &self.shared.registry
    }

    /// The streaming detection runtime, when the config enabled one.
    #[must_use]
    pub fn detection(&self) -> Option<&Arc<DetectionRuntime>> {
        self.shared.detection.as_ref()
    }

    /// The auto-tuning runtime, when the config armed one.
    #[must_use]
    pub fn tuner(&self) -> Option<&Arc<TuneRuntime>> {
        self.shared.tune.as_ref()
    }

    /// True once a shutdown (protocol or local) has been requested.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests a local shutdown (equivalent to receiving a
    /// [`Request::Shutdown`] frame, minus the reply).
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for shutdown to complete and returns the final packet-exact
    /// accounting. Blocks until a shutdown is requested via the protocol
    /// or [`Server::request_stop`].
    pub fn join(mut self) -> StatusReport {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.detect_handle.take() {
            let _ = h.join();
        }
        // Wait for handler threads to finish (each is bounded by the
        // read timeout once stop is set).
        while self.shared.active.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(2));
        }
        self.shared.engine.drain();
        let mut report = lock(&self.shared.final_report);
        *report.get_or_insert_with(|| self.shared.status())
    }
}

/// The periodic epoch clock: closes and evaluates an epoch every
/// `every`, checking the stop flag at a finer grain so shutdown is not
/// delayed by a long interval.
fn detect_loop(runtime: &Arc<DetectionRuntime>, shared: &Arc<Shared>, every: Duration) {
    let tick = Duration::from_millis(2).min(every);
    let mut next = Instant::now() + every;
    while !shared.stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < next {
            thread::sleep(tick.min(next - now));
            continue;
        }
        let _ = runtime.run_epoch();
        next += every;
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Alert pushes and query acks are small frames written
                // back-to-back; Nagle + delayed ACK would park the
                // second one for ~40 ms, blowing the detection budget.
                let _ = stream.set_nodelay(true);
                if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
                    shared.count_reject("busy");
                    refuse(stream, shared);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                shared.conns_opened.inc();
                let conn_shared = Arc::clone(shared);
                let spawned = thread::Builder::new().name("im-conn".to_string()).spawn(move || {
                    handle_connection(stream, &conn_shared);
                    conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                    conn_shared.conns_closed.inc();
                });
                if spawned.is_err() {
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                    shared.count_reject("spawn");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Best-effort error reply to a connection refused at the accept stage.
fn refuse(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nonblocking(false);
    let reply = Response::Error {
        class: "busy".to_string(),
        message: format!("connection limit {} reached", shared.cfg.max_connections),
    };
    let frame = reply.encode();
    let _ = write_frame(&mut stream, frame.opcode, &frame.payload);
}

/// Sends one response frame, counting its bytes. Returns false if the
/// peer is unreachable (the handler then closes). The stream mutex is
/// shared with the [`crate::detect::AlertHub`] once the connection
/// subscribes, so replies and alert pushes never interleave mid-frame.
fn send(writer: &Mutex<TcpStream>, shared: &Arc<Shared>, resp: &Response) -> bool {
    let frame = resp.encode();
    let mut stream = lock(writer);
    match write_frame(&mut *stream, frame.opcode, &frame.payload) {
        Ok(()) => {
            shared.bytes_tx.add(frame_wire_len(frame.payload.len()));
            stream.flush().is_ok()
        }
        Err(_) => false,
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets must not inherit the listener's non-blocking mode.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(shared.cfg.read_timeout)).is_err()
    {
        shared.count_reject("io");
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        shared.count_reject("io");
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer = Arc::new(Mutex::new(stream));
    let mut lane: Option<IngestLane> = None;
    let mut sub_id: Option<u64> = None;

    loop {
        let frame = match read_frame(&mut reader, shared.cfg.max_frame_bytes) {
            Ok(None) => break, // clean disconnect at a frame boundary
            Ok(Some(frame)) => {
                shared.bytes_rx.add(frame_wire_len(frame.payload.len()));
                frame
            }
            Err(WireError::Io(e)) if is_timeout(&e) => {
                // An alert subscriber is *supposed* to sit quietly and
                // listen, so the idle cutoff does not apply to it; a
                // dead one is reaped by the hub when a broadcast write
                // fails. Other idle peers: if the server is draining
                // this is the normal way a quiet connection ends;
                // otherwise count and cut it.
                if sub_id.is_some() && !shared.stop.load(Ordering::SeqCst) {
                    continue;
                }
                if !shared.stop.load(Ordering::SeqCst) {
                    shared.timeouts.inc();
                }
                break;
            }
            Err(e) => {
                shared.count_reject(e.class());
                let _ = send(
                    &writer,
                    shared,
                    &Response::Error { class: e.class().to_string(), message: e.to_string() },
                );
                break;
            }
        };
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                shared.count_reject(e.class());
                let _ = send(
                    &writer,
                    shared,
                    &Response::Error { class: e.class().to_string(), message: e.to_string() },
                );
                break;
            }
        };
        if !dispatch(request, &writer, &mut lane, &mut sub_id, shared) {
            break;
        }
    }
    // A closed connection takes its subscription with it.
    if let (Some(id), Some(runtime)) = (sub_id, &shared.detection) {
        runtime.hub().unsubscribe(id);
    }
    // Lane drop flushes partial batches — no decoded record is lost.
}

/// Handles one request; returns false when the connection should close.
fn dispatch(
    request: Request,
    writer: &Arc<Mutex<TcpStream>>,
    lane: &mut Option<IngestLane>,
    sub_id: &mut Option<u64>,
    shared: &Arc<Shared>,
) -> bool {
    match request {
        Request::IngestBatch(records) => {
            shared.frames_ingest.inc();
            if shared.stop.load(Ordering::SeqCst) {
                shared.count_reject("draining");
                let _ = send(
                    writer,
                    shared,
                    &Response::Error {
                        class: "draining".to_string(),
                        message: "daemon is shutting down; ingest is closed".to_string(),
                    },
                );
                return false;
            }
            let open = match lane {
                Some(l) => l,
                None => match shared.engine.lane() {
                    Some(l) => lane.insert(l),
                    None => {
                        shared.count_reject("draining");
                        let _ = send(
                            writer,
                            shared,
                            &Response::Error {
                                class: "draining".to_string(),
                                message: "daemon is shutting down; ingest is closed".to_string(),
                            },
                        );
                        return false;
                    }
                },
            };
            match open.submit(&records) {
                Ok(()) => true,
                Err(e) => {
                    shared.count_reject("draining");
                    let _ = send(
                        writer,
                        shared,
                        &Response::Error { class: "draining".to_string(), message: e.to_string() },
                    );
                    false
                }
            }
        }
        Request::IngestFin => {
            shared.frames_ingest.inc();
            let accepted = match lane {
                Some(l) => match l.flush() {
                    Ok(()) => l.accepted(),
                    Err(e) => {
                        shared.count_reject("draining");
                        let _ = send(
                            writer,
                            shared,
                            &Response::Error {
                                class: "draining".to_string(),
                                message: e.to_string(),
                            },
                        );
                        return false;
                    }
                },
                None => 0,
            };
            send(writer, shared, &Response::FinAck { packets: accepted })
        }
        Request::QueryFlow(key) => {
            let (packets, bytes) = timed_query(shared, || shared.engine.estimate(&key));
            send(writer, shared, &Response::Flow { packets, bytes })
        }
        Request::QueryTopK(k) => {
            let flows = timed_query(shared, || shared.engine.top_k(k as usize));
            send(writer, shared, &Response::TopK(flows))
        }
        Request::QueryStatus => {
            let status = timed_query(shared, || shared.status());
            send(writer, shared, &Response::Status(status))
        }
        Request::QueryTelemetry => {
            let json = timed_query(shared, || shared.engine.full_telemetry().to_json());
            send(writer, shared, &Response::Telemetry(json))
        }
        Request::Rotate => {
            // With detection enabled the rotation routes through the
            // runtime, so the closed epoch is evaluated and alert frames
            // reach subscribers *before* this `Rotated` ack — the e2e
            // battery times onset→alert against exactly that ordering.
            let (epoch, flows_retired) = timed_query(shared, || match &shared.detection {
                Some(runtime) => {
                    let verdict = runtime.run_epoch();
                    (verdict.epoch, verdict.retired)
                }
                None => shared.engine.rotate(),
            });
            send(writer, shared, &Response::Rotated { epoch, flows_retired })
        }
        Request::QueryPlan => {
            let Some(tuner) = &shared.tune else {
                shared.count_reject("unsupported");
                let _ = send(
                    writer,
                    shared,
                    &Response::Error {
                        class: "unsupported".to_string(),
                        message: "auto-tuning is disabled; start the daemon with serve --auto-tune"
                            .to_string(),
                    },
                );
                return false;
            };
            let report = timed_query(shared, || tuner.report());
            send(writer, shared, &Response::Plan(report))
        }
        Request::Subscribe { kinds } => {
            let Some(runtime) = &shared.detection else {
                shared.count_reject("unsupported");
                let _ = send(
                    writer,
                    shared,
                    &Response::Error {
                        class: "unsupported".to_string(),
                        message: "detection is disabled; start the daemon with --detect"
                            .to_string(),
                    },
                );
                return false;
            };
            let kinds = if kinds == 0 { SUBSCRIBE_MASK_ALL } else { kinds };
            if let Some(old) = sub_id.take() {
                runtime.hub().unsubscribe(old);
            }
            *sub_id = Some(runtime.hub().subscribe(Arc::clone(writer), kinds));
            send(writer, shared, &Response::Subscribed { epoch: shared.engine.epoch(), kinds })
        }
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            // Wait (bounded) for the other connections to finish so the
            // drain below sees every lane closed.
            let deadline = Instant::now() + shared.cfg.drain_grace;
            while shared.active.load(Ordering::SeqCst) > 1 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(2));
            }
            shared.engine.drain();
            let status = shared.status();
            *lock(&shared.final_report) = Some(status);
            let _ = send(writer, shared, &Response::Status(status));
            false
        }
    }
}

fn timed_query<T>(shared: &Arc<Shared>, f: impl FnOnce() -> T) -> T {
    shared.frames_query.inc();
    let start = Instant::now();
    let out = f();
    shared.query_nanos.observe(start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_core::InstaMeasureConfig;

    #[test]
    fn builder_validates_every_knob() {
        assert!(ServiceConfig::builder().build().is_ok());
        let engine = EngineConfig { workers: 0, ..EngineConfig::default() };
        let err = ServiceConfig::builder().engine(engine).build().unwrap_err();
        assert_eq!(err, ServiceConfigError::Engine(EngineConfigError::NoWorkers));
        assert_eq!(err.to_string(), EngineConfigError::NoWorkers.to_string());
        assert_eq!(
            ServiceConfig::builder().max_frame_bytes(8).build().unwrap_err(),
            ServiceConfigError::FrameTooSmall { got: 8 }
        );
        assert_eq!(
            ServiceConfig::builder().max_connections(0).build().unwrap_err(),
            ServiceConfigError::NoConnections
        );
        assert_eq!(
            ServiceConfig::builder().read_timeout(Duration::ZERO).build().unwrap_err(),
            ServiceConfigError::ZeroReadTimeout
        );
        let detect = DetectionConfig { interval: Some(Duration::ZERO), ..Default::default() };
        assert_eq!(
            ServiceConfig::builder().detect(detect).build().unwrap_err(),
            ServiceConfigError::ZeroDetectInterval
        );
    }

    #[test]
    fn server_binds_ephemeral_port_and_stops_locally() {
        let cfg = ServiceConfig::builder()
            .engine(EngineConfig {
                workers: 1,
                per_worker: InstaMeasureConfig::default().small_for_tests(),
                ..EngineConfig::default()
            })
            .read_timeout(Duration::from_millis(100))
            .build()
            .unwrap();
        let server = Server::start(cfg).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.request_stop();
        let report = server.join();
        assert_eq!(report.packets_submitted, 0);
        assert_eq!(report.packets_processed, 0);
        assert_eq!(report.workers, 1);
    }
}
