//! The event-driven serving core: epoll reactors, lock-free shard
//! queues, no per-connection threads.
//!
//! [`serve_reactor`] is the daemon's TCP front end: one non-blocking
//! event loop over the vendored `mio` shim serving every connection
//! (the other front, [`crate::server::serve`], pumps one stdin stream).
//! [`serve_reactors`] scales it out: N independent reactor threads,
//! each with its own `SO_REUSEPORT` listener (the kernel spreads
//! incoming connections across them) and its own submit/receive lane
//! ([`EngineLane`]) over one shared shard pool.
//!
//! * **Accept** — each listener is polled for readiness; accepted
//!   sockets get `TCP_NODELAY`. Connections beyond the reactor's share
//!   of the global `--max-conns` budget are refused with one protocol
//!   error line, half-closed, and drained of input until the peer
//!   closes or [`REFUSAL_LINGER`] passes — never queued, and never
//!   reset under the refusal line by unread input.
//! * **Read** — socket reads land in one reactor-owned chunk and are
//!   appended to the connection's buffer until a newline; complete
//!   lines are parsed (see [`proto::parse_command`]) and dispatched into the
//!   [`ShardedEngine`]'s per-shard FIFO queues, tagged with a token that
//!   packs `(connection slot, per-connection seq)` into the envelope's
//!   `u64`; on a lane, the lane id rides the top byte (see
//!   [`crate::shard::LANE_SHIFT`]) so workers route each answer batch
//!   back to the reactor that submitted it. No lock is ever taken on
//!   the request path — a reactor is its lane's single producer, each
//!   shard worker its single consumer.
//! * **Dispatch** — batches are sized adaptively by the observed
//!   arrival rate: an EWMA of requests-per-pass sets the submit
//!   threshold, so a sparse trickle dispatches immediately (no
//!   full-batch latency tax) while a loaded reactor grows batches
//!   toward [`DISPATCH_BATCH_MAX`] to amortize channel traffic.
//!   Splitting a pass into several submissions preserves parse order,
//!   hence per-tenant FIFO order.
//! * **Wake** — workers signal finished batches through a poll
//!   [`Waker`] (an `eventfd`), so responses interrupt the blocked
//!   reactor immediately instead of riding the next I/O event. The
//!   completion path is batched end to end: a worker sends **one**
//!   channel message carrying every answer of a dispatched batch and
//!   rings the submitting lane's waker **once** per batch.
//! * **Write** — each connection owns one contiguous egress buffer.
//!   An answer that is next in line order is rendered straight into it
//!   ([`proto::render_response_into`]); only an answer that arrives
//!   ahead of an earlier one waits, as bytes, until the gap closes, so
//!   a connection's answers always leave in line order, exactly as the
//!   stdin front writes them. Each readiness pass drains the buffer
//!   with one `write` — one syscall covers however many responses
//!   accumulated. Write interest is registered only while a backlog
//!   exists.
//!
//! Backpressure is per connection and two-sided: a connection pauses
//! (drops read interest) while it has [`HIGH_WATER`] requests in flight
//! or an unflushed write backlog beyond [`WRITE_BACKLOG_HIGH`] bytes,
//! and resumes below the low-water marks. A slow or dead reader
//! therefore throttles only itself; the shard queues stay bounded.
//!
//! Telemetry ([`crate::telemetry`]) rides the loop at **one monotonic
//! clock read per poll iteration**: the pass tick, taken right after
//! `poll` returns (so blocked time is never charged to a request),
//! stamps every accept, read, parse, and respond event of the pass.
//! The one deliberate exception is flush completion — when traced
//! responses fully leave with a pass's write calls, one extra read
//! closes their flush/total intervals. Flush completion is stamped
//! against a *cumulative* egress offset, so a response retried after
//! `EWOULDBLOCK` is recorded exactly once: when its last byte leaves
//! the socket, never when a partial write merely advances the buffer.
//! With telemetry off ([`ReactorOptions::telemetry`] = false) no clock
//! is read at all and verdict populations are bit-identical either way.
//!
//! Ordering and determinism are inherited from [`crate::shard`]: a
//! tenant's requests stay in submission order (they enter one FIFO in
//! line order and tenants hash to exactly one shard), so each
//! connection's answers are byte-identical to the same script served
//! through the in-process stdin front ([`crate::server::serve`]), and
//! verdict populations are invariant to the shard count, the
//! connection fan-out, *and* the reactor count — pinned by the parity
//! suite in `tests/proto_torture.rs`.
//!
//! Graceful shutdown ([`Shutdown::request`], wired to stdin EOF by the
//! daemon) wakes every reactor: each closes its listener so nothing new
//! connects, keeps serving what already-connected clients have sent,
//! and exits once everything is quiet — nothing in flight, every answer
//! flushed, no buffered complete line unparsed — bounded by
//! [`DRAIN_GRACE`]. Only after every reactor has exited is the pool
//! shut down; journal appends are fsynced as they happen, so an orderly
//! stop loses no accepted delta.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Registry, Token, Waker};
use rts_analysis::semi::CarryInStrategy;

use crate::engine::{Request, Response};
use crate::journal::JournalDir;
use crate::proto::{self, Command, ConnStats, ReactorStats};
use crate::server::{oversized_reason, MAX_LINE_BYTES};
use crate::shard::{
    EngineLane, ResponseMeta, ResponseNotifier, ShardReport, ShardSnapshot, ShardedEngine,
};
use crate::telemetry::{SlowRequest, Stage, Telemetry};

/// The listener's poll token.
const LISTENER: Token = Token(0);
/// The waker's poll token (worker completions and shutdown requests).
const WAKER: Token = Token(1);
/// Connection slot `i` polls as `Token(CONN_BASE + i)`.
const CONN_BASE: usize = 2;

/// Envelope-token split: the low 40 bits carry the per-connection line
/// sequence, the next 16 the connection slot, and the top byte is left
/// free for the lane id a multi-reactor submit stamps in
/// ([`crate::shard::LANE_SHIFT`]). 2^40 lines per connection and 2^16
/// simultaneous slots per reactor are both far beyond reach.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
const SLOT_BITS: u32 = 16;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Hard per-reactor slot bound implied by the token split.
const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// Requests a connection may have in flight before it stops being read.
const HIGH_WATER: u64 = 1024;
/// In-flight level at which a paused connection resumes reading.
const LOW_WATER: u64 = 256;
/// Unflushed response bytes at which a connection stops being read.
const WRITE_BACKLOG_HIGH: usize = 1 << 20;
/// Bytes read from one socket per readiness event before yielding to
/// other connections (level-triggered polling re-delivers the rest).
const READ_BUDGET: usize = 1 << 20;
/// Size of the reactor's one read chunk (each `read` call's ceiling).
const READ_CHUNK: usize = 64 * 1024;
/// Egress capacity a connection keeps once its buffer has drained; a
/// burst beyond it is given back instead of pinned for the
/// connection's lifetime.
const EGRESS_RETAIN: usize = 64 * 1024;
/// How long a draining reactor waits for in-flight answers to flush.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Ceiling of the adaptive dispatch threshold: under sustained load a
/// pass submits to the shards every this-many parsed requests.
const DISPATCH_BATCH_MAX: usize = 512;
/// Smoothing factor of the arrivals-per-pass EWMA that sets the
/// dispatch threshold (≈ converges over the last ~10 passes).
const ARRIVAL_EWMA_ALPHA: f64 = 0.2;

/// How long a refused connection is drained before it is closed.
const REFUSAL_LINGER: Duration = Duration::from_secs(1);

/// Sends an over-cap connection its bounded error line and half-closes
/// it. The reactor then reads and discards until the peer's EOF,
/// bounded by [`REFUSAL_LINGER`], before it closes the socket: closing
/// with unread input makes the kernel answer with a reset, which can
/// destroy the refusal line before the peer reads it. The socket is
/// non-blocking, so the write is best effort — one small write into an
/// empty send buffer.
fn send_refusal(mut stream: &TcpStream, max_conns: usize) {
    let mut line = Vec::with_capacity(96);
    proto::render_response_into(
        &mut line,
        0,
        &Response::Error {
            tenant: 0,
            reason: format!("server at its connection cap ({max_conns}); retry later"),
        },
    );
    line.push(b'\n');
    let _ = stream.write_all(&line);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Cross-thread shutdown request for running [`serve_reactor`] /
/// [`serve_reactors`] loops.
///
/// The daemon arms one of these against stdin EOF; tests call
/// [`Shutdown::request`] directly. Requesting is idempotent and may
/// happen before the reactors start (they then drain immediately).
#[derive(Debug, Default)]
pub struct Shutdown {
    requested: AtomicBool,
    wakers: Mutex<Vec<Arc<Waker>>>,
}

impl Shutdown {
    /// A fresh, un-requested shutdown handle.
    #[must_use]
    pub fn new() -> Arc<Shutdown> {
        Arc::new(Shutdown::default())
    }

    /// Asks every installed reactor to drain and exit; returns
    /// immediately.
    pub fn request(&self) {
        self.requested.store(true, Ordering::Release);
        let wakers = self.wakers.lock().expect("shutdown waker lock poisoned");
        for waker in wakers.iter() {
            let _ = waker.wake();
        }
    }

    /// Whether a shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Installs one reactor's waker so a later `request` interrupts its
    /// poll; re-signals if the request already happened (the race is a
    /// request arriving between reactor startup and this install).
    fn install(&self, waker: Arc<Waker>) {
        self.wakers
            .lock()
            .expect("shutdown waker lock poisoned")
            .push(Arc::clone(&waker));
        if self.is_requested() {
            let _ = waker.wake();
        }
    }
}

/// Configuration of one [`serve_reactor`] / [`serve_reactors`] run. The
/// reactor owns its engine pool, so it is built from this spec rather
/// than passed in.
#[derive(Clone, Debug)]
pub struct ReactorOptions {
    /// Carry-in strategy for every shard's engine.
    pub strategy: CarryInStrategy,
    /// Worker shard count (at least one).
    pub shards: usize,
    /// Optional per-tenant journal persistence (replayed on startup).
    pub journal: Option<JournalDir>,
    /// Simultaneous-connection cap; connections beyond it are refused
    /// with a protocol error line. Under [`serve_reactors`] this is a
    /// *global* budget split evenly across the reactors (give each
    /// reactor at least one slot: `max_conns >= reactors` is sane).
    pub max_conns: usize,
    /// Stage-latency telemetry (on by default). When off, the reactor
    /// takes zero clock reads on the hot path and every record call is
    /// one predictable branch — the ≤2 % overhead budget's floor.
    pub telemetry: bool,
}

impl ReactorOptions {
    /// Options with no journal and the daemon's default connection cap.
    #[must_use]
    pub fn new(strategy: CarryInStrategy, shards: usize) -> Self {
        ReactorOptions {
            strategy,
            shards,
            journal: None,
            max_conns: 64,
            telemetry: true,
        }
    }
}

/// Totals of one [`serve_reactor`] / [`serve_reactors`] run (summed
/// across reactors in the multi-reactor case).
#[derive(Debug)]
pub struct ReactorSummary {
    /// Protocol lines received (including unparsable ones).
    pub requests: u64,
    /// Response lines queued to live connections in order.
    pub responses: u64,
    /// Responses with `verdict:"error"` due to unparsable lines.
    pub parse_errors: u64,
    /// Connections accepted over the run.
    pub accepted_conns: u64,
    /// Connections refused over the cap.
    pub refused_conns: u64,
    /// Per-shard reports from the pool shutdown.
    pub reports: Vec<ShardReport>,
}

/// One reactor thread's counting totals, merged into a
/// [`ReactorSummary`] once every reactor of a run has exited.
#[derive(Debug, Default)]
struct ReactorRun {
    requests: u64,
    responses: u64,
    parse_errors: u64,
    accepted_conns: u64,
    refused_conns: u64,
}

impl ReactorRun {
    fn absorb(&mut self, other: &ReactorRun) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.parse_errors += other.parse_errors;
        self.accepted_conns += other.accepted_conns;
        self.refused_conns += other.refused_conns;
    }

    fn into_summary(self, reports: Vec<ShardReport>) -> ReactorSummary {
        ReactorSummary {
            requests: self.requests,
            responses: self.responses,
            parse_errors: self.parse_errors,
            accepted_conns: self.accepted_conns,
            refused_conns: self.refused_conns,
            reports,
        }
    }
}

/// One reactor's published gauges, readable by every sibling so any
/// connection's `stats`/`metrics` answer covers the whole front. All
/// loads/stores are relaxed — monitoring, not synchronization — and the
/// owner batches its updates once per pass.
#[derive(Debug)]
struct ReactorGauges {
    live: AtomicUsize,
    refused: AtomicU64,
    /// This reactor's share of the global connection budget (fixed).
    max: usize,
    flush_passes: AtomicU64,
    iovecs_written: AtomicU64,
}

impl ReactorGauges {
    fn with_max(max: usize) -> ReactorGauges {
        ReactorGauges {
            live: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
            max,
            flush_passes: AtomicU64::new(0),
            iovecs_written: AtomicU64::new(0),
        }
    }
}

/// A reactor's view of the shard pool: the single-reactor loop owns the
/// pool outright; each multi-reactor loop shares it and submits/receives
/// on its private [`EngineLane`].
enum Pool {
    Owned(ShardedEngine),
    Shared {
        shared: Arc<ShardedEngine>,
        lane: EngineLane,
    },
}

impl Pool {
    fn install_notifier(&self, notifier: ResponseNotifier) {
        match self {
            Pool::Owned(pool) => pool.install_notifier(notifier),
            Pool::Shared { lane, .. } => lane.notify().install(notifier),
        }
    }

    fn submit_batch_traced(&mut self, batch: Vec<(u64, Request, u64)>, submit_ns: u64) {
        match self {
            Pool::Owned(pool) => pool.submit_batch_traced(batch, submit_ns),
            Pool::Shared { lane, .. } => lane.submit_batch_traced(batch, submit_ns),
        }
    }

    fn try_recv_traced(&mut self) -> Option<(u64, Response, ResponseMeta)> {
        match self {
            Pool::Owned(pool) => pool.try_recv_traced(),
            Pool::Shared { lane, .. } => lane.try_recv_traced(),
        }
    }

    /// Requests this reactor has submitted and not yet received (other
    /// lanes' traffic is theirs to drain).
    fn in_flight(&self) -> usize {
        match self {
            Pool::Owned(pool) => pool.in_flight(),
            Pool::Shared { lane, .. } => lane.in_flight(),
        }
    }

    fn snapshots(&self) -> Vec<ShardSnapshot> {
        match self {
            Pool::Owned(pool) => pool.snapshots(),
            Pool::Shared { shared, .. } => shared.snapshots(),
        }
    }

    fn metrics_report(
        &self,
        conns: ConnStats,
        reactors: Vec<ReactorStats>,
    ) -> proto::MetricsReport {
        match self {
            Pool::Owned(pool) => pool.metrics_report(conns, reactors),
            Pool::Shared { shared, .. } => shared.metrics_report(conns, reactors),
        }
    }
}

/// `(tenant, worker stamps)` of a traced engine response; stats,
/// metrics and error lines carry none (they never enter a shard queue,
/// so they have no lifecycle to trace).
type Trace = Option<(u64, ResponseMeta)>;

/// A rendered answer (newline included) that arrived ahead of its
/// in-order turn.
struct PendingLine {
    bytes: Vec<u8>,
    trace: Trace,
}

/// A traced response whose bytes sit in a connection's egress buffer:
/// once the cumulative flushed offset covers `end`, the request's flush
/// and total stages are known and the slow ring gets its entry.
struct FlushTag {
    /// Cumulative egress offset (total bytes ever queued to this
    /// connection) at which this response's bytes end. Absolute, so a
    /// partial write never moves it and the stage is stamped exactly
    /// once — when the last byte actually leaves.
    end: u64,
    tenant: u64,
    seq: u64,
    meta: ResponseMeta,
    /// Pass tick at which the line entered the response queue.
    respond_ns: u64,
}

/// One live connection's state in the reactor.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed (partial line at the front).
    read_buf: Vec<u8>,
    /// Inside an oversized line: discard until the next newline, then
    /// answer a bounded error (mirrors the blocking reader's resync).
    skipping: bool,
    /// Sequence number of the next line this connection sends.
    next_seq: u64,
    /// Sequence number whose answer is written next (per-connection
    /// answers go out strictly in line order).
    next_write: u64,
    /// Rendered answers that arrived ahead of `next_write`.
    pending: BTreeMap<u64, PendingLine>,
    /// In-order response lines not yet written to the socket.
    egress: Vec<u8>,
    /// Response lines with at least one byte in `egress`.
    egress_lines: u64,
    /// Cumulative bytes flushed to the socket over the connection's
    /// lifetime (the offset space [`FlushTag::end`] lives in).
    sent: u64,
    /// Pass tick at accept time (start of the accept stage).
    accept_ns: u64,
    /// Accept stage recorded (once, on the first bytes received).
    accept_done: bool,
    /// Pass tick at which the oldest unconsumed bytes arrived — the
    /// start of every request parsed out of the current buffer.
    read_ns: u64,
    /// Traced responses in `egress`, in line order.
    flush_tags: VecDeque<FlushTag>,
    /// Requests dispatched to the pool and not yet answered. The slot
    /// (and its envelope token) stays reserved until this reaches zero,
    /// even after the socket dies.
    in_flight: u64,
    /// EOF (or fatal read error) seen; no further lines.
    read_closed: bool,
    /// Socket unusable; pending answers are dropped, the slot lingers
    /// only until `in_flight` drains.
    dead: bool,
    /// Read interest withdrawn until in-flight/backlog recede.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Option<Interest>,
    /// Set on a refused connection: it has been sent the refusal line
    /// and half-closed, and is read only to discard input until EOF or
    /// this deadline. It holds a slot but is not counted live.
    refusing: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, accept_ns: u64) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            skipping: false,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            egress: Vec::new(),
            egress_lines: 0,
            sent: 0,
            accept_ns,
            accept_done: false,
            read_ns: 0,
            flush_tags: VecDeque::new(),
            in_flight: 0,
            read_closed: false,
            dead: false,
            paused: false,
            interest: None,
            refusing: None,
        }
    }

    fn write_backlog(&self) -> usize {
        self.egress.len()
    }

    /// Drops every queued byte and tag (the socket is gone; nobody will
    /// read them).
    fn clear_egress(&mut self) {
        self.pending.clear();
        self.egress.clear();
        self.egress_lines = 0;
        self.flush_tags.clear();
    }

    /// Hands answer `seq` to the connection: rendered straight into the
    /// egress buffer when it is the next answer owed (followed by any
    /// parked answers that were waiting on it), otherwise parked in
    /// `pending`. Returns the lines that entered the egress buffer.
    fn deliver(
        &mut self,
        seq: u64,
        trace: Trace,
        telemetry: &Telemetry,
        pass_ns: u64,
        render: impl FnOnce(&mut Vec<u8>),
    ) -> u64 {
        if seq != self.next_write {
            let mut bytes = Vec::new();
            render(&mut bytes);
            bytes.push(b'\n');
            self.pending.insert(seq, PendingLine { bytes, trace });
            return 0;
        }
        render(&mut self.egress);
        self.egress.push(b'\n');
        self.queued(trace, telemetry, pass_ns);
        let mut lines = 1;
        while let Some(parked) = self.pending.remove(&self.next_write) {
            self.egress.extend_from_slice(&parked.bytes);
            self.queued(parked.trace, telemetry, pass_ns);
            lines += 1;
        }
        lines
    }

    /// Books the line just appended to `egress` as answer `next_write`:
    /// a traced answer records its respond stage and gets a flush tag.
    fn queued(&mut self, trace: Trace, telemetry: &Telemetry, pass_ns: u64) {
        if let Some((tenant, meta)) = trace {
            telemetry.record_stage(Stage::Respond, pass_ns.saturating_sub(meta.solved_ns));
            self.flush_tags.push_back(FlushTag {
                end: self.sent + self.egress.len() as u64,
                tenant,
                seq: self.next_write,
                meta,
                respond_ns: pass_ns,
            });
        }
        self.next_write += 1;
        self.egress_lines += 1;
    }

    /// Two-sided pause with hysteresis, so a connection at the
    /// high-water mark does not flap interest on every single response.
    fn refresh_pause(&mut self) {
        if self.paused {
            if self.in_flight <= LOW_WATER && self.write_backlog() < WRITE_BACKLOG_HIGH / 2 {
                self.paused = false;
            }
        } else if self.in_flight >= HIGH_WATER || self.write_backlog() >= WRITE_BACKLOG_HIGH {
            self.paused = true;
        }
    }

    /// The slot can be released: nothing in flight and either the
    /// socket is gone or everything was answered and flushed.
    fn finished(&self) -> bool {
        self.in_flight == 0
            && (self.dead
                || (self.read_closed && self.pending.is_empty() && self.write_backlog() == 0))
    }
}

struct Reactor {
    registry: Registry,
    pool: Pool,
    telemetry: Arc<Telemetry>,
    /// The pass tick: one monotonic clock read taken right after each
    /// `poll` return and reused for every event stamp in the pass (the
    /// one-read-per-iteration discipline; 0 with telemetry off).
    pass_ns: u64,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    /// Refused connections' `(deadline, slot)`, oldest first.
    lingering: VecDeque<(Instant, usize)>,
    /// The one buffer every socket read lands in.
    read_chunk: Vec<u8>,
    /// This reactor's share of the connection budget.
    max_conns: usize,
    /// The whole front's budget (what refusal lines and the `conns`
    /// gauge report).
    global_max: usize,
    /// This reactor's index into `gauges`.
    reactor_id: usize,
    /// Every reactor's published gauges, this one's included.
    gauges: Arc<Vec<ReactorGauges>>,
    draining: bool,
    /// Arrivals-per-pass EWMA driving the adaptive dispatch threshold.
    /// Starts at 1 (dispatch immediately) and grows under load.
    arrival_ewma: f64,
    /// Engine requests parsed so far in the current pass.
    pass_arrivals: u64,
    requests: u64,
    responses: u64,
    parse_errors: u64,
    accepted_conns: u64,
    refused_conns: u64,
    /// Egress write syscalls issued (the per-reactor metric).
    flush_passes: u64,
    /// Response lines submitted across those syscalls (a line split by
    /// a short write counts once per call it is part of).
    iovecs_written: u64,
}

impl Reactor {
    /// Publishes this reactor's gauges for siblings (and its own next
    /// `stats` answer) to read.
    fn sync_gauges(&self) {
        let gauges = &self.gauges[self.reactor_id];
        gauges.live.store(self.live, Ordering::Relaxed);
        gauges.refused.store(self.refused_conns, Ordering::Relaxed);
        gauges
            .flush_passes
            .store(self.flush_passes, Ordering::Relaxed);
        gauges
            .iovecs_written
            .store(self.iovecs_written, Ordering::Relaxed);
    }

    /// A point-in-time view over *every* reactor of the front, own
    /// gauges synced first: the per-reactor entries plus the summed
    /// connection gauges, for the `stats`/`metrics` verbs.
    fn observability(&self) -> (ConnStats, Vec<ReactorStats>) {
        self.sync_gauges();
        let reactors: Vec<ReactorStats> = self
            .gauges
            .iter()
            .enumerate()
            .map(|(reactor, g)| ReactorStats {
                reactor,
                live: g.live.load(Ordering::Relaxed),
                refused: g.refused.load(Ordering::Relaxed),
                max: g.max,
                flush_passes: g.flush_passes.load(Ordering::Relaxed),
                iovecs_written: g.iovecs_written.load(Ordering::Relaxed),
            })
            .collect();
        let conns = ConnStats {
            live: reactors.iter().map(|r| r.live).sum(),
            refused: reactors.iter().map(|r| r.refused).sum(),
            max: self.global_max,
        };
        (conns, reactors)
    }

    /// Accepts until the listener would block, refusing over the cap.
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if self.live >= self.max_conns {
                        self.refused_conns += 1;
                        self.refuse(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.claim_slot();
                    self.live += 1;
                    self.accepted_conns += 1;
                    let mut conn = Conn::new(stream, self.pass_ns);
                    self.update_interest(idx, &mut conn);
                    self.conns[idx] = Some(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
    }

    fn claim_slot(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        })
    }

    /// Sends an over-cap connection the refusal line, half-closes it and
    /// parks it in a refusing slot that discards input until the peer
    /// closes or [`REFUSAL_LINGER`] passes (see [`send_refusal`]). With
    /// no slot to spare it is closed at once.
    fn refuse(&mut self, stream: TcpStream) {
        send_refusal(&stream, self.global_max);
        if self.free.is_empty() && self.conns.len() >= MAX_SLOTS - CONN_BASE {
            return;
        }
        let deadline = Instant::now() + REFUSAL_LINGER;
        let idx = self.claim_slot();
        let mut conn = Conn::new(stream, self.pass_ns);
        conn.refusing = Some(deadline);
        self.update_interest(idx, &mut conn);
        self.conns[idx] = Some(conn);
        self.lingering.push_back((deadline, idx));
    }

    /// Closes the refused connections whose linger deadline has passed.
    fn expire_refusals(&mut self, now: Instant) {
        while let Some(&(deadline, idx)) = self.lingering.front() {
            if deadline > now {
                break;
            }
            self.lingering.pop_front();
            // The slot may have been released (peer EOF) and reused.
            if self.conns[idx]
                .as_ref()
                .is_some_and(|conn| conn.refusing == Some(deadline))
            {
                let conn = self.conns[idx].take().expect("slot checked above");
                self.release(idx, &conn);
            }
        }
    }

    /// Frees a finished connection's slot; dropping `conn` afterwards
    /// closes its socket.
    fn release(&mut self, idx: usize, conn: &Conn) {
        if conn.interest.is_some() {
            let fd = conn.stream.as_raw_fd();
            let _ = self.registry.deregister(&mut SourceFd(&fd));
        }
        if conn.refusing.is_none() {
            self.live -= 1;
        }
        self.free.push(idx);
    }

    /// Applies one readiness event to a connection: errors kill it,
    /// readable drains the socket into the read buffer (bounded by
    /// [`READ_BUDGET`]; level-triggered polling re-delivers the rest).
    fn conn_event(&mut self, idx: usize, readable: bool, error: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if error {
            conn.dead = true;
            conn.read_closed = true;
            return;
        }
        if !readable || conn.read_closed || conn.paused {
            return;
        }
        let was_empty = conn.read_buf.is_empty();
        let mut taken = 0;
        loop {
            match conn.stream.read(&mut self.read_chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    // Oversized floods are discarded by the parser each
                    // service pass, so the buffer stays bounded by this
                    // event's read budget plus one partial line. A
                    // refusing connection's input is dropped here.
                    if conn.refusing.is_none() {
                        conn.read_buf.extend_from_slice(&self.read_chunk[..n]);
                    }
                    taken += n;
                    if taken >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    conn.read_closed = true;
                    break;
                }
            }
        }
        if taken > 0 && conn.refusing.is_none() {
            // Both stamps reuse the pass tick — no clock read here.
            if was_empty {
                conn.read_ns = self.pass_ns;
            }
            if !conn.accept_done {
                conn.accept_done = true;
                self.telemetry
                    .record_stage(Stage::Accept, self.pass_ns.saturating_sub(conn.accept_ns));
            }
        }
    }

    /// Drains every response the workers have finished for this
    /// reactor into its connection's egress buffer (or pending map, if
    /// it arrived out of line order; dropped if the connection died) and
    /// records the slots that need service.
    fn route_responses(&mut self, touched: &mut Vec<usize>) {
        while let Some((packed, response, meta)) = self.pool.try_recv_traced() {
            let idx = ((packed >> SEQ_BITS) & SLOT_MASK) as usize;
            let seq = packed & SEQ_MASK;
            let conn = self.conns[idx]
                .as_mut()
                .expect("slots are reserved while requests are in flight");
            conn.in_flight -= 1;
            if !conn.dead {
                // `solved_ns == 0` marks an untraced response (telemetry
                // off): no stamps to carry forward.
                let trace = (meta.solved_ns != 0).then(|| (response.tenant(), meta));
                self.responses += conn.deliver(seq, trace, &self.telemetry, self.pass_ns, |out| {
                    proto::render_response_into(out, seq, &response);
                });
            }
            touched.push(idx);
        }
    }

    /// Answers the connection's next line, consuming its seq:
    /// `stats`/`metrics` are served from the reactor thread (they never
    /// enter a shard queue), engine requests join `batch` tagged with
    /// the packed token and their read stamp, parse failures and
    /// oversized lines get an error line. Shared by every line site of
    /// [`Reactor::parse_lines`].
    fn answer_line(
        &mut self,
        idx: usize,
        conn: &mut Conn,
        parsed: Result<Command, String>,
        batch: &mut Vec<(u64, Request, u64)>,
    ) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        self.requests += 1;
        let line = match parsed {
            Ok(Command::Stats) => {
                let (conns, reactors) = self.observability();
                proto::render_stats(seq, &self.pool.snapshots(), conns, &reactors)
            }
            Ok(Command::Metrics) => {
                let (conns, reactors) = self.observability();
                proto::render_metrics(seq, &self.pool.metrics_report(conns, reactors))
            }
            Ok(Command::MetricsText) => {
                let (conns, reactors) = self.observability();
                proto::render_metrics_text(seq, &self.pool.metrics_report(conns, reactors))
            }
            Ok(Command::Engine(request)) => {
                self.telemetry
                    .record_stage(Stage::Parse, self.pass_ns.saturating_sub(conn.read_ns));
                batch.push((((idx as u64) << SEQ_BITS) | seq, request, conn.read_ns));
                conn.in_flight += 1;
                self.pass_arrivals += 1;
                return;
            }
            Err(reason) => {
                self.parse_errors += 1;
                proto::render_response(seq, &Response::Error { tenant: 0, reason })
            }
        };
        self.responses += conn.deliver(seq, None, &self.telemetry, self.pass_ns, |out| {
            out.extend_from_slice(line.as_bytes());
        });
    }

    /// Parses complete lines out of `conn`'s read buffer (respecting the
    /// pause watermarks), answering `stats` and parse errors immediately
    /// and appending engine requests to `batch`.
    fn parse_lines(&mut self, idx: usize, conn: &mut Conn, batch: &mut Vec<(u64, Request, u64)>) {
        debug_assert!(idx < MAX_SLOTS);
        let mut consumed = 0;
        loop {
            conn.refresh_pause();
            if conn.paused {
                break;
            }
            if conn.skipping {
                match conn.read_buf[consumed..].iter().position(|&b| b == b'\n') {
                    Some(rel) => {
                        consumed += rel + 1;
                        conn.skipping = false;
                        self.answer_line(idx, conn, Err(oversized_reason()), batch);
                    }
                    None => {
                        // All garbage; drop it and wait for the newline.
                        conn.read_buf.clear();
                        consumed = 0;
                        if conn.read_closed {
                            // EOF ends the oversized line, like the
                            // blocking reader's EOF case.
                            conn.skipping = false;
                            self.answer_line(idx, conn, Err(oversized_reason()), batch);
                        }
                        break;
                    }
                }
                continue;
            }
            match conn.read_buf[consumed..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let end = consumed + rel;
                    let parsed = proto::parse_line(&conn.read_buf[consumed..end]);
                    consumed = end + 1;
                    self.answer_line(idx, conn, parsed, batch);
                }
                None => {
                    if conn.read_buf.len() - consumed > MAX_LINE_BYTES {
                        // Newline-less flood: discard and resync, with
                        // one bounded error once the line finally ends.
                        conn.skipping = true;
                        conn.read_buf.clear();
                        consumed = 0;
                        continue;
                    }
                    if conn.read_closed && conn.read_buf.len() > consumed {
                        // EOF: a partial unterminated line still counts.
                        let parsed = proto::parse_line(&conn.read_buf[consumed..]);
                        consumed = conn.read_buf.len();
                        self.answer_line(idx, conn, parsed, batch);
                    }
                    break;
                }
            }
        }
        conn.read_buf.drain(..consumed.min(conn.read_buf.len()));
    }

    /// Flushes the connection's egress buffer as far as the socket
    /// allows and closes the flush stage of every traced answer that
    /// left.
    fn flush(&mut self, idx: usize, conn: &mut Conn) {
        self.write_out(conn);
        if conn.dead {
            conn.clear_egress();
            return;
        }
        if conn
            .flush_tags
            .front()
            .is_some_and(|tag| tag.end <= conn.sent)
        {
            // The one deliberate extra clock read (see module docs):
            // taken only when traced responses completed this pass, it
            // is what puts the write-syscall cost inside the flush
            // stage and makes its p50 non-zero under load.
            let now = self.telemetry.now_ns();
            while conn
                .flush_tags
                .front()
                .is_some_and(|tag| tag.end <= conn.sent)
            {
                let tag = conn.flush_tags.pop_front().expect("front was checked");
                self.record_flushed(idx, &tag, now);
            }
        }
    }

    /// One egress pass: the whole buffer goes to the socket in a single
    /// `write` — one syscall covers however many responses accumulated,
    /// repeated only after a short write.
    fn write_out(&mut self, conn: &mut Conn) {
        while !conn.egress.is_empty() {
            match (&conn.stream).write(&conn.egress) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    self.flush_passes += 1;
                    self.iovecs_written += conn.egress_lines;
                    conn.sent += n as u64;
                    if n == conn.egress.len() {
                        conn.egress.clear();
                        conn.egress.shrink_to(EGRESS_RETAIN);
                        conn.egress_lines = 0;
                    } else {
                        // Lines end in the only raw newlines a rendered
                        // answer holds.
                        let done = conn.egress[..n].iter().filter(|&&b| b == b'\n').count();
                        conn.egress_lines -= done as u64;
                        conn.egress.drain(..n);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Books a fully-flushed traced response: flush and total stage
    /// samples, plus its bid for the worst-N slow-request ring.
    fn record_flushed(&self, idx: usize, tag: &FlushTag, now: u64) {
        let meta = &tag.meta;
        let flush_ns = now.saturating_sub(tag.respond_ns);
        let total_ns = now.saturating_sub(meta.read_ns);
        self.telemetry.record_stage(Stage::Flush, flush_ns);
        self.telemetry.record_stage(Stage::Total, total_ns);
        self.telemetry.offer_slow(SlowRequest {
            tenant: tag.tenant,
            conn: idx as u64,
            seq: tag.seq,
            parse_ns: meta.submit_ns.saturating_sub(meta.read_ns),
            queue_ns: meta.dequeue_ns.saturating_sub(meta.submit_ns),
            solve_ns: meta.solve_ns,
            respond_ns: tag.respond_ns.saturating_sub(meta.solved_ns),
            flush_ns,
            total_ns,
        });
    }

    /// Reconciles the registered poll interest with what the connection
    /// currently needs (read unless closed/paused, write while a
    /// backlog exists).
    fn update_interest(&mut self, idx: usize, conn: &mut Conn) {
        let want_read = !conn.dead && !conn.read_closed && !conn.paused;
        let want_write = !conn.dead && conn.write_backlog() > 0;
        let desired = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == conn.interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let mut source = SourceFd(&fd);
        let token = Token(CONN_BASE + idx);
        let outcome = match (conn.interest, desired) {
            (None, Some(interest)) => self.registry.register(&mut source, token, interest),
            (Some(_), Some(interest)) => self.registry.reregister(&mut source, token, interest),
            (Some(_), None) => self.registry.deregister(&mut source),
            (None, None) => Ok(()),
        };
        match outcome {
            Ok(()) => conn.interest = desired,
            Err(_) => {
                conn.dead = true;
                conn.interest = None;
            }
        }
    }

    /// The adaptive dispatch threshold: track the arrival rate so a
    /// sparse trickle dispatches immediately while sustained load grows
    /// batches toward [`DISPATCH_BATCH_MAX`].
    fn dispatch_threshold(&self) -> usize {
        (self.arrival_ewma.round() as usize).clamp(1, DISPATCH_BATCH_MAX)
    }

    /// Submits mid-pass once the batch reaches the adaptive threshold
    /// (order within the batch — hence per tenant — is preserved by the
    /// split: requests still leave in parse order).
    fn maybe_submit(&mut self, batch: &mut Vec<(u64, Request, u64)>) {
        if batch.len() >= self.dispatch_threshold() {
            self.submit(batch);
        }
    }

    /// Submits whatever the pass has batched so far, if anything.
    fn submit(&mut self, batch: &mut Vec<(u64, Request, u64)>) {
        if !batch.is_empty() {
            self.pool
                .submit_batch_traced(std::mem::take(batch), self.pass_ns);
        }
    }

    /// Closes a pass: feeds the arrivals count into the dispatch EWMA
    /// and publishes the gauges.
    fn end_pass(&mut self) {
        self.arrival_ewma = (1.0 - ARRIVAL_EWMA_ALPHA) * self.arrival_ewma
            + ARRIVAL_EWMA_ALPHA * self.pass_arrivals as f64;
        self.pass_arrivals = 0;
        self.sync_gauges();
    }

    /// One connection's full service pass: parse what's buffered, flush
    /// what's answered, reconcile interest, release the slot if done.
    fn service_conn(&mut self, idx: usize, batch: &mut Vec<(u64, Request, u64)>) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if conn.dead {
            conn.clear_egress();
        } else if conn.refusing.is_none() {
            self.parse_lines(idx, &mut conn, batch);
            self.flush(idx, &mut conn);
        }
        self.update_interest(idx, &mut conn);
        if conn.finished() {
            self.release(idx, &conn);
            // `conn` drops here, closing the socket.
        } else {
            self.conns[idx] = Some(conn);
        }
        self.maybe_submit(batch);
    }

    /// Enters drain mode: close the listener so no new connection gets
    /// in; existing connections keep being served until they go quiet.
    fn begin_drain(&mut self, touched: &mut Vec<usize>) {
        // Connections already established in the accept backlog belong
        // to clients that connected before the stop: admit (or refuse)
        // them now, because dropping the listener would reset them.
        self.accept_ready();
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let fd = listener.as_raw_fd();
            let _ = self.registry.deregister(&mut SourceFd(&fd));
            // Dropped: the OS refuses further connects outright.
        }
        touched.extend((0..self.conns.len()).filter(|&i| self.conns[i].is_some()));
    }

    /// Every answer owed to a live connection has been flushed.
    fn all_flushed(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|conn| conn.dead || (conn.pending.is_empty() && conn.write_backlog() == 0))
    }

    /// No live connection holds a buffered complete line that the
    /// draining loop still owes an answer to. Unterminated partial
    /// lines don't count: without EOF there is no way to know whether
    /// the rest is coming, and the drain cannot wait on a slow sender.
    fn no_pending_lines(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|conn| conn.dead || !conn.read_buf.contains(&b'\n'))
    }
}

/// One reactor thread's event loop over an already-bound listener and a
/// pool view; shared by the single- and multi-reactor entry points.
/// Returns the run's totals and the pool view (so the caller can
/// unwrap/shut down the engine after every reactor has exited).
#[allow(clippy::too_many_arguments)]
fn run_reactor(
    listener: TcpListener,
    pool: Pool,
    telemetry: Arc<Telemetry>,
    gauges: Arc<Vec<ReactorGauges>>,
    reactor_id: usize,
    max_conns: usize,
    global_max: usize,
    shutdown: &Shutdown,
) -> io::Result<(ReactorRun, Pool)> {
    listener.set_nonblocking(true)?;
    let mut poll = Poll::new()?;
    let listener_fd = listener.as_raw_fd();
    poll.registry()
        .register(&mut SourceFd(&listener_fd), LISTENER, Interest::READABLE)?;
    let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
    shutdown.install(Arc::clone(&waker));
    let notify = Arc::clone(&waker);
    pool.install_notifier(Arc::new(move || {
        let _ = notify.wake();
    }));
    let mut reactor = Reactor {
        registry: poll.registry().try_clone()?,
        pool,
        telemetry,
        pass_ns: 0,
        listener: Some(listener),
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        lingering: VecDeque::new(),
        read_chunk: vec![0; READ_CHUNK],
        max_conns,
        global_max,
        reactor_id,
        gauges,
        draining: false,
        arrival_ewma: 1.0,
        pass_arrivals: 0,
        requests: 0,
        responses: 0,
        parse_errors: 0,
        accepted_conns: 0,
        refused_conns: 0,
        flush_passes: 0,
        iovecs_written: 0,
    };

    let mut events = Events::with_capacity(1024);
    let mut touched: Vec<usize> = Vec::new();
    let mut batch: Vec<(u64, Request, u64)> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if shutdown.is_requested() && !reactor.draining {
            touched.clear();
            reactor.begin_drain(&mut touched);
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            // Serve whatever the clients already sent us, right away.
            reactor.route_responses(&mut touched);
            for idx in std::mem::take(&mut touched) {
                reactor.service_conn(idx, &mut batch);
            }
            reactor.submit(&mut batch);
        }
        if reactor.draining && drain_deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let drain_tick = reactor.draining.then(|| Duration::from_millis(50));
        let linger = reactor
            .lingering
            .front()
            .map(|&(deadline, _)| deadline.saturating_duration_since(Instant::now()));
        let timeout = match (drain_tick, linger) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        poll.poll(&mut events, timeout)?;
        // The pass tick: one clock read per poll iteration, taken after
        // the (possibly long) wait so blocked time is never charged to a
        // request, reused for every stamp below.
        reactor.pass_ns = reactor.telemetry.now_ns();
        let quiet = events.is_empty();

        touched.clear();
        let mut woken = false;
        for event in &events {
            match event.token() {
                LISTENER => reactor.accept_ready(),
                WAKER => woken = true,
                Token(t) => {
                    let idx = t - CONN_BASE;
                    reactor.conn_event(idx, event.is_readable(), event.is_error());
                    touched.push(idx);
                }
            }
        }
        if woken {
            // Reset before draining: a wake arriving after the reset is
            // a fresh edge for a response the drain below will miss.
            waker.reset();
        }
        reactor.route_responses(&mut touched);
        touched.sort_unstable();
        touched.dedup();
        for &idx in &touched {
            reactor.service_conn(idx, &mut batch);
        }
        reactor.submit(&mut batch);
        if !reactor.lingering.is_empty() {
            reactor.expire_refusals(Instant::now());
        }
        reactor.end_pass();
        // Draining exit: a whole poll interval passed with no socket
        // activity, nothing is in flight, every answer is flushed, and
        // no buffered complete line awaits parsing.
        if reactor.draining
            && quiet
            && reactor.pool.in_flight() == 0
            && reactor.all_flushed()
            && reactor.no_pending_lines()
        {
            break;
        }
    }

    // Teardown: close every socket; the pool view goes back to the
    // caller (the engine outlives this reactor's siblings).
    reactor.conns.clear();
    reactor.sync_gauges();
    Ok((
        ReactorRun {
            requests: reactor.requests,
            responses: reactor.responses,
            parse_errors: reactor.parse_errors,
            accepted_conns: reactor.accepted_conns,
            refused_conns: reactor.refused_conns,
        },
        reactor.pool,
    ))
}

/// Runs the event-driven front end on an already-bound listener until
/// `shutdown` is requested, then drains and returns the run's totals.
/// See the module docs for the architecture.
///
/// # Errors
///
/// Fatal poller errors (registration, `epoll_wait`) and listener setup
/// failures. Per-connection I/O errors only ever kill that connection.
pub fn serve_reactor(
    listener: TcpListener,
    options: &ReactorOptions,
    shutdown: &Shutdown,
) -> io::Result<ReactorSummary> {
    let telemetry = if options.telemetry {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    let pool = ShardedEngine::with_telemetry(
        options.strategy,
        options.shards,
        options.journal.clone(),
        None,
        Arc::clone(&telemetry),
    );
    let max_conns = options.max_conns.clamp(1, MAX_SLOTS - CONN_BASE);
    let gauges = Arc::new(vec![ReactorGauges::with_max(max_conns)]);
    let (run, pool) = run_reactor(
        listener,
        Pool::Owned(pool),
        telemetry,
        gauges,
        0,
        max_conns,
        max_conns,
        shutdown,
    )?;
    let Pool::Owned(pool) = pool else {
        unreachable!("the single-reactor loop owns its pool");
    };
    let reports = pool.shutdown();
    Ok(run.into_summary(reports))
}

/// Binds `n` `SO_REUSEPORT` listeners on one address for
/// [`serve_reactors`]: the first bind resolves the address (so `:0`
/// picks one ephemeral port), the remaining `n - 1` rebind the resolved
/// address and the kernel spreads incoming connections across all of
/// them. With `n == 1` this is a plain [`TcpListener::bind`] — no
/// `SO_REUSEPORT` needed for a lone listener.
///
/// # Errors
///
/// Socket setup failures; IPv6 addresses are rejected by the shim.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn bind_reuseport_listeners(
    addr: std::net::SocketAddr,
    n: usize,
) -> io::Result<Vec<TcpListener>> {
    assert!(n > 0, "at least one listener is required");
    if n == 1 {
        return Ok(vec![TcpListener::bind(addr)?]);
    }
    let first = mio::net::bind_reuseport(addr)?;
    let resolved = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..n {
        listeners.push(mio::net::bind_reuseport(resolved)?);
    }
    Ok(listeners)
}

/// Runs one reactor thread per listener over a single shared shard
/// pool until `shutdown` is requested, then drains every reactor and
/// returns the merged totals. Callers bind the listeners with
/// `SO_REUSEPORT` on one address ([`mio::net::bind_reuseport`]) so the
/// kernel spreads incoming connections across them; each reactor
/// submits and receives on its private [`EngineLane`], so the request
/// path stays lock-free end to end. `options.max_conns` is a global
/// budget split evenly across the reactors (each gets at least one
/// slot).
///
/// A single listener degenerates to [`serve_reactor`] exactly.
///
/// # Errors
///
/// Fatal poller errors and listener setup failures from any reactor —
/// a failed reactor requests shutdown so its siblings drain instead of
/// serving a silently reduced front; the first error is returned after
/// every thread has exited and the pool is shut down.
///
/// # Panics
///
/// Panics if `listeners` is empty or a reactor thread panics.
pub fn serve_reactors(
    listeners: Vec<TcpListener>,
    options: &ReactorOptions,
    shutdown: &Shutdown,
) -> io::Result<ReactorSummary> {
    assert!(!listeners.is_empty(), "at least one listener is required");
    if listeners.len() == 1 {
        let listener = listeners.into_iter().next().expect("length checked");
        return serve_reactor(listener, options, shutdown);
    }
    let n = listeners.len();
    let telemetry = if options.telemetry {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    let (pool, lanes) = ShardedEngine::with_lanes(
        options.strategy,
        options.shards,
        options.journal.clone(),
        n,
        Arc::clone(&telemetry),
    );
    let shared = Arc::new(pool);
    let global_max = options.max_conns.clamp(1, n * (MAX_SLOTS - CONN_BASE));
    // Split the global budget evenly, the remainder to the first
    // reactors, at least one slot each.
    let share = |r: usize| (global_max / n + usize::from(r < global_max % n)).max(1);
    let gauges: Arc<Vec<ReactorGauges>> =
        Arc::new((0..n).map(|r| ReactorGauges::with_max(share(r))).collect());
    let outcomes: Vec<io::Result<(ReactorRun, Pool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(lanes)
            .enumerate()
            .map(|(r, (listener, lane))| {
                let shared = Arc::clone(&shared);
                let telemetry = Arc::clone(&telemetry);
                let gauges = Arc::clone(&gauges);
                scope.spawn(move || {
                    let pool = Pool::Shared { shared, lane };
                    let out = run_reactor(
                        listener,
                        pool,
                        telemetry,
                        gauges,
                        r,
                        share(r),
                        global_max,
                        shutdown,
                    );
                    if out.is_err() {
                        // A dead reactor must not strand its siblings
                        // (or the caller) behind a front that will
                        // never fully serve: drain everyone.
                        shutdown.request();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("reactor thread panicked"))
            .collect()
    });
    let mut merged = ReactorRun::default();
    let mut first_err = None;
    for outcome in outcomes {
        match outcome {
            Ok((run, pool)) => {
                merged.absorb(&run);
                // Dropping the pool view drops its lane; the workers
                // stop routing to it.
                drop(pool);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    let pool =
        Arc::try_unwrap(shared).expect("every reactor thread has exited and dropped its pool view");
    let reports = pool.shutdown();
    match first_err {
        Some(e) => Err(e),
        None => Ok(merged.into_summary(reports)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::SocketAddr;

    fn spawn_reactors(
        n: usize,
        shards: usize,
        max_conns: usize,
    ) -> (
        SocketAddr,
        Arc<Shutdown>,
        std::thread::JoinHandle<io::Result<ReactorSummary>>,
    ) {
        let listeners = bind_reuseport_listeners("127.0.0.1:0".parse().unwrap(), n).unwrap();
        let addr = listeners[0].local_addr().unwrap();
        let shutdown = Shutdown::new();
        let remote = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let mut options = ReactorOptions::new(CarryInStrategy::TopDiff, shards);
            options.max_conns = max_conns;
            serve_reactors(listeners, &options, &remote)
        });
        (addr, shutdown, handle)
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // Without it, Nagle can hold a pipeline's tail in this
            // socket until the server's delayed ACK, past the moment a
            // test requests the drain — which abandons a partial line.
            stream.set_nodelay(true).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send(&mut self, line: &str) {
            self.stream.write_all(line.as_bytes()).unwrap();
            self.stream.write_all(b"\n").unwrap();
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "server closed the connection");
            line.trim_end().to_string()
        }
    }

    const REGISTER: &str = "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
         {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
         {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}";

    fn register_line(tenant: u64) -> String {
        format!(
            "{{\"op\":\"register\",\"tenant\":{tenant},\"cores\":2,\"rt\":[\
             {{\"wcet_ms\":240,\"period_ms\":500,\"core\":0}},\
             {{\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}}]}}"
        )
    }

    #[test]
    fn serves_a_pipelined_session_in_seq_order() {
        let (addr, shutdown, handle) = spawn_reactors(1, 2, 8);
        let mut c = Client::connect(addr);
        // Pipeline everything before reading a single answer.
        c.send(REGISTER);
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":223,\"t_max_ms\":10000}");
        c.send("not json at all");
        c.send("{\"op\":\"query\",\"tenant\":1}");
        let lines: Vec<String> = (0..5).map(|_| c.recv()).collect();
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")), "line {i}: {line}");
        }
        assert!(lines[0].contains("\"verdict\":\"accept\""));
        assert!(lines[3].contains("\"verdict\":\"error\""));
        assert!(
            lines[4].contains("\"periods_ms\":[7582,2783]"),
            "{}",
            lines[4]
        );
        drop(c);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.responses, 5);
        assert_eq!(summary.parse_errors, 1);
        assert_eq!(summary.accepted_conns, 1);
        assert_eq!(summary.refused_conns, 0);
        assert_eq!(summary.reports.len(), 2);
        assert_eq!(summary.reports.iter().map(|r| r.handled).sum::<u64>(), 4);
    }

    #[test]
    fn stats_verb_reports_shards_and_connections() {
        let (addr, shutdown, handle) = spawn_reactors(1, 3, 8);
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        c.send("{\"op\":\"stats\"}");
        let stats = c.recv();
        assert!(stats.contains("\"verdict\":\"stats\""), "{stats}");
        assert!(stats.contains("\"live\":1"), "{stats}");
        assert!(stats.contains("\"max\":8"), "{stats}");
        assert!(stats.contains("\"refused\":0"), "{stats}");
        // Exactly one serving reactor, its egress counters live.
        assert_eq!(stats.matches("\"reactor\":").count(), 1, "{stats}");
        assert!(stats.contains("\"flush_passes\":"), "{stats}");
        assert!(stats.contains("\"iovecs_written\":"), "{stats}");
        // Three shards, exactly one of which holds the tenant.
        assert_eq!(stats.matches("\"shard\":").count(), 3, "{stats}");
        assert!(stats.contains("\"tenants\":1"), "{stats}");
        assert!(stats.contains("\"handled\":1"), "{stats}");
        drop(c);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.responses, 2);
    }

    /// A refused client that sent a request before reading still gets
    /// the whole refusal line: the reactor half-closes the refused
    /// socket and drains its input rather than resetting it under the
    /// line.
    #[test]
    fn a_refused_client_that_already_sent_a_request_reads_the_refusal() {
        let (addr, shutdown, handle) = spawn_reactors(1, 1, 1);
        let mut holder = Client::connect(addr);
        holder.send("{\"op\":\"query\",\"tenant\":9}");
        assert!(holder.recv().contains("unknown tenant 9"));
        for i in 0..200 {
            let mut c = Client::connect(addr);
            c.send("{\"op\":\"query\",\"tenant\":9}");
            let line = c.recv();
            assert!(line.contains("connection cap"), "attempt {i}: {line}");
        }
        drop(holder);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.refused_conns, 200);
    }

    #[test]
    fn connections_beyond_the_cap_are_refused_then_admitted_again() {
        let (addr, shutdown, handle) = spawn_reactors(1, 1, 1);
        let mut a = Client::connect(addr);
        a.send("{\"op\":\"query\",\"tenant\":9}");
        assert!(a.recv().contains("unknown tenant 9"));
        // B exceeds the cap: refused with a protocol error line.
        let mut b = Client::connect(addr);
        assert!(b.recv().contains("connection cap"), "expected refusal");
        // Closing A frees the slot; the release races the next accept,
        // so retry with a deadline.
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut c = Client::connect(addr);
            let line = match c.stream.write_all(b"{\"op\":\"query\",\"tenant\":9}\n") {
                Ok(()) => c.recv(),
                Err(_) => "connection cap".to_string(),
            };
            if line.contains("unknown tenant 9") {
                break;
            }
            assert!(line.contains("connection cap"), "unexpected: {line}");
            assert!(Instant::now() < deadline, "slot was never released");
            std::thread::sleep(Duration::from_millis(20));
        }
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.refused_conns >= 1);
    }

    /// A shutdown requested while answers are still being computed and
    /// written loses nothing: every pipelined request is answered before
    /// the reactor exits.
    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        let (addr, shutdown, handle) = spawn_reactors(1, 2, 4);
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        let n_flips = 40;
        for i in 0..n_flips {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
        // Request the stop while the pipeline is (likely) still in
        // flight, then read everything the drain owes us.
        shutdown.request();
        let mut verdicts = 0;
        for _ in 0..n_flips + 2 {
            let line = c.recv();
            assert!(line.contains("\"verdict\":"), "{line}");
            verdicts += 1;
        }
        assert_eq!(verdicts, n_flips + 2);
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, n_flips as u64 + 2);
        assert_eq!(summary.responses, n_flips as u64 + 2);
    }

    #[test]
    fn idle_shutdown_returns_immediately_with_reports() {
        let (_addr, shutdown, handle) = spawn_reactors(1, 2, 4);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 0);
        assert_eq!(summary.reports.len(), 2);
    }

    /// Two `SO_REUSEPORT` reactors over one shared pool: every client is
    /// served wherever the kernel lands it, any connection's `stats`
    /// answer covers both reactors, and the merged summary accounts
    /// every request.
    #[test]
    fn two_reactors_share_the_pool_and_report_per_reactor_stats() {
        let (addr, shutdown, handle) = spawn_reactors(2, 2, 32);
        let mut clients: Vec<Client> = (0..8).map(|_| Client::connect(addr)).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(&register_line(10 + i as u64));
            c.send(&format!(
                "{{\"op\":\"query\",\"tenant\":{}}}",
                10 + i as u64
            ));
        }
        for c in &mut clients {
            assert!(c.recv().contains("\"verdict\":\"accept\""));
            assert!(c.recv().contains("\"periods_ms\":"));
        }
        let mut c = clients.pop().expect("eight clients connected");
        c.send("{\"op\":\"stats\"}");
        let stats = c.recv();
        // Both reactors render an entry; the budget is split 16/16 and
        // the summed gauge reports the global cap.
        assert_eq!(stats.matches("\"reactor\":").count(), 2, "{stats}");
        assert!(stats.contains("\"reactor\":0"), "{stats}");
        assert!(stats.contains("\"reactor\":1"), "{stats}");
        assert!(stats.contains("\"max\":32"), "{stats}");
        assert!(stats.contains("\"max\":16"), "{stats}");
        assert!(stats.contains("\"live\":8"), "{stats}");
        c.send("{\"op\":\"metrics\"}");
        let metrics = c.recv();
        assert_eq!(metrics.matches("\"reactor\":").count(), 2, "{metrics}");
        clients.push(c);
        drop(clients);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 18);
        assert_eq!(summary.responses, 18);
        assert_eq!(summary.accepted_conns, 8);
        assert_eq!(summary.reports.len(), 2);
        assert_eq!(summary.reports.iter().map(|r| r.handled).sum::<u64>(), 16);
    }

    /// Graceful shutdown with multiple reactors: every lane drains its
    /// own in-flight pipeline before the pool goes down.
    #[test]
    fn multi_reactor_shutdown_drains_every_lane() {
        let (addr, shutdown, handle) = spawn_reactors(2, 2, 16);
        let n_flips = 10u64;
        let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(addr)).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let tenant = 50 + i as u64;
            c.send(&register_line(tenant));
            c.send(&format!(
                "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":5342,\"t_max_ms\":10000}}"
            ));
            for f in 0..n_flips {
                let mode = if f % 2 == 0 { "active" } else { "passive" };
                c.send(&format!(
                    "{{\"op\":\"mode\",\"tenant\":{tenant},\"slot\":0,\"mode\":\"{mode}\"}}"
                ));
            }
        }
        shutdown.request();
        for c in &mut clients {
            for _ in 0..n_flips + 2 {
                assert!(c.recv().contains("\"verdict\":"));
            }
        }
        drop(clients);
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 4 * (n_flips + 2));
        assert_eq!(summary.responses, 4 * (n_flips + 2));
    }

    fn stage_count(metrics: &str, stage: &str) -> u64 {
        let key = format!("\"{stage}\":{{\"count\":");
        let at = metrics.find(&key).unwrap_or_else(|| {
            panic!("stage {stage} missing from {metrics}");
        });
        metrics[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("count is an integer")
    }

    /// The flush histogram counts each traced response exactly once —
    /// when its last byte leaves the socket — even when a slow reader
    /// forces partial writes and retries. Pinned by comparing the flush
    /// and respond stage populations after a full drain: a retried tail
    /// double-count would make flush run ahead.
    #[test]
    fn slow_reader_flush_stamps_count_each_response_once() {
        let (addr, shutdown, handle) = spawn_reactors(1, 1, 4);
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        // Pipeline a burst without reading a byte, so the reactor's
        // egress queue fills against our unread receive window (small
        // enough that our own sends still fit the kernel buffers).
        let n = 2000;
        for i in 0..n {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
        // Let the server run into the slow-reader wall before we drain.
        std::thread::sleep(Duration::from_millis(300));
        for _ in 0..n {
            assert!(c.recv().contains("\"verdict\":"));
        }
        c.send("{\"op\":\"metrics\"}");
        let metrics = c.recv();
        let respond = stage_count(&metrics, "respond");
        let flush = stage_count(&metrics, "flush");
        assert!(respond > 0, "traced responses must exist: {metrics}");
        assert_eq!(flush, respond, "every traced response flushes exactly once");
        drop(c);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.responses, n + 3);
    }
}
