//! Stream front ends: line-delimited JSON over stdin/stdout or TCP.
//!
//! [`serve`] pumps one request stream through a [`ShardedEngine`]:
//! lines are read greedily (up to the batch cap, but never *waiting* for
//! a full batch — whatever is already buffered is dispatched, so an
//! interactive client gets per-line answers while a pipelined client
//! gets batched throughput), submitted as one batch, and the answers are
//! written back ordered by sequence number.
//!
//! [`serve_tcp`] accepts connections **concurrently**: each accepted
//! connection gets its own bounded service thread over one shared
//! engine ([`SharedEngine`], a mutex around the sharded pool), so an
//! idle or slow client never blocks another client's requests. The lock
//! is held only per dispatch round — submit one batch, drain its
//! answers — never across blocking reads, and tenant state persists
//! across connections (the engine outlives them). Connections beyond
//! the cap are refused with a protocol error line instead of queueing
//! unboundedly. The hand-off verbs (`export`/`import`/`evict`) need no
//! special casing here: they are ordinary requests on the same
//! line-in/line-out cycle, subject to the same size bound and the same
//! per-tenant ordering.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::Response;
use crate::proto::{self, Command, ConnStats, ReactorStats};
use crate::shard::{ResponseMeta, ShardedEngine};
use crate::telemetry::{SlowRequest, Stage, Telemetry};

/// The sharded engine behind a lock, shared by every live connection of
/// a TCP front end. Cloning shares the same engine.
pub type SharedEngine = Arc<Mutex<ShardedEngine>>;

/// Wraps an engine for concurrent TCP serving.
#[must_use]
pub fn shared(engine: ShardedEngine) -> SharedEngine {
    Arc::new(Mutex::new(engine))
}

/// Live connection gauges of the threaded TCP front end, shared between
/// the accept loop (which maintains them) and every service thread
/// (which reports them through the `stats` verb).
#[derive(Debug, Default)]
pub struct ConnGauges {
    live: AtomicUsize,
    refused: AtomicU64,
    max: AtomicUsize,
}

impl ConnGauges {
    fn snapshot(&self) -> ConnStats {
        ConnStats {
            live: self.live.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// One answered line of a dispatch round: the rendered response plus,
/// for traced engine responses, the stamps the pump needs to close the
/// flush and total stages once the bytes have left with `output`.
struct RoundAnswer {
    seq: u64,
    line: String,
    /// `(tenant, worker stamps, respond tick)`; `None` for stats,
    /// metrics, and error lines (never dispatched to a shard).
    trace: Option<(u64, ResponseMeta, u64)>,
}

impl RoundAnswer {
    fn untraced(seq: u64, line: String) -> RoundAnswer {
        RoundAnswer {
            seq,
            line,
            trace: None,
        }
    }
}

/// Answers one round of parsed commands over the engine: `stats` and
/// `metrics` are rendered immediately from the shard snapshots, stage
/// histograms and `conns` gauges; everything else is submitted as one
/// batch and drained. Shared by the stdin pump and the threaded TCP
/// path (the reactor has its own single-threaded equivalent).
///
/// `read_ns` is the round's read stamp (taken by the pump right after
/// the blocking read returned): parse = read → submit, respond =
/// verdict → drained, each booked with one clock read per round.
fn dispatch_round(
    engine: &mut ShardedEngine,
    conns: ConnStats,
    round: Vec<(u64, Command)>,
    read_ns: u64,
) -> Vec<RoundAnswer> {
    let mut rendered = Vec::with_capacity(round.len());
    let mut batch = Vec::new();
    for (seq, command) in round {
        match command {
            Command::Stats => {
                let line =
                    proto::render_stats(seq, &engine.snapshots(), conns, &[front_reactor(conns)]);
                rendered.push(RoundAnswer::untraced(seq, line));
            }
            Command::Metrics => {
                let report = engine.metrics_report(conns, vec![front_reactor(conns)]);
                rendered.push(RoundAnswer::untraced(
                    seq,
                    proto::render_metrics(seq, &report),
                ));
            }
            Command::MetricsText => {
                let report = engine.metrics_report(conns, vec![front_reactor(conns)]);
                let line = proto::render_metrics_text(seq, &report);
                rendered.push(RoundAnswer::untraced(seq, line));
            }
            Command::Engine(request) => batch.push((seq, request, read_ns)),
        }
    }
    let telemetry = Arc::clone(engine.telemetry());
    let submit_ns = telemetry.now_ns();
    for _ in &batch {
        telemetry.record_stage(Stage::Parse, submit_ns.saturating_sub(read_ns));
    }
    engine.submit_batch_traced(batch, submit_ns);
    let answers = engine.drain_traced();
    let respond_ns = if answers.iter().any(|(_, _, meta)| meta.solved_ns != 0) {
        telemetry.now_ns()
    } else {
        0
    };
    for (seq, response, meta) in answers {
        let trace = (meta.solved_ns != 0).then(|| {
            telemetry.record_stage(Stage::Respond, respond_ns.saturating_sub(meta.solved_ns));
            (response.tenant(), meta, respond_ns)
        });
        rendered.push(RoundAnswer {
            seq,
            line: proto::render_response(seq, &response),
            trace,
        });
    }
    rendered
}

/// The one `reactors` entry a non-reactor front reports: the serving
/// architecture never changes the `stats`/`metrics` field set (pinned
/// by the cross-front byte-shape parity test), and a front with no
/// reactor egress keeps its flush counters at zero.
fn front_reactor(conns: ConnStats) -> ReactorStats {
    ReactorStats {
        reactor: 0,
        live: conns.live,
        refused: conns.refused,
        max: conns.max,
        flush_passes: 0,
        iovecs_written: 0,
    }
}

/// Totals of one [`serve`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeSummary {
    /// Lines read (requests attempted).
    pub requests: u64,
    /// Responses written (equals `requests`; every line is answered).
    pub responses: u64,
    /// Responses with `verdict:"error"` due to unparsable lines.
    pub parse_errors: u64,
}

/// Serves `input` until EOF, writing one response line per request line.
///
/// `batch` caps how many lines are dispatched per round (≥ 1). Lines
/// beyond the first are only consumed while they are already buffered,
/// so interactive use is never stalled waiting for a batch to fill.
///
/// # Errors
///
/// Propagates I/O errors from `input`/`output`. Protocol errors never
/// abort the stream — they are answered with `verdict:"error"` lines.
pub fn serve<R: Read, W: Write>(
    engine: &mut ShardedEngine,
    input: BufReader<R>,
    output: W,
    batch: usize,
) -> io::Result<ServeSummary> {
    let telemetry = Arc::clone(engine.telemetry());
    serve_with(
        |round, read_ns| dispatch_round(engine, ConnStats::default(), round, read_ns),
        &telemetry,
        input,
        output,
        batch,
    )
}

/// [`serve`] over a [`SharedEngine`]: identical semantics, but the
/// engine lock is taken once per dispatch round — submit plus drain —
/// and released before the next blocking read, so concurrent
/// connections interleave at round granularity while each tenant's
/// answers stay ordered (the shard layer's guarantee).
///
/// # Errors
///
/// Propagates I/O errors from `input`/`output`, exactly like [`serve`].
///
/// # Panics
///
/// Panics if the engine mutex is poisoned (a service thread panicked
/// mid-round — unrecoverable for the pool).
pub fn serve_shared<R: Read, W: Write>(
    engine: &SharedEngine,
    input: BufReader<R>,
    output: W,
    batch: usize,
) -> io::Result<ServeSummary> {
    serve_shared_gauged(engine, None, input, output, batch)
}

/// [`serve_shared`] with the accept loop's connection gauges wired into
/// the `stats` verb (standalone `serve_shared` callers report zeros).
fn serve_shared_gauged<R: Read, W: Write>(
    engine: &SharedEngine,
    gauges: Option<&ConnGauges>,
    input: BufReader<R>,
    output: W,
    batch: usize,
) -> io::Result<ServeSummary> {
    let telemetry = Arc::clone(engine.lock().expect("engine mutex poisoned").telemetry());
    serve_with(
        |round, read_ns| {
            let conns = gauges.map(ConnGauges::snapshot).unwrap_or_default();
            let mut engine = engine.lock().expect("engine mutex poisoned");
            dispatch_round(&mut engine, conns, round, read_ns)
        },
        &telemetry,
        input,
        output,
        batch,
    )
}

/// The shared stream pump: reads rounds of lines, hands parsed commands
/// to `dispatch` (which must answer every submitted command exactly
/// once, already rendered), and writes seq-ordered responses.
///
/// Telemetry costs the pump at most four clock reads per round (read
/// stamp here, submit and respond stamps in the dispatcher, one flush
/// stamp after `output.flush()`), shared by every line of the round —
/// and zero with a disabled registry.
fn serve_with<R: Read, W: Write>(
    mut dispatch: impl FnMut(Vec<(u64, Command)>, u64) -> Vec<RoundAnswer>,
    telemetry: &Telemetry,
    input: BufReader<R>,
    mut output: W,
    batch: usize,
) -> io::Result<ServeSummary> {
    let batch = batch.max(1);
    let mut input = input;
    let mut summary = ServeSummary::default();
    let mut seq: u64 = 0;
    let mut line = Vec::new();
    let mut round: Vec<(u64, Result<Vec<u8>, String>)> = Vec::with_capacity(batch);
    loop {
        // Blocking read of the round's first line; EOF ends the stream.
        let Some(first) = read_bounded_line(&mut input, &mut line)? else {
            return Ok(summary);
        };
        round.push((seq, first.map(|()| std::mem::take(&mut line))));
        seq += 1;
        // Greedily take already-buffered complete lines, up to the cap.
        while round.len() < batch && input.buffer().contains(&b'\n') {
            let Some(next) = read_bounded_line(&mut input, &mut line)? else {
                break;
            };
            round.push((seq, next.map(|()| std::mem::take(&mut line))));
            seq += 1;
        }
        // The round's read stamp, taken after the blocking read so wait
        // time on an idle stream is never charged to a request.
        let read_ns = telemetry.now_ns();

        summary.requests += round.len() as u64;
        let mut answers: Vec<RoundAnswer> = Vec::with_capacity(round.len());
        let mut submitted: Vec<(u64, Command)> = Vec::with_capacity(round.len());
        for (line_seq, text) in round.drain(..) {
            let parsed = text.and_then(|bytes| proto::parse_line(&bytes));
            match parsed {
                Ok(command) => submitted.push((line_seq, command)),
                Err(reason) => {
                    summary.parse_errors += 1;
                    let line =
                        proto::render_response(line_seq, &Response::Error { tenant: 0, reason });
                    answers.push(RoundAnswer::untraced(line_seq, line));
                }
            }
        }
        answers.extend(dispatch(submitted, read_ns));
        answers.sort_by_key(|answer| answer.seq);
        for answer in &answers {
            output.write_all(answer.line.as_bytes())?;
            output.write_all(b"\n")?;
        }
        output.flush()?;
        summary.responses += answers.len() as u64;
        if answers.iter().any(|answer| answer.trace.is_some()) {
            // One clock read closes flush and total for the whole round
            // (the bytes left with the single flush above).
            let now = telemetry.now_ns();
            for answer in &answers {
                let Some((tenant, meta, respond_ns)) = answer.trace else {
                    continue;
                };
                let flush_ns = now.saturating_sub(respond_ns);
                let total_ns = now.saturating_sub(meta.read_ns);
                telemetry.record_stage(Stage::Flush, flush_ns);
                telemetry.record_stage(Stage::Total, total_ns);
                telemetry.offer_slow(SlowRequest {
                    tenant,
                    conn: 0,
                    seq: answer.seq,
                    parse_ns: meta.submit_ns.saturating_sub(meta.read_ns),
                    queue_ns: meta.dequeue_ns.saturating_sub(meta.submit_ns),
                    solve_ns: meta.solve_ns,
                    respond_ns: respond_ns.saturating_sub(meta.solved_ns),
                    flush_ns,
                    total_ns,
                });
            }
        }
    }
}

/// Hard cap on one request line — far above any legitimate request
/// (even a thousand-task registration is a few tens of KiB, and an
/// `import` payload for a thousand-monitor tenant stays under 100 KiB),
/// and the bound that keeps a newline-less client from growing the
/// daemon's memory without limit. An oversized line — hand-off payloads
/// included — is answered with a bounded error and the stream stays
/// line-synchronized (the `proto_torture` suite pins this).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads one newline-terminated line into `buf`, bounded by
/// [`MAX_LINE_BYTES`]. Returns `None` at EOF; `Some(Ok(()))` with the
/// line (newline included) in `buf`; `Some(Err(reason))` for an
/// oversized line, whose remaining bytes have been consumed and
/// discarded so the stream stays line-synchronized.
fn read_bounded_line<R: Read>(
    input: &mut BufReader<R>,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Result<(), String>>> {
    buf.clear();
    let mut oversized = false;
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            // EOF: a partial unterminated line still counts as a line.
            return Ok(match (buf.is_empty(), oversized) {
                (true, false) => None,
                (_, false) => Some(Ok(())),
                (_, true) => Some(Err(oversized_reason())),
            });
        }
        if let Some(newline) = available.iter().position(|&b| b == b'\n') {
            if !oversized {
                buf.extend_from_slice(&available[..=newline]);
            }
            input.consume(newline + 1);
            return Ok(Some(if oversized {
                Err(oversized_reason())
            } else {
                Ok(())
            }));
        }
        let len = available.len();
        if !oversized {
            if buf.len() + len > MAX_LINE_BYTES {
                oversized = true;
                buf.clear();
            } else {
                buf.extend_from_slice(available);
            }
        }
        input.consume(len);
    }
}

pub(crate) fn oversized_reason() -> String {
    format!("request line exceeds {MAX_LINE_BYTES} bytes")
}

/// Decrements the live-connection count when a service thread exits —
/// on any path, including panics.
struct ConnectionSlot(Arc<ConnGauges>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Binds `addr` and serves connections concurrently, forever: each
/// accepted connection runs on its own thread over the shared engine,
/// up to `max_conns` simultaneous connections. A connection beyond the
/// cap is answered with a single `verdict:"error"` line and closed
/// (bounded threads, bounded memory — a pileup degrades loudly instead
/// of queueing silently).
///
/// # Errors
///
/// Returns the bind error; per-connection I/O errors are logged to
/// stderr by the connection threads.
pub fn serve_tcp(
    engine: &SharedEngine,
    addr: &str,
    batch: usize,
    max_conns: usize,
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("rts-adaptd listening on {}", listener.local_addr()?);
    serve_listener(engine, &listener, batch, max_conns)
}

/// The accept loop behind [`serve_tcp`], taking an already-bound
/// listener (tests bind to an ephemeral port and pass it in). Runs
/// forever; only `listener.accept` errors are reported (and skipped).
///
/// # Errors
///
/// Never returns `Ok` — the loop only ends if accepting becomes
/// impossible; transient accept errors are logged and skipped.
pub fn serve_listener(
    engine: &SharedEngine,
    listener: &TcpListener,
    batch: usize,
    max_conns: usize,
) -> io::Result<()> {
    let max_conns = max_conns.max(1);
    let gauges = Arc::new(ConnGauges::default());
    gauges.max.store(max_conns, Ordering::Relaxed);
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        // Claim a slot; back out if the cap is reached.
        if gauges.live.fetch_add(1, Ordering::AcqRel) >= max_conns {
            gauges.live.fetch_sub(1, Ordering::AcqRel);
            gauges.refused.fetch_add(1, Ordering::Relaxed);
            eprintln!("{peer} refused: connection cap {max_conns} reached");
            refuse_connection(stream, max_conns);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let slot = ConnectionSlot(Arc::clone(&gauges));
        let engine = Arc::clone(engine);
        std::thread::spawn(move || {
            let gauges = Arc::clone(&slot.0);
            let _slot = slot;
            serve_connection(&engine, &gauges, stream, peer, batch);
        });
    }
}

/// How long a refused connection is drained before it is closed.
pub(crate) const REFUSAL_LINGER: Duration = Duration::from_secs(1);

/// Sends an over-cap connection its bounded error line and half-closes
/// it (shared by the threaded accept loop and the reactor). The caller
/// then reads and discards until the peer's EOF, bounded by
/// [`REFUSAL_LINGER`], before it closes the socket: closing with unread
/// input makes the kernel answer with a reset, which can destroy the
/// refusal line before the peer reads it. On a non-blocking socket the
/// write is best effort — one small write into an empty send buffer.
pub(crate) fn send_refusal(mut stream: &TcpStream, max_conns: usize) {
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
    let _ = stream.shutdown(Shutdown::Write);
}

/// Refuses one over-cap connection of the threaded front: the refusal
/// line, then a drain of the peer's input on a short-lived thread, so
/// the accept loop never waits on a refused client.
fn refuse_connection(stream: TcpStream, max_conns: usize) {
    send_refusal(&stream, max_conns);
    std::thread::spawn(move || {
        let deadline = Instant::now() + REFUSAL_LINGER;
        let mut sink = [0u8; 4096];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                return;
            }
            match (&stream).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    });
}

/// One connection's service loop (runs on its own thread).
fn serve_connection(
    engine: &SharedEngine,
    gauges: &ConnGauges,
    stream: TcpStream,
    peer: std::net::SocketAddr,
    batch: usize,
) {
    eprintln!("serving {peer}");
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("clone failed for {peer}: {e}");
            return;
        }
    };
    match serve_shared_gauged(engine, Some(gauges), reader, stream, batch) {
        Ok(summary) => eprintln!(
            "{peer} done: {} requests, {} parse errors",
            summary.requests, summary.parse_errors
        ),
        Err(e) => eprintln!("{peer} aborted: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_analysis::semi::CarryInStrategy;

    fn run_lines(input: &str, batch: usize) -> (ServeSummary, Vec<String>) {
        let mut engine = ShardedEngine::new(CarryInStrategy::Exhaustive, 2);
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(
            &mut engine,
            BufReader::new(input.as_bytes()),
            &mut out,
            batch,
        )
        .unwrap();
        let _ = engine.shutdown();
        let text = String::from_utf8(out).unwrap();
        (summary, text.lines().map(str::to_owned).collect())
    }

    const SESSION: &str = "\
{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[{\"wcet_ms\":240,\"period_ms\":500,\"core\":0},{\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}
{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}
{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":223,\"t_max_ms\":10000}
not json at all
{\"op\":\"query\",\"tenant\":1}
";

    #[test]
    fn serves_a_session_in_order_for_any_batch_cap() {
        let reference = run_lines(SESSION, 1);
        assert_eq!(reference.0.requests, 5);
        assert_eq!(reference.0.responses, 5);
        assert_eq!(reference.0.parse_errors, 1);
        // The rover's admitted periods appear in the final query line.
        assert!(reference.1[4].contains("\"periods_ms\":[7582,2783]"));
        assert!(reference.1[3].contains("\"verdict\":\"error\""));
        for batch in [2, 64] {
            let run = run_lines(SESSION, batch);
            assert_eq!(run.1, reference.1, "batch={batch}");
        }
    }

    #[test]
    fn every_line_gets_a_seq_aligned_answer() {
        let (_, lines) = run_lines(SESSION, 8);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")), "line {i}: {line}");
        }
    }

    #[test]
    fn empty_input_serves_nothing() {
        let (summary, lines) = run_lines("", 4);
        assert_eq!(summary, ServeSummary::default());
        assert!(lines.is_empty());
    }

    #[test]
    fn oversized_lines_are_rejected_without_buffering_them() {
        // A 3 MiB newline-less prefix must not be accumulated: it is
        // answered with a bounded error line and the stream stays
        // line-synchronized for the request that follows.
        let mut input = "x".repeat(3 * MAX_LINE_BYTES);
        input.push('\n');
        input.push_str("{\"op\":\"query\",\"tenant\":5}\n");
        let (summary, lines) = run_lines(&input, 4);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.parse_errors, 1);
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        // The follow-up request parsed fine (unknown tenant, but the
        // protocol understood it — proof the stream re-synchronized).
        assert!(lines[1].contains("unknown tenant 5"), "{}", lines[1]);
    }

    #[test]
    fn unterminated_final_line_is_still_served() {
        let (summary, lines) = run_lines("{\"op\":\"query\",\"tenant\":9}", 4);
        assert_eq!(summary.requests, 1);
        assert!(lines[0].contains("unknown tenant 9"));
    }

    /// Binds an ephemeral port and serves it on a background thread.
    fn spawn_server(shards: usize, max_conns: usize) -> std::net::SocketAddr {
        let engine = shared(ShardedEngine::new(CarryInStrategy::TopDiff, shards));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let _ = serve_listener(&engine, &listener, 8, max_conns);
        });
        addr
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: std::net::SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send(&mut self, line: &str) {
            self.try_send(line).unwrap();
        }

        /// Like `send`, but surfaces the error — a refused connection
        /// may already be closed when the client writes.
        fn try_send(&mut self, line: &str) -> std::io::Result<()> {
            self.stream.write_all(line.as_bytes())?;
            self.stream.write_all(b"\n")
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "server closed the connection");
            line.trim_end().to_string()
        }
    }

    #[test]
    fn simultaneous_clients_are_served_over_one_shared_engine() {
        let addr = spawn_server(2, 4);
        // Client A connects first and goes idle without sending a byte.
        let mut a = Client::connect(addr);
        // Client B is accepted and fully served while A sits idle — a
        // sequential accept loop would park B behind A forever.
        let mut b = Client::connect(addr);
        b.send(
            "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
             {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
             {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}",
        );
        assert!(b.recv().contains("\"verdict\":\"accept\""));
        b.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        assert!(b.recv().contains("\"periods_ms\":[7582]"));
        // A — open since before B's requests — sees the tenant B
        // registered: one engine serves every connection.
        a.send("{\"op\":\"query\",\"tenant\":1}");
        assert!(a.recv().contains("\"periods_ms\":[7582]"));
        // And both can keep interleaving.
        b.send("{\"op\":\"query\",\"tenant\":1}");
        a.send("{\"op\":\"query\",\"tenant\":1}");
        assert!(b.recv().contains("\"verdict\":\"accept\""));
        assert!(a.recv().contains("\"verdict\":\"accept\""));
    }

    /// A refused client that sent a request before reading still gets
    /// the whole refusal line: the threaded front half-closes the refused
    /// socket and drains its input rather than resetting it under the
    /// line.
    #[test]
    fn a_refused_client_that_already_sent_a_request_reads_the_refusal() {
        let addr = spawn_server(1, 1);
        let mut holder = Client::connect(addr);
        holder.send("{\"op\":\"query\",\"tenant\":9}");
        assert!(holder.recv().contains("unknown tenant 9"));
        for i in 0..200 {
            let mut c = Client::connect(addr);
            c.send("{\"op\":\"query\",\"tenant\":9}");
            let line = c.recv();
            assert!(line.contains("connection cap"), "attempt {i}: {line}");
        }
    }

    #[test]
    fn connections_beyond_the_cap_are_refused_then_admitted_again() {
        let addr = spawn_server(1, 1);
        // A round trip guarantees A's service thread holds the one slot.
        let mut a = Client::connect(addr);
        a.send("{\"op\":\"query\",\"tenant\":9}");
        assert!(a.recv().contains("unknown tenant 9"));
        // B exceeds the cap: refused with a protocol error line.
        let mut b = Client::connect(addr);
        assert!(b.recv().contains("connection cap"), "expected refusal");
        // Closing A frees the slot (its thread exits on EOF); a new
        // client is admitted again. The release races the next accept,
        // so poll briefly.
        drop(a);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let mut c = Client::connect(addr);
            // The write races the refusal: a refused socket may already
            // be closed, which is just another "try again" signal.
            let line = match c.try_send("{\"op\":\"query\",\"tenant\":9}") {
                Ok(()) => c.recv(),
                Err(_) => "connection cap".to_string(),
            };
            if line.contains("unknown tenant 9") {
                break; // served again
            }
            assert!(line.contains("connection cap"), "unexpected: {line}");
            assert!(
                std::time::Instant::now() < deadline,
                "slot was never released"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
}
