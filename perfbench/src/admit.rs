//! The `admit` and `admit_durable` workloads: the seeded 64-tenant,
//! 8-profile fleet stream of `record_workload`, replayed over loopback
//! TCP to an in-process reactor (1 reactor, nproc shards).
//!
//! Each run has an open-loop phase at a fixed offered rate and a
//! closed-loop phase at a fixed number of outstanding requests, each on
//! a fresh server. `admit_durable` adds a journal on a disk-backed
//! directory with automatic compaction, replicated to a standby
//! `rts_adaptd` in a separate process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hydra_core::SharedSelectionStore;
use hydra_experiments::{record_workload, RecordedWorkload, ServiceConfig};
use rts_adapt::client::RetryPolicy;
use rts_adapt::engine::{AdaptEngine, Request, Response, RtSpec};
use rts_adapt::journal::{self, JournalDir, TenantSnapshot};
use rts_adapt::json::{self, Json};
use rts_adapt::proto::{parse_request, render_request, render_response};
use rts_adapt::reactor::{bind_reuseport_listeners, serve_reactors, ReactorOptions, Shutdown};
use rts_adapt::replication::Replicator;
use rts_adapt::shard::ShardedEngine;
use rts_adapt::telemetry::Telemetry;
use rts_adapt::ReactorSummary;
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::DeltaEvent;

use crate::loadgen::{self, PhaseResult, Script, Verdict};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{cpu, mix, nproc, stats};

/// Tenants in the fleet (8 profiles, 8 siblings each).
const TENANTS: usize = 64;
/// Requests outstanding over all connections in the closed-loop phase:
/// the repository's own TCP replay (`replay_tcp` in
/// `hydra_experiments::service`) keeps about 64 in flight, split evenly
/// over its connections.
const OUTSTANDING: usize = 64;
/// Offered rate of the open-loop phase, as a share of the closed-loop
/// capacity measured earlier in the same run: loaded, but with headroom
/// for queues to drain.
const OPEN_LOAD_SHARE: f64 = 0.35;
/// Journal compaction threshold of `admit_durable` (accepted deltas per
/// tenant between snapshots).
const COMPACT_EVERY: usize = 32;
/// Closed-loop replays per run, each on a fresh server.
const REPLAYS: usize = 12;
/// Open-loop replays per run, each on a fresh server.
const OPEN_REPLAYS: usize = 12;
/// Replays of each phase in a traced pass, which needs only its first
/// open-loop replay and the probes for the per-layer metrics, and a few
/// replays of each phase for the tracing overhead.
const TRACED_REPLAYS: usize = 4;
/// Fleets of the set-up measurement, each drawn from a seed of its own.
const FLEETS: usize = 12;
/// Set-ups of each fleet, on set-up-only servers spread over the
/// open-loop phase.
const SETUPS_PER_FLEET: usize = 8;
/// Open-loop stream length per second of run length, for `admit`.
const OPEN_PER_SECOND_ADMIT: f64 = 1_000.0;
/// Closed-loop stream length per second of run length, for `admit`.
const CLOSED_PER_SECOND_ADMIT: f64 = 5_000.0;
/// Open-loop stream length per second of run length, for
/// `admit_durable`.
const OPEN_PER_SECOND_DURABLE: f64 = 100.0;
/// Closed-loop stream length per second of run length, for
/// `admit_durable`.
const CLOSED_PER_SECOND_DURABLE: f64 = 300.0;
/// Stream requests of the journal probe: enough for every tenant to
/// reach the compaction threshold (each accepted delta pays an fsync).
const JOURNAL_PROBE: usize = 4_000;
/// Stream requests the proto and shard probes replay.
const PROBE_REQUESTS: usize = 20_000;
/// Single-request round trips of the shard hop probe.
const SHARD_B1: usize = 4_000;
/// Batches of the shard queueing probe.
const SHARD_BATCHES: usize = 16;
/// Batch size of the shard queueing probe.
const SHARD_BATCH: usize = 512;

/// Which of the two server workloads runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// In-memory serving.
    Admit,
    /// Journal + replication.
    Durable,
}

impl Mode {
    /// Stream lengths per second of run length: open loop, closed loop.
    /// Each is a fixed amount of work, so the per-layer counts of a run
    /// do not depend on how fast it went.
    fn per_second(self) -> (f64, f64) {
        match self {
            Mode::Admit => (OPEN_PER_SECOND_ADMIT, CLOSED_PER_SECOND_ADMIT),
            Mode::Durable => (OPEN_PER_SECOND_DURABLE, CLOSED_PER_SECOND_DURABLE),
        }
    }
}

/// Where durable runs keep their files and find the standby binary.
#[derive(Clone, Debug)]
pub struct DurableEnv {
    /// The `rts_adaptd` executable the standby runs.
    pub standby_bin: PathBuf,
    /// A disk-backed scratch directory inside the checkout.
    pub work: PathBuf,
}

/// The recorded stream plus everything the checks compare against.
struct Prepared {
    rec: RecordedWorkload,
    setup_expect: Vec<bool>,
    stream_expect: Vec<bool>,
    final_fp: BTreeMap<u64, u64>,
    setup_scripts: Vec<Script>,
    stream_scripts: Vec<Script>,
    engine: EngineTimes,
}

/// Reference-engine timings, classified by what answered the selection.
#[derive(Default)]
struct EngineTimes {
    memo_hit_ns: Vec<f64>,
    shared_hit_ns: Vec<f64>,
    cold_ns: Vec<f64>,
    render_response_ns: Vec<f64>,
}

/// Shards of the server: one CPU is left to the in-process generator.
fn shards() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn conns() -> usize {
    nproc().min(TENANTS)
}

/// Requests outstanding per connection in the closed-loop phase.
fn closed_window() -> usize {
    (OUTSTANDING / conns()).max(1)
}

fn conn_of(tenant: u64) -> usize {
    ((tenant - 1) as usize) % conns()
}

fn scripts(requests: &[Request]) -> Vec<Script> {
    let mut out = vec![Script::default(); conns()];
    for (i, r) in requests.iter().enumerate() {
        let s = &mut out[conn_of(r.tenant())];
        s.lines.push(render_request(r));
        s.index.push(i);
    }
    out
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Records the stream and replays it through one reference engine (with
/// a shared store, as the shards have), which gives the expected verdict
/// of every request and the final fingerprint of every tenant.
fn prepare(seed: u64, requests: usize, tracer: Option<&Tracer>, out: &mut Outcome) -> Prepared {
    let rec = record(seed, requests);
    let mut engine = reference_engine();
    let mut times = EngineTimes::default();
    let setup_expect = rec
        .setup
        .iter()
        .map(|r| engine.handle(r).is_admitted())
        .collect();
    let mut local = tracer.map(Tracer::local);
    let mut stream_expect = Vec::with_capacity(rec.stream.len());
    let (mut accepted, mut rejected, mut modes) = (0u64, 0u64, 0u64);
    for (i, r) in rec.stream.iter().enumerate() {
        let before = engine.memo_stats();
        let open = local.as_ref().map(|l| l.open());
        let t = Instant::now();
        let resp = engine.handle(r);
        let ns = t.elapsed().as_nanos() as f64;
        if let (Some(l), Some(o)) = (local.as_mut(), open) {
            l.close(o, "engine.handle", None, i as u64);
        }
        let after = engine.memo_stats();
        if after.misses > before.misses {
            times.cold_ns.push(ns);
        } else if after.shared_hits > before.shared_hits {
            times.shared_hit_ns.push(ns);
        } else if after.hits > before.hits {
            times.memo_hit_ns.push(ns);
        }
        if let Some(l) = local.as_mut() {
            if i < PROBE_REQUESTS {
                let t = Instant::now();
                let line = l.time(
                    "proto.render_response",
                    open.map(|o| o.id),
                    i as u64,
                    || render_response(i as u64, &resp),
                );
                times.render_response_ns.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(line);
            }
        }
        let admitted = resp.is_admitted();
        match &resp {
            Response::Admitted(_) => accepted += 1,
            Response::Rejected { .. } => rejected += 1,
            _ => {}
        }
        if let Request::Delta {
            event: DeltaEvent::ModeChange { .. },
            ..
        } = r
        {
            modes += 1;
        }
        stream_expect.push(admitted);
    }
    drop(local);
    out.check(
        &format!(
            "reference replay verdicts {accepted}/{rejected} equal record_workload's {}/{}",
            rec.accepted, rec.rejected
        ),
        accepted == rec.accepted && rejected == rec.rejected,
        1,
    );
    let memo = engine.memo_stats();
    let answered = memo.hits + memo.shared_hits + memo.misses;
    let n = rec.stream.len().max(1) as f64;
    if !rec.stream.is_empty() {
        out.note(format!(
            "stream: {} requests, mode-switch share {:.4}, accepted-delta share {:.4}, \
         memo hit ratio {:.4} (own {} + shared {} of {} selections)",
            rec.stream.len(),
            modes as f64 / n,
            accepted as f64 / n,
            (memo.hits + memo.shared_hits) as f64 / answered.max(1) as f64,
            memo.hits,
            memo.shared_hits,
            answered
        ));
    }
    let final_fp = (1..=TENANTS as u64)
        .filter_map(|t| Some((t, engine.tenant(t)?.admitted_fingerprint())))
        .collect();
    Prepared {
        setup_scripts: scripts(&rec.setup),
        stream_scripts: scripts(&rec.stream),
        rec,
        setup_expect,
        stream_expect,
        final_fp,
        engine: times,
    }
}

fn record(seed: u64, requests: usize) -> RecordedWorkload {
    record_workload(&ServiceConfig {
        tenants: TENANTS,
        requests,
        shards: shards(),
        batch: 512,
        seed,
    })
}

fn reference_engine() -> AdaptEngine {
    AdaptEngine::new(CarryInStrategy::TopDiff).with_shared_store(SharedSelectionStore::new())
}

/// What the journal probe measured.
#[derive(Default)]
struct JournalTimes {
    append_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    bytes: u64,
}

/// The journal on its own: a stream of [`JOURNAL_PROBE`] requests through
/// a reference engine, each accepted delta appended to a journal in
/// `dir` as the engine would, and the tenant snapshotted once its tail
/// reaches the compaction threshold. Each call is timed and traced.
fn journal_probe(seed: u64, dir: &Path, tracer: Option<&Tracer>) -> JournalTimes {
    let _ = std::fs::remove_dir_all(dir);
    let journal = JournalDir::at(dir);
    let rec = record(seed, JOURNAL_PROBE);
    let mut engine = reference_engine();
    let mut regs: BTreeMap<u64, (usize, Vec<RtSpec>)> = BTreeMap::new();
    for r in &rec.setup {
        engine.handle(r);
        if let Request::Register { tenant, cores, rt } = r {
            journal
                .begin_tenant(*tenant, *cores, rt)
                .expect("journal probe registration");
            regs.insert(*tenant, (*cores, rt.clone()));
        }
    }
    let mut local = tracer.map(Tracer::local);
    let mut timed = |name: &'static str, req: usize, f: &mut dyn FnMut()| {
        let open = local.as_ref().map(|l| l.open());
        let t = Instant::now();
        f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let (Some(l), Some(o)) = (local.as_mut(), open) {
            l.close(o, name, None, req as u64);
        }
        us
    };
    let mut times = JournalTimes::default();
    let mut tails: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, r) in rec.stream.iter().enumerate() {
        let Request::Delta { tenant, event } = r else {
            unreachable!("the recorded stream holds only deltas")
        };
        if !engine.handle(r).is_admitted() {
            continue;
        }
        let path = journal.path_for(*tenant);
        let len = file_len(&path);
        times.append_us.push(timed("journal.append", i, &mut || {
            journal
                .append_event(*tenant, event)
                .expect("journal probe append");
        }));
        times.bytes += file_len(&path) - len;
        let tail = tails.entry(*tenant).or_default();
        *tail += 1;
        if *tail >= COMPACT_EVERY {
            *tail = 0;
            let (cores, rt) = &regs[tenant];
            let snapshot = TenantSnapshot::of(engine.tenant(*tenant).expect("registered tenant"));
            times
                .snapshot_us
                .push(timed("journal.snapshot", i, &mut || {
                    journal
                        .snapshot_tenant(*tenant, *cores, rt, &snapshot)
                        .expect("journal probe snapshot");
                }));
            times.bytes += file_len(&path);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    times
}

/// A standby `rts_adaptd` in its own process.
struct Standby {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
    log: JoinHandle<()>,
}

impl Standby {
    fn spawn(bin: &Path, dir: &Path) -> Standby {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the standby directory");
        let mut child = Command::new(bin)
            .args([
                "--tcp",
                "127.0.0.1:0",
                "--shards",
                "1",
                "--no-telemetry",
                "--journal",
            ])
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start the standby {}: {e}", bin.display()));
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("standby banner");
        let addr = line
            .split_whitespace()
            .find_map(|w| w.parse::<SocketAddr>().ok())
            .unwrap_or_else(|| panic!("standby did not report its address: {line:?}"));
        // Keep draining its log so it can never block on a full pipe.
        let log = std::thread::spawn(move || for _ in stderr.lines() {});
        Standby {
            child,
            addr,
            dir: dir.to_path_buf(),
            log,
        }
    }

    /// Closes its stdin (its shutdown signal) and waits for it to exit.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && !matches!(self.child.try_wait(), Ok(Some(_))) {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.log.join();
    }
}

/// One fresh in-process server and, for durable runs, its standby.
struct Server {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    thread: JoinHandle<std::io::Result<ReactorSummary>>,
    durable: Option<(Replicator, PathBuf, Standby)>,
}

fn start_server(mode: Mode, env: &DurableEnv, tag: &str, telemetry: bool) -> Server {
    let durable = (mode == Mode::Durable).then(|| {
        let root = env.work.join(tag);
        let primary = root.join("primary");
        let _ = std::fs::remove_dir_all(&primary);
        let standby = Standby::spawn(&env.standby_bin, &root.join("standby"));
        let heal = JournalDir::at(&primary).with_compaction(COMPACT_EVERY);
        let repl = Replicator::spawn("perfbench", standby.addr, RetryPolicy::quick(), Some(heal));
        (repl, primary, standby)
    });
    let listeners = bind_reuseport_listeners("127.0.0.1:0".parse().expect("loopback"), 1)
        .expect("bind the reactor listener");
    let addr = listeners[0].local_addr().expect("listener address");
    let mut options = ReactorOptions::new(CarryInStrategy::TopDiff, shards());
    options.max_conns = conns() + 8;
    options.telemetry = telemetry;
    options.journal = durable.as_ref().map(|(repl, primary, _)| {
        JournalDir::at(primary)
            .with_compaction(COMPACT_EVERY)
            .with_replication(repl.clone())
    });
    let shutdown = Shutdown::new();
    let thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve_reactors(listeners, &options, &shutdown))
    };
    Server {
        addr,
        shutdown,
        thread,
        durable,
    }
}

fn connect(addr: SocketAddr) -> Vec<TcpStream> {
    (0..conns())
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect to the reactor");
            s.set_nodelay(true).expect("TCP_NODELAY");
            s.set_write_timeout(Some(Duration::from_secs(10)))
                .expect("write timeout");
            s
        })
        .collect()
}

/// Counts requests whose verdict differs from the expected one
/// (missing and error responses included).
fn wrong(result: &PhaseResult, expect: &[bool]) -> u64 {
    result
        .verdicts
        .iter()
        .zip(expect)
        .filter(|(v, &e)| **v != if e { Verdict::Accept } else { Verdict::Reject })
        .count() as u64
}

fn fetch_metrics(addr: SocketAddr) -> Option<Json> {
    let mut sock = TcpStream::connect(addr).ok()?;
    sock.write_all(b"{\"op\":\"metrics\"}\n").ok()?;
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).ok()?;
    json::parse(line.trim()).ok()
}

/// What one server's life produced.
struct Life {
    setup_s: f64,
    phase: Option<PhaseResult>,
    process_cpu: Duration,
    metrics: Option<Json>,
    fsyncs: u64,
    accepted: u64,
    lag_ops: Vec<f64>,
    drain_ms: f64,
    repl: Option<rts_adapt::ReplStats>,
    /// Growth of the process's resident memory over the server's life:
    /// peak (`VmHWM`) minus the resident size when the server started.
    rss_mb: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    SetupOnly,
    /// Open loop at this many requests per second.
    Open(f64),
    Closed,
}

/// Starts a fresh server, registers the fleet, runs one phase, stops
/// the server and, for durable runs, checks the journal and the replica.
fn life(
    mode: Mode,
    env: &DurableEnv,
    p: &Prepared,
    phase: Phase,
    tag: &str,
    telemetry: bool,
    out: &mut Outcome,
) -> Life {
    let n = p.rec.stream.len();
    let selections0 = hydra_core::phase_stats::snapshot().selections;
    let journal0 = journal::stats();
    // The generator's records are allocated before the memory baseline.
    let setup_records = PhaseResult::new(p.rec.setup.len());
    let records = (phase != Phase::SetupOnly).then(|| PhaseResult::new(n));
    let rss0 = cpu::reset_peak_rss_mb();
    let started = Instant::now();
    let server = start_server(mode, env, tag, telemetry);
    let mut conns = connect(server.addr);
    let setup_deadline = Instant::now() + Duration::from_secs(60);
    // The fleet registers in bulk: each connection pipelines its whole
    // set-up script.
    let window = p.rec.setup.len();
    let setup = loadgen::closed_loop(
        &mut conns,
        &p.setup_scripts,
        window,
        setup_deadline,
        setup_records,
    );
    let setup_s = started.elapsed().as_secs_f64();
    let setup_wrong = wrong(&setup, &p.setup_expect);
    out.attempted += p.rec.setup.len() as u64;

    let sampling = Arc::new(AtomicBool::new(phase != Phase::SetupOnly && telemetry));
    let sampler = server.durable.as_ref().map(|(repl, _, _)| {
        let (repl, sampling) = (repl.clone(), Arc::clone(&sampling));
        std::thread::spawn(move || {
            let mut lag = Vec::new();
            while sampling.load(Ordering::Relaxed) {
                let s = repl.stats();
                lag.push(s.enqueued.saturating_sub(s.delivered + s.dropped) as f64);
                std::thread::sleep(Duration::from_millis(5));
            }
            lag
        })
    });
    // The closed loop runs on this thread and the server's threads live
    // until shutdown, so the live threads' time covers the phase.
    let cpu0 = cpu::live_threads_cpu();
    let result = records.map(|records| match phase {
        Phase::Open(rate) => loadgen::open_loop(
            &conns,
            &p.stream_scripts,
            rate,
            Instant::now() + Duration::from_secs_f64(10.0 + 5.0 * n as f64 / rate),
            records,
        ),
        _ => loadgen::closed_loop(
            &mut conns,
            &p.stream_scripts,
            closed_window(),
            Instant::now() + Duration::from_secs(60),
            records,
        ),
    });
    let process_cpu = cpu::live_threads_cpu().saturating_sub(cpu0);
    sampling.store(false, Ordering::Relaxed);
    let lag_ops = sampler.map_or_else(Vec::new, |s| s.join().expect("lag sampler"));
    let metrics = fetch_metrics(server.addr);
    let selections = hydra_core::phase_stats::snapshot().selections - selections0;
    drop(conns);
    server.shutdown.request();
    let summary = server.thread.join().expect("reactor thread panicked");
    let rss_mb = cpu::peak_rss_mb() - rss0;
    out.check(
        &format!("{tag}: reactor stopped cleanly"),
        summary.is_ok(),
        1,
    );
    let journal1 = journal::stats();

    let mut accepted = setup
        .verdicts
        .iter()
        .filter(|v| **v == Verdict::Accept)
        .count() as u64;
    if let Some(r) = &result {
        let bad = wrong(r, &p.stream_expect);
        let acc = r.verdicts.iter().filter(|v| **v == Verdict::Accept).count() as u64;
        let rej = r.verdicts.iter().filter(|v| **v == Verdict::Reject).count() as u64;
        out.attempted += n as u64;
        out.failed += bad;
        accepted += acc;
        out.note(format!(
            "{tag}: {} setup + {n} stream requests, {acc} accepted / {rej} rejected \
             (recorded {}/{}), {bad} wrong or missing",
            p.rec.setup.len(),
            p.rec.accepted,
            p.rec.rejected
        ));
        out.check(
            &format!("{tag}: accepted/rejected counts equal record_workload's"),
            acc == p.rec.accepted && rej == p.rec.rejected,
            1,
        );
        // Counter hygiene: the process-wide selection counter, read as a
        // delta around this server's life, must equal the cold solves
        // its shards report.
        let misses: u64 = metrics
            .as_ref()
            .and_then(|m| m.get("shards")?.as_array().map(<[Json]>::to_vec))
            .map_or(0, |shards| {
                shards
                    .iter()
                    .filter_map(|s| s.get("memo_misses")?.as_u64())
                    .sum()
            });
        out.check(
            &format!(
                "{tag}: core.selections delta {selections} equals the shards' memo misses {misses}"
            ),
            selections == misses && metrics.is_some(),
            1,
        );
    }
    out.check(
        &format!("{tag}: set-up verdicts match ({setup_wrong} wrong)"),
        setup_wrong == 0,
        setup_wrong,
    );

    let mut drain_ms = 0.0;
    let mut repl_stats = None;
    if let Some((repl, primary, standby)) = server.durable {
        let t = Instant::now();
        let flushed = repl.flush(Duration::from_secs(60));
        drain_ms = t.elapsed().as_secs_f64() * 1e3;
        let st = repl.stats();
        repl_stats = Some(st);
        out.check(&format!("{tag}: replication drained ({st:?})"), flushed, 1);
        if phase != Phase::SetupOnly {
            check_durable(&primary, &standby.dir, p, tag, out);
        }
        drop(repl);
        standby.stop();
        let _ = std::fs::remove_dir_all(env.work.join(tag));
    }
    Life {
        setup_s,
        phase: result,
        process_cpu,
        metrics,
        fsyncs: journal1.fsyncs - journal0.fsyncs,
        accepted,
        lag_ops,
        drain_ms,
        repl: repl_stats,
        rss_mb,
    }
}

/// Replica files must be byte-identical to the primary's journal, and
/// replaying the primary's journal must reproduce every tenant's final
/// fingerprint.
fn check_durable(primary: &Path, standby: &Path, p: &Prepared, tag: &str, out: &mut Outcome) {
    let journal = JournalDir::at(primary);
    let replica = standby.join("replica");
    let (mut identical, mut replayed) = (0usize, 0usize);
    for (&tenant, &fp) in &p.final_fp {
        let path = journal.path_for(tenant);
        let name = path.file_name().expect("tenant file name");
        let ours = std::fs::read(&path).ok();
        if ours.is_some() && ours == std::fs::read(replica.join(name)).ok() {
            identical += 1;
        }
        let state = journal
            .load_tenant(tenant)
            .ok()
            .and_then(|h| journal::replay(&h, CarryInStrategy::TopDiff).ok());
        if state.is_some_and(|s| s.admitted_fingerprint() == fp) {
            replayed += 1;
        }
    }
    let tenants = p.final_fp.len();
    out.check(
        &format!(
            "{tag}: {identical}/{tenants} replica files byte-identical to the primary journal"
        ),
        identical == tenants,
        (tenants - identical) as u64,
    );
    out.check(
        &format!("{tag}: {replayed}/{tenants} journals replay to the final fingerprints"),
        replayed == tenants,
        (tenants - replayed) as u64,
    );
}

fn stage(metrics: &Json, stage: &str, key: &str) -> f64 {
    metrics
        .get("stages")
        .and_then(|s| s.get(stage))
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Stream lengths of a run: open loop, closed loop.
fn stream_lens(mode: Mode, seconds: f64) -> (usize, usize) {
    let (open, closed) = mode.per_second();
    let len = |per_second: f64| (per_second * seconds).round().max(1.0) as usize;
    (len(open), len(closed))
}

/// The end-to-end pass: the closed-loop phase, which gives capacity,
/// then the open-loop phase at [`OPEN_LOAD_SHARE`] of it, with
/// set-up-only servers before each open-loop replay. Each phase records
/// its own stream once and replays it on fresh servers, with telemetry
/// off (or on, for the traced pass).
///
/// Wall-clock metrics report the best replay (lowest latency, highest
/// throughput): on a shared host, CPU steal comes in bursts that slow
/// whole replays, and the best of many short replays is the one it
/// disturbed least. `setup_s` is the median over [`FLEETS`] fleets of
/// each fleet's fastest set-up. `cpu_us_per_op` counts CPU time, which
/// steal does not inflate, and reports the median.
/// `peak_rss_mb` is the largest growth of resident memory over one
/// server's life.
///
/// Without `closed_phase` (the durable section of a traced run, whose
/// closed loop trips the replication defect the README describes), the
/// capacity is estimated instead from the measured cost of a small
/// append + fdatasync: each accepted delta pays one on the primary and
/// one on the standby, both on the same disk.
pub fn run(
    mode: Mode,
    env: &DurableEnv,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    closed_phase: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let traced = tracer.is_some();
    let (n_open, n_closed) = stream_lens(mode, seconds);
    let open_p = prepare(seed, n_open, tracer, &mut out);
    let closed_p = closed_phase.then(|| prepare(seed, n_closed, None, &mut out));
    let prefix = if traced { "traced-" } else { "" };
    let mut lives = Vec::new();
    let (mut throughput, mut cpu_per_op) = (Vec::new(), Vec::new());
    let replays = if traced { TRACED_REPLAYS } else { REPLAYS };
    for k in 0..closed_p.as_ref().map_or(0, |_| replays) {
        let closed = life(
            mode,
            env,
            closed_p.as_ref().expect("closed stream prepared"),
            Phase::Closed,
            &format!("{prefix}closed{k}"),
            traced,
            &mut out,
        );
        let r = closed.phase.as_ref().expect("closed phase ran");
        let completed = r.completed();
        throughput.push(r.steady_throughput());
        let (process, generator, ops) =
            r.steady_cpu
                .unwrap_or((closed.process_cpu, r.gen_cpu, completed));
        cpu_per_op.push(cpu::us_per_op(process, generator, ops));
        out.note(format!(
            "closed loop {k}: {completed} requests, {} outstanding per connection over {} \
             connections (one thread), {:.3} s, steady {:.0} /s, {:.2} us CPU/op",
            closed_window(),
            conns(),
            r.wall.as_secs_f64(),
            throughput[k],
            cpu_per_op[k]
        ));
        lives.push(closed);
    }
    let capacity = if closed_phase {
        max(&throughput)
    } else {
        let fsync_us = crate::fsync_cost_us(&env.work);
        out.note(format!(
            "no closed-loop phase: capacity estimated as 1 / (2 x {fsync_us:.1} us fsync)"
        ));
        1e6 / (2.0 * fsync_us.max(1.0))
    };
    let rate = OPEN_LOAD_SHARE * capacity;
    // A traced pass reports no `setup_s`, so it sets up no extra fleets.
    let fleets: Vec<Prepared> = (0..if traced { 0 } else { FLEETS })
        .map(|f| prepare(mix(seed, 7000 + f as u64), 0, None, &mut out))
        .collect();
    let mut setups = Vec::new();
    let mut rss: Vec<f64> = lives.iter().map(|l| l.rss_mb).collect();
    let (mut p50, mut tail, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let setups_per_replay = (FLEETS * SETUPS_PER_FLEET).div_ceil(OPEN_REPLAYS);
    for k in 0..if traced { TRACED_REPLAYS } else { OPEN_REPLAYS } {
        // Set-up-only servers before each open-loop replay spread each
        // fleet's set-ups over the run (set-up `i` registers fleet
        // `i % FLEETS`).
        for _ in 0..setups_per_replay {
            let i = setups.len();
            if i == fleets.len() * SETUPS_PER_FLEET {
                break;
            }
            let setup = life(
                mode,
                env,
                &fleets[i % FLEETS],
                Phase::SetupOnly,
                &format!("{prefix}setup{i}"),
                traced,
                &mut out,
            );
            setups.push(setup.setup_s);
            rss.push(setup.rss_mb);
        }
        let open = life(
            mode,
            env,
            &open_p,
            Phase::Open(rate),
            &format!("{prefix}open{k}"),
            traced,
            &mut out,
        );
        let r = open.phase.as_ref().expect("open phase ran");
        let latency = stats::summary(r.latencies_us());
        let l = stats::summary(r.lag_us());
        out.note(format!(
            "open loop {k}: {n_open} requests at {rate:.0} /s ({OPEN_LOAD_SHARE} of the \
             capacity) over {} connections (sender and receiver threads), latency \
             from due time n={} p50={:.1} p{}={:.1} us; generator lag p{}={:.1} us",
            conns(),
            latency.n,
            latency.p50,
            latency.tail_p,
            latency.tail,
            l.tail_p,
            l.tail
        ));
        p50.push(latency.p50);
        tail.push(latency.tail);
        lag.push(l.tail);
        if traced && k == 0 {
            layer_metrics(&open_p, &open, tracer, &mut out);
        }
        rss.push(open.rss_mb);
        lives.push(open);
    }
    out.put("latency_p50_us", min(&p50), "us");
    out.put("latency_p99_us", min(&tail), "us");
    if traced {
        out.put("gen.lag_us.p99", stats::median_of(lag), "us");
    }
    if closed_phase {
        out.put("throughput_per_s", capacity, "1/s");
        out.put("cpu_us_per_op", stats::median_of(cpu_per_op), "us");
    }
    if !fleets.is_empty() {
        let ms: Vec<String> = setups.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
        out.note(format!("set-up times (ms): {}", ms.join(" ")));
        out.put("setup_s", stats::median_of_fastest(&setups, FLEETS), "s");
    }
    let mb: Vec<String> = rss.iter().map(|m| format!("{m:.1}")).collect();
    out.note(format!(
        "resident memory growth over each server's life (MiB; closed, then set-ups and open \
         in turn): {}",
        mb.join(" ")
    ));
    out.put("peak_rss_mb", max(&rss), "MiB");
    if traced && mode == Mode::Durable {
        let j = journal_probe(seed, &env.work.join("journal_probe"), tracer);
        out.put_summary(
            "journal.append_us",
            stats::summary(j.append_us.clone()),
            "us",
        );
        out.put(
            "journal.snapshot_us.p50",
            stats::median_of(j.snapshot_us),
            "us",
        );
        out.put(
            "journal.bytes_per_accepted",
            j.bytes as f64 / j.append_us.len().max(1) as f64,
            "B",
        );
        durable_metrics(&lives, &mut out);
    }
    out
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Per-layer metrics of the traced pass that come from the first
/// open-loop replay and the probes over its recorded stream.
fn layer_metrics(p: &Prepared, open: &Life, tracer: Option<&Tracer>, out: &mut Outcome) {
    let open_r = open.phase.as_ref().expect("open phase ran");
    out.put(
        "gen.cpu_us_per_op",
        open_r.gen_cpu.as_secs_f64() * 1e6 / open_r.completed().max(1) as f64,
        "us",
    );
    if let Some(t) = tracer {
        let mut local = t.local();
        for i in 0..open_r.done.len() {
            if let (Some(due), Some(done)) = (open_r.due[i], open_r.done[i]) {
                let o = local.open_at(due);
                local.close_at(o, done, "gen.request", None, i as u64);
            }
        }
    }
    engine_metrics(p, out);
    if let Some(m) = &open.metrics {
        // The verb's quantiles are histogram bucket bounds, so they can
        // repeat exactly from run to run; the means are not bucketed.
        for s in ["accept", "queue", "solve", "respond", "flush", "total"] {
            out.put(format!("reactor.{s}_us.p50"), stage(m, s, "p50_us"), "us");
            out.put(format!("reactor.{s}_us.p99"), stage(m, s, "p99_us"), "us");
            out.put(format!("reactor.{s}_us.mean"), stage(m, s, "mean_us"), "us");
        }
        let reactor = m
            .get("reactors")
            .and_then(Json::as_array)
            .and_then(|r| r.first().cloned());
        let field = |k: &str| {
            reactor
                .as_ref()
                .and_then(|r| r.get(k)?.as_f64())
                .unwrap_or(0.0)
        };
        out.put(
            "reactor.iovecs_per_flush",
            field("iovecs_written") / field("flush_passes").max(1.0),
            "count",
        );
    }
    proto_probe(p, tracer, out);
    shard_probe(p, out);
}

/// Journal and replication metrics over the durable phases run.
fn durable_metrics(lives: &[Life], out: &mut Outcome) {
    let fsyncs: u64 = lives.iter().map(|l| l.fsyncs).sum();
    let accepted: u64 = lives.iter().map(|l| l.accepted).sum();
    out.put(
        "journal.fsyncs_per_accepted",
        fsyncs as f64 / accepted.max(1) as f64,
        "count",
    );
    let lag_ops: Vec<f64> = lives
        .iter()
        .flat_map(|l| l.lag_ops.iter().copied())
        .collect();
    out.put_summary("replication.lag_ops", stats::summary(lag_ops), "ops");
    out.put(
        "replication.drain_ms",
        lives.iter().map(|l| l.drain_ms).sum::<f64>() / lives.len().max(1) as f64,
        "ms",
    );
    let (mut enq, mut del, mut heals, mut dropped) = (0, 0, 0, 0);
    for s in lives.iter().filter_map(|l| l.repl) {
        enq += s.enqueued;
        del += s.delivered;
        heals += s.heals;
        dropped += s.dropped;
    }
    out.put(
        "replication.delivered_ratio",
        del as f64 / enq.max(1) as f64,
        "ratio",
    );
    out.note(format!(
        "replication: {enq} enqueued, {del} delivered, {heals} heals, {dropped} dropped"
    ));
}

fn engine_metrics(p: &Prepared, out: &mut Outcome) {
    let e = &p.engine;
    for (name, v) in [
        ("memo_hit", &e.memo_hit_ns),
        ("shared_hit", &e.shared_hit_ns),
        ("cold", &e.cold_ns),
    ] {
        out.put_summary(
            &format!("engine.handle_ns.{name}"),
            stats::summary(v.clone()),
            "ns",
        );
        out.put(
            format!("engine.handle.{name}.count"),
            v.len() as f64,
            "count",
        );
    }
    let hits = (e.memo_hit_ns.len() + e.shared_hit_ns.len()) as f64;
    out.put(
        "engine.hit_ratio",
        hits / (hits + e.cold_ns.len() as f64).max(1.0),
        "ratio",
    );
}

/// Times the wire codec on the recorded lines.
fn proto_probe(p: &Prepared, tracer: Option<&Tracer>, out: &mut Outcome) {
    let mut local = tracer.map(Tracer::local);
    let (mut parse_ns, mut render_ns) = (Vec::new(), Vec::new());
    let mut mismatched = 0u64;
    for (i, r) in p.rec.stream.iter().take(PROBE_REQUESTS).enumerate() {
        let t = Instant::now();
        let line = match local.as_mut() {
            Some(l) => l.time("proto.render_request", None, i as u64, || render_request(r)),
            None => render_request(r),
        };
        render_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let parsed = match local.as_mut() {
            Some(l) => l.time("proto.parse_request", None, i as u64, || {
                parse_request(&line)
            }),
            None => parse_request(&line),
        };
        parse_ns.push(t.elapsed().as_nanos() as f64);
        if parsed.as_ref() != Ok(r) {
            mismatched += 1;
        }
    }
    out.check(
        &format!("proto: {mismatched} recorded requests did not survive render → parse"),
        mismatched == 0,
        mismatched,
    );
    out.put(
        "proto.parse_request_ns.p50",
        stats::median_of(parse_ns),
        "ns",
    );
    out.put(
        "proto.render_response_ns.p50",
        stats::median_of(p.engine.render_response_ns.clone()),
        "ns",
    );
    out.put(
        "proto.render_request_ns.p50",
        stats::median_of(render_ns),
        "ns",
    );
}

/// The shard layer on its own: single-request round trips (hop time =
/// submit → receive minus the engine's own time) and 512-request batches
/// (time a request waits in its shard's queue). Only trace-sampled
/// requests carry the worker's stamps.
fn shard_probe(p: &Prepared, out: &mut Outcome) {
    let telemetry = Telemetry::new();
    let mut pool = ShardedEngine::with_telemetry(
        CarryInStrategy::TopDiff,
        nproc(),
        None,
        None,
        Arc::clone(&telemetry),
    );
    let _ = pool.process(p.rec.setup.clone());
    let stream = &p.rec.stream[..p
        .rec
        .stream
        .len()
        .min(SHARD_B1 + SHARD_BATCHES * SHARD_BATCH)];
    let b1 = (stream.len() / 2).min(SHARD_B1);
    let mut hop_us = Vec::new();
    let mut wrong = 0u64;
    for (i, r) in stream[..b1].iter().enumerate() {
        let t = Instant::now();
        pool.submit_batch(vec![(i as u64, r.clone())]);
        let (_, resp, meta) = pool.recv_traced().expect("one answer per request");
        let elapsed = t.elapsed().as_nanos() as u64;
        wrong += u64::from(resp.is_admitted() != p.stream_expect[i]);
        if meta.dequeue_ns != 0 {
            hop_us.push(elapsed.saturating_sub(meta.solve_ns) as f64 / 1e3);
        }
    }
    let mut wait_us = Vec::new();
    for (c, chunk) in stream[b1..].chunks(SHARD_BATCH).enumerate() {
        let base = b1 + c * SHARD_BATCH;
        pool.submit_batch(
            chunk
                .iter()
                .enumerate()
                .map(|(k, r)| ((base + k) as u64, r.clone()))
                .collect(),
        );
        while let Some((seq, resp, meta)) = pool.recv_traced() {
            wrong += u64::from(resp.is_admitted() != p.stream_expect[seq as usize]);
            if meta.dequeue_ns != 0 {
                wait_us.push(meta.dequeue_ns.saturating_sub(meta.submit_ns) as f64 / 1e3);
            }
        }
    }
    let _ = pool.shutdown();
    out.check(
        &format!("shard probe: {wrong} verdicts differ from the reference"),
        wrong == 0,
        wrong,
    );
    out.put_summary("shard.hop_us.b1", stats::summary(hop_us), "us");
    out.put_summary("shard.wait_us.b512", stats::summary(wait_us), "us");
}
