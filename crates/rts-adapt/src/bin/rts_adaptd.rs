//! `rts_adaptd` — the admission & period-adaptation daemon.
//!
//! Usage:
//!
//! ```sh
//! rts_adaptd [--shards N] [--batch N] [--strategy topdiff|exhaustive]
//!            [--tcp ADDR] [--reactors N] [--max-conns N]
//!            [--journal DIR] [--compact-every N] [--retain-archives N]
//!            [--replicate-to ADDR --source ID] [--no-telemetry]
//! ```
//!
//! Without `--tcp` the daemon speaks the line protocol on stdin/stdout
//! (one JSON request per line, one JSON response per line — see
//! `rts_adapt::proto`); with `--tcp ADDR` it binds the address and
//! serves up to `--max-conns` connections (default 64) through the
//! event-driven reactor (`rts_adapt::reactor`): epoll threads over one
//! engine shard pool, no per-connection threads. `--reactors N`
//! (default 1) runs N reactors, each with its own `SO_REUSEPORT`
//! listener on the same address — the kernel spreads connections across
//! them and `--max-conns` becomes a global budget split evenly.
//! `--batch` bounds request batching in stdin mode; the reactor sizes
//! batches adaptively by arrival rate.
//!
//! An unknown flag, a flag without its value, or a numeric value that
//! does not parse exits with code 2 before anything is served — a
//! supervisor script with a stale or mistyped flag fails loudly instead
//! of running on defaults.
//!
//! **Graceful shutdown**: in stdin mode, EOF ends the serve loop; in
//! reactor mode, a watcher thread waits for stdin EOF (Ctrl-D, or the
//! supervisor closing the pipe) and asks the reactor to drain — the
//! listener closes, already-connected clients are served until quiet,
//! and the shard workers are joined. Both paths fsync journal appends
//! as they happen, so an orderly stop loses no accepted delta.
//!
//! With `--journal DIR` every registration and accepted delta is
//! appended to a per-tenant event log under `DIR`, and existing
//! journals are **replayed on startup** (snapshot restore, then the
//! tail) in every mode — a restarted daemon answers for every
//! previously journaled tenant without re-registration (see
//! `rts_adapt::journal`). A tenant's journal is automatically compacted
//! to a registration + snapshot pair once its tail reaches
//! `--compact-every` accepted deltas (default 512; `0` disables
//! compaction). `--retain-archives N` keeps only the newest N retired/
//! corrupt archive generations per tenant (default: keep everything).
//! The `export` / `import` / `evict` protocol verbs hand a
//! tenant off between two daemons (see the README's Operations section
//! for the runbook).
//!
//! With `--replicate-to ADDR` (requires `--journal` and `--source ID`)
//! every journal mutation is streamed to the standby daemon at `ADDR`
//! over the `replicate` protocol verb (see `rts_adapt::replication`),
//! stamped with this daemon's `--source ID` — which must be unique
//! among the daemons replicating to one standby, or the standby's
//! source-owner guard cannot tell their streams apart; the standby
//! keeps a lagged byte-identical replica of each tenant's journal and
//! promotes it on `{"op":"adopt"}` — the fleet coordinator (`rts-coord`)
//! drives that failover. Graceful shutdown flushes the replication
//! stream after the serve loop drains.
//!
//! Telemetry (stage-latency histograms, the slow-request ring, the
//! `{"op":"metrics"}` verb — see `rts_adapt::telemetry`) is on by
//! default in every mode; `--no-telemetry` selects the zero-clock-read
//! path: the metrics verb still answers, with every histogram empty.

use std::io::{self, BufReader, Read};
use std::sync::Arc;

use rts_adapt::client::RetryPolicy;
use rts_adapt::journal::JournalDir;
use rts_adapt::reactor::{bind_reuseport_listeners, serve_reactors, ReactorOptions, Shutdown};
use rts_adapt::replication::Replicator;
use rts_adapt::server::serve;
use rts_adapt::shard::{ShardReport, ShardedEngine};
use rts_adapt::telemetry::Telemetry;
use rts_analysis::semi::CarryInStrategy;

/// Flags that take a value.
const VALUE_FLAGS: [&str; 11] = [
    "--shards",
    "--batch",
    "--strategy",
    "--tcp",
    "--reactors",
    "--max-conns",
    "--journal",
    "--compact-every",
    "--retain-archives",
    "--replicate-to",
    "--source",
];
/// Flags that stand alone.
const SWITCHES: [&str; 1] = ["--no-telemetry"];

/// Exits with code 2 (a usage error) before anything is served.
fn usage_error(message: &str) -> ! {
    eprintln!("rts_adaptd: {message}");
    std::process::exit(2);
}

/// Rejects any argument that is not a known flag, and a value flag
/// without its value.
fn check_flags(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            if rest.next().is_none() {
                usage_error(&format!("{arg} needs a value"));
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            usage_error(&format!("unknown argument {arg:?}"));
        }
    }
}

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value of a numeric flag, or `default` when the flag is absent.
fn count_arg(args: &[String], flag: &str, default: usize) -> usize {
    arg_value(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            usage_error(&format!("{flag} expects a non-negative integer, got {v:?}"))
        })
    })
}

fn report_shards(reports: &[ShardReport]) {
    let handled: u64 = reports.iter().map(|r| r.handled).sum();
    let hits: u64 = reports.iter().map(|r| r.memo.hits).sum();
    let misses: u64 = reports.iter().map(|r| r.memo.misses).sum();
    eprintln!(
        "rts_adaptd: {} shards handled {handled} requests ({hits} memo hits, {misses} misses)",
        reports.len()
    );
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("rts_adaptd: {e}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args);
    let shards = count_arg(&args, "--shards", 4);
    let batch = count_arg(&args, "--batch", 256);
    let strategy = match arg_value(&args, "--strategy") {
        None | Some("topdiff") => CarryInStrategy::TopDiff,
        Some("exhaustive") => CarryInStrategy::Exhaustive,
        Some(other) => usage_error(&format!(
            "unknown strategy {other:?} (use topdiff or exhaustive)"
        )),
    };
    let max_conns = count_arg(&args, "--max-conns", 64);
    let reactors = count_arg(&args, "--reactors", 1).max(1);
    let compact_every = count_arg(&args, "--compact-every", 512);
    let retain_archives = count_arg(&args, "--retain-archives", 0);

    // Replication piggybacks on the journal: the replicator mirrors
    // every journal-file mutation to the standby, and self-heals from
    // the journal files themselves (hence the pre-replication clone it
    // is handed). A replication stream without a journal has nothing to
    // mirror, so the combination is refused rather than half-working.
    let replicate_to = arg_value(&args, "--replicate-to");
    let mut replicator: Option<Replicator> = None;
    let journal = match arg_value(&args, "--journal") {
        Some(dir) => {
            let mut journal = JournalDir::at(dir)
                .with_compaction(compact_every)
                .with_archive_retention(retain_archives);
            if let Some(standby) = replicate_to {
                let standby = standby.parse().unwrap_or_else(|e| fail(e));
                // No default source id: two primaries sharing one
                // standby with the same id would defeat the standby's
                // source-owner guard that makes hand-off races
                // harmless, so colliding silently is worse than
                // refusing to start.
                let source = arg_value(&args, "--source").unwrap_or_else(|| {
                    fail(
                        "--replicate-to requires --source ID \
                         (a stable id unique among every daemon replicating to this standby)",
                    )
                });
                // Fail fast on a dead standby: the forwarder already
                // rides a bounded drop-oldest backlog and self-heals
                // gaps with full resets, so short retries lose nothing
                // a long blocking policy would save.
                let handle =
                    Replicator::spawn(source, standby, RetryPolicy::quick(), Some(journal.clone()));
                replicator = Some(handle.clone());
                journal = journal.with_replication(handle);
            }
            Some(journal)
        }
        None => {
            if replicate_to.is_some() {
                fail("--replicate-to requires --journal (replication mirrors the journal)");
            }
            None
        }
    };
    let telemetry_on = !args.iter().any(|a| a == "--no-telemetry");

    match arg_value(&args, "--tcp") {
        Some(addr) => {
            // Event-driven front end. With --reactors N, every listener
            // binds the same address via SO_REUSEPORT so the kernel
            // spreads incoming connections across the reactor threads.
            let parsed = addr.parse().unwrap_or_else(|e| fail(e));
            let listeners = bind_reuseport_listeners(parsed, reactors).unwrap_or_else(|e| fail(e));
            if let Ok(local) = listeners[0].local_addr() {
                eprintln!("rts_adaptd listening on {local} ({reactors} reactors)");
            }
            let mut options = ReactorOptions::new(strategy, shards);
            options.journal = journal;
            options.max_conns = max_conns;
            options.telemetry = telemetry_on;
            let shutdown = Shutdown::new();
            let watcher = Arc::clone(&shutdown);
            // Stdin EOF (Ctrl-D, or the supervisor closing the pipe)
            // requests the drain; any bytes before EOF are discarded.
            std::thread::spawn(move || {
                let mut sink = [0u8; 4096];
                let mut stdin = io::stdin().lock();
                loop {
                    match stdin.read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                watcher.request();
            });
            let summary =
                serve_reactors(listeners, &options, &shutdown).unwrap_or_else(|e| fail(e));
            eprintln!(
                "rts_adaptd: {} requests ({} parse errors), {} connections accepted, {} refused",
                summary.requests,
                summary.parse_errors,
                summary.accepted_conns,
                summary.refused_conns
            );
            report_shards(&summary.reports);
            flush_replication(replicator.as_ref());
        }
        None => {
            let telemetry = if telemetry_on {
                Telemetry::new()
            } else {
                Telemetry::off()
            };
            let mut engine =
                ShardedEngine::with_telemetry(strategy, shards, journal, None, telemetry);
            let stdin = io::stdin().lock();
            let stdout = io::stdout().lock();
            let result = serve(&mut engine, BufReader::new(stdin), stdout, batch);
            let reports = engine.shutdown();
            match result {
                Ok(summary) => {
                    eprintln!(
                        "rts_adaptd: {} requests, {} parse errors",
                        summary.requests, summary.parse_errors
                    );
                    report_shards(&reports);
                    flush_replication(replicator.as_ref());
                }
                Err(e) => fail(e),
            }
        }
    }
}

/// Quiesces the replication stream on graceful shutdown so an orderly
/// stop loses no replicated delta; a standby that cannot be reached in
/// time is reported, never waited on forever.
fn flush_replication(replicator: Option<&Replicator>) {
    if let Some(replicator) = replicator {
        if !replicator.flush(std::time::Duration::from_secs(10)) {
            eprintln!(
                "rts_adaptd: replication stream did not quiesce within 10s ({:?})",
                replicator.stats()
            );
        }
    }
}
