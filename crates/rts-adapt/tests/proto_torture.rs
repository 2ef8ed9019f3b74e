//! Protocol torture: malformed, truncated, adversarial and oversized
//! line-JSON — plus mid-request disconnects — against both serving
//! fronts. The service contract under attack is simple: **every line
//! gets a polite `verdict:"error"`/`"reject"` answer, nothing panics,
//! no worker wedges, and the stream stays line-synchronized** so a
//! well-formed request after the garbage is still served. The
//! Export/Import/Evict verbs get the same treatment as the PR 4 ops —
//! including payloads that parse but must not install anything.
//!
//! The event-driven front (`rts_adapt::reactor`) gets its own battery:
//! slow-loris drip feeds, clients that vanish with responses still in
//! flight, a thousand idle connections under one active one, over-cap
//! refusal — plus the parity pin: the same scripted sessions through
//! the in-process stdin pump (`serve`) and over the reactor's
//! connections (at *different* shard counts) must produce
//! byte-identical response streams, and an orderly reactor shutdown
//! must lose no accepted delta from the journal.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use common::{retry, serve_in_background, spawn_reactor, TempDir};
use rts_adapt::journal::JournalDir;
use rts_adapt::reactor::{bind_reuseport_listeners, ReactorOptions};
use rts_adapt::server::{serve, ServeSummary};
use rts_adapt::ShardedEngine;
use rts_analysis::semi::CarryInStrategy;

/// Serves `input` on a fresh 2-shard engine and returns the summary and
/// response lines. The engine shuts down cleanly afterwards — a wedged
/// worker would hang right here, failing the test by timeout.
fn run_lines(input: &str) -> (ServeSummary, Vec<String>) {
    let mut engine = ShardedEngine::new(CarryInStrategy::TopDiff, 2);
    let mut out: Vec<u8> = Vec::new();
    let summary = serve(&mut engine, BufReader::new(input.as_bytes()), &mut out, 8).unwrap();
    let _ = engine.shutdown();
    let text = String::from_utf8(out).unwrap();
    (summary, text.lines().map(str::to_owned).collect())
}

const REGISTER: &str = "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
     {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
     {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}";

/// Every adversarial line is answered with an error, and the
/// well-formed request that follows each one still succeeds.
#[test]
fn malformed_lines_get_polite_errors_and_never_desync_the_stream() {
    let garbage: Vec<String> = vec![
        // Syntax-level garbage.
        "not json at all".into(),
        "{".into(),
        "\u{1}\u{2}\u{3}".into(),
        "[1,2,".into(),
        "\"just a string\"".into(),
        "{\"op\":\"query\",\"tenant\":1}{\"op\":\"query\",\"tenant\":1}".into(),
        // Nesting bomb (the codec's depth cap must answer, not recurse).
        format!("{}1{}", "[".repeat(400), "]".repeat(400)),
        // Schema-level garbage.
        "{}".into(),
        "{\"op\":\"warp\",\"tenant\":1}".into(),
        "{\"op\":\"query\"}".into(),
        "{\"op\":\"query\",\"tenant\":-3}".into(),
        "{\"op\":\"query\",\"tenant\":1.5}".into(),
        "{\"op\":\"query\",\"tenant\":1e300}".into(),
        "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":7}".into(),
        "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[{\"core\":0}]}".into(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":-5,\"t_max_ms\":100}".into(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":400,\"active_ms\":100,\"t_max_ms\":5000}"
            .into(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":1e99,\"t_max_ms\":1e99}".into(),
        "{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"calm\"}".into(),
        // Export/Import/Evict-specific garbage.
        "{\"op\":\"export\"}".into(),
        "{\"op\":\"import\",\"tenant\":1}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":42}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{}}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"rt\":[]}}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":0,\"rt\":[]}}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":2,\"rt\":[],\
          \"snapshot\":{\"fingerprint\":\"xyz\",\"monitors\":[]}}}"
            .into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":2,\"rt\":[],\
          \"snapshot\":{\"fingerprint\":\"0\",\"monitors\":[{\"passive_ticks\":9,\
          \"active_ticks\":3,\"t_max_ticks\":10,\"mode\":\"passive\"}]}}}"
            .into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":2,\"rt\":[],\
          \"events\":[{\"event\":\"warp\"}]}}"
            .into(),
        "{\"op\":\"evict\",\"tenant\":99}".into(),
        "{\"op\":\"export\",\"tenant\":99}".into(),
    ];
    let mut input = String::new();
    for line in &garbage {
        input.push_str(line);
        input.push('\n');
        // A probe request between every garbage line: the stream must
        // stay synchronized and the engine must keep answering.
        input.push_str("{\"op\":\"query\",\"tenant\":42}\n");
    }
    let (summary, lines) = run_lines(&input);
    assert_eq!(summary.requests, 2 * garbage.len() as u64);
    assert_eq!(summary.responses, summary.requests);
    for (i, pair) in lines.chunks(2).enumerate() {
        assert!(
            pair[0].contains("\"verdict\":\"error\""),
            "garbage line {i} must be an error: {}",
            pair[0]
        );
        assert!(
            pair[1].contains("unknown tenant 42"),
            "probe after garbage line {i} must still parse: {}",
            pair[1]
        );
    }
}

/// An import whose payload parses but whose configuration cannot be
/// admitted is *rejected* (an analysis verdict, not a protocol error),
/// and installs nothing. A mismatched fingerprint is an error. Either
/// way the engine keeps serving.
#[test]
fn inadmissible_or_mismatched_imports_install_nothing() {
    let heavy_import = "{\"op\":\"import\",\"tenant\":5,\"journal\":{\"cores\":2,\"rt\":[\
         {\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0},\
         {\"wcet_ticks\":11200,\"period_ticks\":50000,\"core\":1}],\
         \"snapshot\":{\"fingerprint\":\"0\",\"monitors\":[\
         {\"passive_ticks\":53420,\"active_ticks\":53420,\"t_max_ticks\":100000,\"mode\":\"passive\"},\
         {\"passive_ticks\":90000,\"active_ticks\":90000,\"t_max_ticks\":100000,\"mode\":\"passive\"}]}}}";
    // Same rover, one admissible monitor — but the recorded fingerprint
    // does not match the configuration.
    let bad_fingerprint = "{\"op\":\"import\",\"tenant\":5,\"journal\":{\"cores\":2,\"rt\":[\
         {\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0},\
         {\"wcet_ticks\":11200,\"period_ticks\":50000,\"core\":1}],\
         \"snapshot\":{\"fingerprint\":\"1234\",\"monitors\":[\
         {\"passive_ticks\":2230,\"active_ticks\":2230,\"t_max_ticks\":100000,\"mode\":\"passive\"}]}}}";
    // A history whose tail no longer re-admits (the second identical
    // heavyweight arrival must be refused) diverges on import.
    let diverging_tail = "{\"op\":\"import\",\"tenant\":5,\"journal\":{\"cores\":2,\"rt\":[\
         {\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0},\
         {\"wcet_ticks\":11200,\"period_ticks\":50000,\"core\":1}],\
         \"events\":[\
         {\"event\":\"arrival\",\"passive_ticks\":53420,\"active_ticks\":53420,\"t_max_ticks\":100000},\
         {\"event\":\"arrival\",\"passive_ticks\":90000,\"active_ticks\":90000,\"t_max_ticks\":100000}]}}";
    let input = format!(
        "{heavy_import}\n{bad_fingerprint}\n{diverging_tail}\n{}\n",
        "{\"op\":\"query\",\"tenant\":5}"
    );
    let (summary, lines) = run_lines(&input);
    assert_eq!(summary.requests, 4);
    assert!(
        lines[0].contains("\"verdict\":\"reject\""),
        "inadmissible import is an analysis verdict: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"verdict\":\"error\"") && lines[1].contains("fingerprint"),
        "fingerprint mismatch is a payload error: {}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"verdict\":\"reject\""),
        "diverging tail is an analysis verdict: {}",
        lines[2]
    );
    assert!(
        lines[3].contains("unknown tenant 5"),
        "none of the imports may have installed anything: {}",
        lines[3]
    );
}

/// A reactor over a journaled engine (the journal exercises the
/// recovery-adjacent code paths under torture too); the serve thread is
/// detached.
fn spawn_journaled(dir: &TempDir, max_conns: usize) -> SocketAddr {
    let journal = JournalDir::at(dir.path()).with_compaction(2);
    spawn_reactor(2, max_conns, Some(journal)).addr
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        // The drain tests request a shutdown right after pipelining and
        // are owed an answer for every line written before it. Without
        // this, Nagle can hold the pipeline's tail in this socket until
        // the server's delayed ACK, past the drain's quiet tick — and
        // the drain rightly abandons a partial line.
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

/// Clients that disconnect mid-request — after a partial line, after an
/// oversized flood, or right after connecting — never take the server
/// down: the next client is served in full, including hand-off verbs.
#[test]
fn mid_request_disconnects_leave_the_server_serving() {
    let dir = TempDir::new("torture_tcp");
    let addr = spawn_journaled(&dir, 8);

    // Disconnect after half a request line (no newline).
    {
        let mut c = Client::connect(addr);
        c.stream
            .write_all(b"{\"op\":\"register\",\"tenant\":1,\"cor")
            .unwrap();
        // Dropped here: the reactor sees EOF mid-line.
    }
    // Disconnect mid-flood: several MiB without a newline, then gone.
    {
        let mut c = Client::connect(addr);
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..3 {
            if c.stream.write_all(&chunk).is_err() {
                break; // server may already have dropped us — fine
            }
        }
    }
    // Disconnect without sending anything.
    drop(Client::connect(addr));

    // A full session still works — register, delta, export, evict —
    // with bounded retries in case an earlier slot is still being
    // released.
    let mut c = retry("a served connection after the disconnect storm", || {
        let mut c = Client::connect(addr);
        c.send("{\"op\":\"query\",\"tenant\":7}");
        let line = c.recv();
        line.contains("unknown tenant 7").then_some(c)
    });
    c.send(REGISTER.replace("\"tenant\":1", "\"tenant\":7").as_str());
    assert!(c.recv().contains("\"verdict\":\"accept\""));
    c.send("{\"op\":\"arrival\",\"tenant\":7,\"passive_ms\":5342,\"t_max_ms\":10000}");
    assert!(c.recv().contains("\"periods_ms\":[7582]"));
    c.send("{\"op\":\"export\",\"tenant\":7}");
    let export = c.recv();
    assert!(
        export.contains("\"verdict\":\"export\"") && export.contains("\"journal\":"),
        "{export}"
    );
    c.send("{\"op\":\"evict\",\"tenant\":7}");
    assert!(c.recv().contains("\"verdict\":\"evicted\""), "evict failed");
    c.send("{\"op\":\"query\",\"tenant\":7}");
    assert!(c.recv().contains("unknown tenant 7"));
}

/// An oversized request line (beyond the 1 MiB bound) is answered with
/// a bounded error and the connection stays usable — including when the
/// oversized line *is* an otherwise well-formed import payload.
#[test]
fn oversized_import_payloads_are_bounded_politely() {
    let dir = TempDir::new("torture_oversize");
    let addr = spawn_journaled(&dir, 8);
    let mut c = Client::connect(addr);
    // A syntactically valid import line, inflated beyond the bound by a
    // giant monitors array.
    let mut line = String::from(
        "{\"op\":\"import\",\"tenant\":3,\"journal\":{\"cores\":1,\
         \"rt\":[{\"wcet_ticks\":1,\"period_ticks\":10,\"core\":0}],\
         \"snapshot\":{\"fingerprint\":\"0\",\"monitors\":[",
    );
    let entry =
        "{\"passive_ticks\":1,\"active_ticks\":1,\"t_max_ticks\":1000,\"mode\":\"passive\"},";
    // Three times the 1 MiB line bound: decisively oversized, whatever
    // the reader's chunking.
    while line.len() <= 3 * (1 << 20) {
        line.push_str(entry);
    }
    line.pop(); // the trailing comma
    line.push_str("]}}}");
    c.send(&line);
    let answer = c.recv();
    assert!(
        answer.contains("\"verdict\":\"error\"") && answer.contains("exceeds"),
        "{answer}"
    );
    // Stream re-synchronized; nothing was installed.
    c.send("{\"op\":\"query\",\"tenant\":3}");
    assert!(c.recv().contains("unknown tenant 3"));
}

// ---------------------------------------------------------------------
// Event-driven front end (rts_adapt::reactor)
// ---------------------------------------------------------------------

/// A slow-loris client dripping one request a few bytes at a time never
/// blocks the reactor: a second client is served in full between the
/// drips, and the drip-fed line is assembled and answered once its
/// newline finally arrives.
#[test]
fn slow_loris_drip_feeds_are_assembled_while_others_are_served() {
    let daemon = spawn_reactor(2, 8, None);
    let addr = daemon.addr;
    let mut loris = Client::connect(addr);
    let mut other = Client::connect(addr);
    let line = format!("{REGISTER}\n");
    for (i, chunk) in line.as_bytes().chunks(7).enumerate() {
        loris.stream.write_all(chunk).unwrap();
        loris.stream.flush().unwrap();
        if i % 5 == 0 {
            // The reactor must stay responsive mid-drip.
            other.send("{\"op\":\"query\",\"tenant\":31}");
            assert!(other.recv().contains("unknown tenant 31"));
        }
    }
    assert!(loris.recv().contains("\"verdict\":\"accept\""));
    drop(loris);
    drop(other);
    let summary = daemon.stop();
    assert_eq!(summary.accepted_conns, 2);
    assert_eq!(summary.requests, summary.responses);
}

/// Clients that vanish with responses still in flight — after a
/// pipelined burst, or mid-line — never wedge the reactor: their
/// answers are dropped, their slots are reclaimed, and a fresh session
/// is served in full.
#[test]
fn mid_write_disconnects_never_wedge_the_reactor() {
    let daemon = spawn_reactor(2, 8, None);
    let addr = daemon.addr;
    // Pipelines a burst and disconnects without reading a byte: every
    // response is computed, routed to a dead connection, and dropped.
    {
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        for i in 0..50 {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
    }
    // Disconnects after half a line.
    {
        let c = Client::connect(addr);
        (&c.stream).write_all(b"{\"op\":\"quer").unwrap();
    }
    // The reactor keeps serving; slots are released once the in-flight
    // answers drain, so retry with a deadline.
    let c = retry("a served connection after the disconnect storm", || {
        let mut c = Client::connect(addr);
        c.send("{\"op\":\"query\",\"tenant\":9}");
        let line = c.recv();
        line.contains("unknown tenant 9").then_some(c)
    });
    drop(c);
    let summary = daemon.stop();
    assert_eq!(summary.refused_conns, 0);
    // Responses routed to dead connections are dropped, never queued:
    // fewer responses than requests, and nothing wedged on the way out.
    assert!(summary.responses <= summary.requests);
}

/// A thousand idle connections cost a slot each and nothing else: an
/// active client underneath them is served promptly, `stats` counts
/// them, the connection over the cap is refused politely, and closing
/// the idles frees their slots.
#[test]
fn a_thousand_idle_connections_hold_no_slots_hostage() {
    let idle_target = 1000;
    let daemon = spawn_reactor(2, idle_target + 1, None);
    let addr = daemon.addr;
    let idle: Vec<TcpStream> = (0..idle_target)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // The accept queue is FIFO: by the time this client's first line is
    // answered, every idle connection before it has its slot.
    let mut c = Client::connect(addr);
    c.send(REGISTER);
    assert!(c.recv().contains("\"verdict\":\"accept\""));
    c.send("{\"op\":\"stats\"}");
    let stats = c.recv();
    assert!(
        stats.contains(&format!("\"live\":{}", idle_target + 1)),
        "{stats}"
    );
    // One more is over the cap: refused with a protocol error line.
    let mut over = Client::connect(addr);
    assert!(over.recv().contains("connection cap"), "expected refusal");
    // Dropping the idles releases their slots; a new connection is
    // admitted again (the release races the accept, so retry).
    drop(idle);
    let c2 = retry("an admitted connection after the idles left", || {
        let mut c2 = Client::connect(addr);
        c2.send("{\"op\":\"query\",\"tenant\":77}");
        let line = c2.recv();
        line.contains("unknown tenant 77").then_some(c2)
    });
    drop(c2);
    drop(c);
    let summary = daemon.stop();
    assert!(summary.accepted_conns >= idle_target as u64 + 2);
    assert!(summary.refused_conns >= 1);
}

/// Pipelines each script on its own connection (one thread per client)
/// and collects each connection's full response stream in order.
fn run_scripts(addr: SocketAddr, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let handles: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for line in &script {
                    c.send(line);
                }
                (0..script.len()).map(|_| c.recv()).collect::<Vec<_>>()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Serves each script, one after another, through the in-process stdin
/// pump over one engine with `shards` shards, and collects each
/// script's response stream.
fn serve_scripts(shards: usize, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let mut engine = ShardedEngine::new(CarryInStrategy::TopDiff, shards);
    let streams = scripts
        .iter()
        .map(|script| {
            let input: String = script.iter().map(|line| format!("{line}\n")).collect();
            let mut out: Vec<u8> = Vec::new();
            serve(&mut engine, BufReader::new(input.as_bytes()), &mut out, 8).unwrap();
            let text = String::from_utf8(out).unwrap();
            text.lines().map(str::to_owned).collect()
        })
        .collect();
    let _ = engine.shutdown();
    streams
}

/// The parity pin: the same scripted sessions — registrations, deltas,
/// garbage, mode flips, queries, with per-tenant connection affinity —
/// through the in-process stdin pump at 1 shard and over the reactor's
/// concurrent connections at 3 shards, behind one reactor and behind
/// two `SO_REUSEPORT` reactors, produce **byte-identical per-connection
/// response streams**. Verdict populations are therefore invariant to
/// the serving front, the shard count and the reactor count.
#[test]
fn reactor_and_in_process_serve_answer_byte_identically() {
    let scripts: Vec<Vec<String>> = (0..6u64)
        .map(|i| {
            let tenant = 100 + i;
            let mut script = vec![
                REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{tenant}")),
                format!(
                    "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":5342,\"t_max_ms\":10000}}"
                ),
                format!(
                    "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":223,\"t_max_ms\":10000}}"
                ),
                format!("tenant {tenant} says: definitely not json"),
            ];
            for j in 0..10u64 {
                let mode = if (i + j) % 2 == 0 { "active" } else { "passive" };
                script.push(format!(
                    "{{\"op\":\"mode\",\"tenant\":{tenant},\"slot\":{},\"mode\":\"{mode}\"}}",
                    j % 2
                ));
            }
            script.push(format!("{{\"op\":\"query\",\"tenant\":{tenant}}}"));
            script
        })
        .collect();

    let in_process = serve_scripts(1, &scripts);
    let expected: usize = scripts.iter().map(Vec::len).sum();
    for reactors in [1, 2] {
        let listeners = bind_reuseport_listeners("127.0.0.1:0".parse().unwrap(), reactors).unwrap();
        let options = ReactorOptions {
            max_conns: 16,
            ..ReactorOptions::new(CarryInStrategy::TopDiff, 3)
        };
        let daemon = serve_in_background(listeners, options);
        let reactor = run_scripts(daemon.addr, &scripts);
        let summary = daemon.stop();

        assert_eq!(
            in_process, reactor,
            "per-connection streams must match at {reactors} reactors"
        );
        assert_eq!(summary.requests, expected as u64);
        assert_eq!(summary.responses, expected as u64);
    }
}

/// The observability parity pin: `stats`, `metrics`, and the Prometheus
/// exposition answer with the **exact same field set** through the
/// in-process stdin pump and over a reactor connection. Numeric values
/// legitimately differ (timings, connection gauges, process-wide
/// counters), so every digit run is masked to `#` and the
/// remaining byte shape — field names, nesting, ordering, units — must
/// be identical. The `slow` ring is compared element by element against
/// one pinned shape instead: how many requests it holds depends on
/// trace sampling and on whether a sampled answer was flushed before
/// the snapshot, which differs between the fronts' batching.
#[test]
fn stats_and_metrics_share_a_byte_shape_across_fronts() {
    const SLOW_ENTRY: &str = "{\"tenant\":#,\"conn\":#,\"seq\":#,\"parse_us\":#.#,\
         \"queue_us\":#.#,\"solve_us\":#.#,\"respond_us\":#.#,\"flush_us\":#.#,\
         \"total_us\":#.#}";
    /// Splits a masked line into the line with its `slow` ring emptied
    /// and the ring's entries (flat objects: no nested brackets).
    fn split_slow(masked: &str) -> (String, Vec<String>) {
        let Some(at) = masked.find("\"slow\":[") else {
            return (masked.to_string(), Vec::new());
        };
        let open = at + "\"slow\":[".len();
        let close = open + masked[open..].find(']').expect("the ring is closed");
        let entries = masked[open..close]
            .split_inclusive('}')
            .map(|entry| entry.trim_start_matches(',').to_string())
            .collect();
        (format!("{}{}", &masked[..open], &masked[close..]), entries)
    }
    fn mask(line: &str) -> String {
        let mut out = String::with_capacity(line.len());
        let mut in_digits = false;
        for c in line.chars() {
            if c.is_ascii_digit() {
                if !in_digits {
                    out.push('#');
                }
                in_digits = true;
            } else {
                in_digits = false;
                out.push(c);
            }
        }
        out
    }
    let script: Vec<String> = vec![
        REGISTER.to_string(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}".into(),
        "{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"active\"}".into(),
        "{\"op\":\"query\",\"tenant\":1}".into(),
        "{\"op\":\"stats\"}".into(),
        "{\"op\":\"metrics\"}".into(),
        "{\"op\":\"metrics\",\"format\":\"prometheus\"}".into(),
    ];
    let in_process = serve_scripts(2, std::slice::from_ref(&script));
    let daemon = spawn_reactor(2, 16, None);
    let reactor = run_scripts(daemon.addr, std::slice::from_ref(&script));
    daemon.stop();
    // The first four lines are engine answers (covered by the strict
    // parity pin above); the last three are the observability verbs.
    for (i, (s, r)) in in_process[0].iter().zip(&reactor[0]).enumerate().skip(4) {
        let (s_shape, s_slow) = split_slow(&mask(s));
        let (r_shape, r_slow) = split_slow(&mask(r));
        assert_eq!(
            s_shape, r_shape,
            "line {i}: field sets diverged\nin-process: {s}\nreactor:    {r}"
        );
        for entry in s_slow.iter().chain(&r_slow) {
            assert_eq!(entry, SLOW_ENTRY, "line {i}: slow ring entry shape");
        }
    }
}

/// The no-lost-delta pin: a shutdown requested while a journaled
/// pipeline is still in flight answers everything first, and a fresh
/// engine replaying the journal afterwards reports exactly the state of
/// the last accepted delta — an orderly stop loses nothing.
#[test]
fn orderly_reactor_shutdown_loses_no_accepted_delta() {
    let dir = TempDir::new("torture_drain_journal");
    let journal = JournalDir::at(dir.path()).with_compaction(3);
    let daemon = spawn_reactor(2, 4, Some(journal));
    let addr = daemon.addr;
    let mut c = Client::connect(addr);
    c.send(REGISTER);
    c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
    let n_flips = 20;
    for i in 0..n_flips {
        let mode = if i % 2 == 0 { "active" } else { "passive" };
        c.send(&format!(
            "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
        ));
    }
    // Race the stop against the pipeline; the drain owes every answer.
    daemon.shutdown.request();
    let mut last_accept = String::new();
    for _ in 0..n_flips + 2 {
        let line = c.recv();
        if line.contains("\"verdict\":\"accept\"") {
            last_accept = line;
        }
    }
    let summary = daemon.join();
    assert_eq!(summary.requests, n_flips as u64 + 2);
    assert_eq!(summary.responses, n_flips as u64 + 2);

    // Replay the journal in a fresh engine (at yet another shard
    // count): the query must report the periods of the last delta the
    // live daemon accepted.
    let mut engine =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 3, JournalDir::at(dir.path()));
    let mut out: Vec<u8> = Vec::new();
    serve(
        &mut engine,
        BufReader::new("{\"op\":\"query\",\"tenant\":1}\n".as_bytes()),
        &mut out,
        8,
    )
    .unwrap();
    let _ = engine.shutdown();
    let replayed = String::from_utf8(out).unwrap();
    let periods = |s: &str| {
        s.split("\"periods_ms\":[")
            .nth(1)
            .unwrap_or_else(|| panic!("no periods in {s}"))
            .split(']')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(
        periods(&replayed),
        periods(&last_accept),
        "replayed: {replayed} vs live: {last_accept}"
    );
}

/// A client that pipelines a large burst and vanishes without reading a
/// byte leaves the reactor mid-way through a **gathered writev pass**:
/// its egress queue holds many completed responses, the kernel buffers
/// are full, and the next flush hits a dead socket. The queue must be
/// dropped wholesale, the slot reclaimed, and a fresh session served in
/// full.
#[test]
fn disconnect_mid_gathered_writev_pass_never_wedges_the_reactor() {
    let daemon = spawn_reactor(2, 8, None);
    let addr = daemon.addr;
    {
        let mut c = Client::connect(addr);
        // Synchronous setup so the burst below is pure mode churn.
        c.send(REGISTER);
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        // Pipeline a burst and never read: answers pile up in the
        // connection's egress queue once the kernel buffers fill, so
        // the reactor's flush passes gather many queued buffers into
        // single writev calls against an ever-fuller socket.
        for i in 0..2000 {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
        // Let the reactor answer into the unread socket until it jams.
        std::thread::sleep(std::time::Duration::from_millis(300));
        // Dropped here with queued responses: the unread bytes make the
        // close an RST, and the next gathered writev dies mid-pass.
    }
    let c = retry(
        "a served connection after the mid-writev disconnect",
        || {
            let mut c = Client::connect(addr);
            c.send("{\"op\":\"query\",\"tenant\":55}");
            let line = c.recv();
            line.contains("unknown tenant 55").then_some(c)
        },
    );
    drop(c);
    let summary = daemon.stop();
    // The dead connection's queued answers are dropped, never leaked
    // into another connection's stream or left wedging the pass.
    assert!(summary.responses <= summary.requests);
    assert_eq!(summary.refused_conns, 0);
}

/// The multi-reactor no-lost-delta pin: three journaled pipelines land
/// on four `SO_REUSEPORT` reactors over one shard pool, a shutdown
/// races the in-flight bursts, and every reactor still owes — and
/// delivers — every answer before draining. A fresh engine replaying
/// the journal afterwards reports exactly each tenant's last accepted
/// delta.
#[test]
fn multi_reactor_drain_loses_no_accepted_delta() {
    let dir = TempDir::new("torture_drain_multi");
    let journal = JournalDir::at(dir.path()).with_compaction(3);
    let listeners = bind_reuseport_listeners("127.0.0.1:0".parse().unwrap(), 4).unwrap();
    let options = ReactorOptions {
        journal: Some(journal),
        max_conns: 16,
        ..ReactorOptions::new(CarryInStrategy::TopDiff, 2)
    };
    let daemon = serve_in_background(listeners, options);
    let addr = daemon.addr;
    let tenants = [1u64, 2, 3];
    let n_flips = 16u64;
    let mut clients: Vec<(u64, Client)> = tenants
        .iter()
        .map(|&t| {
            let mut c = Client::connect(addr);
            // A synchronous registration first: the round-trip proves
            // this connection's reactor accepted it, so the raced drain
            // below owes it every pipelined answer.
            c.send(&REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{t}")));
            assert!(c.recv().contains("\"verdict\":\"accept\""));
            c.send(&format!(
                "{{\"op\":\"arrival\",\"tenant\":{t},\"passive_ms\":5342,\"t_max_ms\":10000}}"
            ));
            for i in 0..n_flips {
                let mode = if i % 2 == 0 { "active" } else { "passive" };
                c.send(&format!(
                    "{{\"op\":\"mode\",\"tenant\":{t},\"slot\":0,\"mode\":\"{mode}\"}}"
                ));
            }
            (t, c)
        })
        .collect();
    // Race the stop against all three pipelines at once.
    daemon.shutdown.request();
    let mut last_accepts: Vec<(u64, String)> = Vec::new();
    for (t, c) in &mut clients {
        let mut last = String::new();
        for _ in 0..n_flips + 1 {
            let line = c.recv();
            if line.contains("\"verdict\":\"accept\"") {
                last = line;
            }
        }
        assert!(!last.is_empty(), "tenant {t} saw no accepted delta");
        last_accepts.push((*t, last));
    }
    drop(clients);
    let summary = daemon.join();
    let expected = tenants.len() as u64 * (n_flips + 2);
    assert_eq!(summary.requests, expected);
    assert_eq!(summary.responses, expected);

    // Replay the shared journal in a fresh engine at another shard
    // count: every tenant must report the periods of the last delta its
    // reactor accepted before the drain.
    let mut engine =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 3, JournalDir::at(dir.path()));
    let input: String = tenants
        .iter()
        .map(|t| format!("{{\"op\":\"query\",\"tenant\":{t}}}\n"))
        .collect();
    let mut out: Vec<u8> = Vec::new();
    serve(&mut engine, BufReader::new(input.as_bytes()), &mut out, 8).unwrap();
    let _ = engine.shutdown();
    let replayed = String::from_utf8(out).unwrap();
    let periods = |s: &str| {
        s.split("\"periods_ms\":[")
            .nth(1)
            .unwrap_or_else(|| panic!("no periods in {s}"))
            .split(']')
            .next()
            .unwrap()
            .to_string()
    };
    for (line, (t, last)) in replayed.lines().zip(&last_accepts) {
        assert_eq!(
            periods(line),
            periods(last),
            "tenant {t}: replayed {line} vs live {last}"
        );
    }
}
