//! Concurrency soak: several clients churn register/delta/query plus
//! the full hand-off cycle (export → evict → import) against **one**
//! reactor daemon over TCP, under `--max-conns` pressure (more clients than
//! connection slots, so refusals and re-admissions happen for real),
//! with journaling and aggressive compaction on.
//!
//! The correctness oracle is sequential replay: each client owns
//! disjoint tenants and records the deltas the live engine *accepted*,
//! in order. At the end, every tenant's committed state must equal a
//! fresh sequential replay of exactly that accepted-event order — and a
//! daemon restarted over the soak's journal directory must agree too.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use common::{random_event, retry, rover_rt, spawn_reactor, TempDir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rts_adapt::journal::{self, JournalDir, TenantHistory};
use rts_adapt::{json, Request, Response, ShardedEngine};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::DeltaEvent;
use rts_model::time::TICKS_PER_MS;

const CLIENTS: usize = 6;
const MAX_CONNS: usize = 3;
const DELTAS_PER_CLIENT: usize = 24;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects until actually *served* (not refused): the first
    /// response to a probe query must be a real engine answer, not the
    /// connection-cap error line. Bounded by [`retry`]'s deadline.
    fn connect_served(addr: std::net::SocketAddr, probe_tenant: u64) -> Self {
        retry("a free connection slot", || {
            let stream = TcpStream::connect(addr).ok()?;
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let mut client = Client {
                reader: BufReader::new(stream.try_clone().ok()?),
                stream,
            };
            // A refused socket may already be closed when we write — any
            // failure along the probe is just "try again".
            client
                .try_request(&format!("{{\"op\":\"query\",\"tenant\":{probe_tenant}}}"))
                .filter(|line| !line.contains("connection cap"))
                .map(|_| client)
        })
    }

    fn try_request(&mut self, line: &str) -> Option<String> {
        self.stream.write_all(line.as_bytes()).ok()?;
        self.stream.write_all(b"\n").ok()?;
        let mut answer = String::new();
        self.reader.read_line(&mut answer).ok()?;
        (!answer.is_empty()).then(|| answer.trim_end().to_string())
    }

    /// One lockstep request/response exchange.
    fn request(&mut self, line: &str) -> String {
        self.try_request(line)
            .expect("established connections are served to completion")
    }
}

fn render_delta_request(tenant: u64, event: &DeltaEvent) -> String {
    // The wire protocol speaks fractional milliseconds; ticks are tenths
    // of a millisecond, so every tick count renders exactly.
    let ms = |d: rts_model::time::Duration| {
        let ticks = d.as_ticks();
        if ticks % TICKS_PER_MS == 0 {
            format!("{}", ticks / TICKS_PER_MS)
        } else {
            format!("{}.{}", ticks / TICKS_PER_MS, ticks % TICKS_PER_MS)
        }
    };
    match *event {
        DeltaEvent::Arrival { monitor } => format!(
            "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":{},\"active_ms\":{},\"t_max_ms\":{}}}",
            ms(monitor.passive_wcet()),
            ms(monitor.active_wcet()),
            ms(monitor.t_max()),
        ),
        DeltaEvent::Departure { slot } => {
            format!("{{\"op\":\"departure\",\"tenant\":{tenant},\"slot\":{slot}}}")
        }
        DeltaEvent::WcetUpdate {
            slot,
            passive_wcet,
            active_wcet,
        } => format!(
            "{{\"op\":\"wcet_update\",\"tenant\":{tenant},\"slot\":{slot},\"passive_ms\":{},\"active_ms\":{}}}",
            ms(passive_wcet),
            ms(active_wcet),
        ),
        DeltaEvent::ModeChange { slot, mode } => format!(
            "{{\"op\":\"mode\",\"tenant\":{tenant},\"slot\":{slot},\"mode\":\"{}\"}}",
            match mode {
                rts_model::delta::MonitorMode::Passive => "passive",
                rts_model::delta::MonitorMode::Active => "active",
            }
        ),
    }
}

/// One client's script: register both tenants, churn seeded deltas and
/// queries, and put the first tenant through a full hand-off cycle
/// (export → evict → import of the exported payload) mid-stream.
/// Returns the accepted deltas per tenant, in commit order.
fn run_client(
    addr: std::net::SocketAddr,
    index: usize,
    tenants: [u64; 2],
) -> Vec<(u64, DeltaEvent)> {
    let mut client = Client::connect_served(addr, tenants[0]);
    let mut rng = StdRng::seed_from_u64(0x50AC ^ ((index as u64) << 8));
    for &t in &tenants {
        let answer = client.request(&format!(
            "{{\"op\":\"register\",\"tenant\":{t},\"cores\":2,\"rt\":[\
             {{\"wcet_ms\":240,\"period_ms\":500,\"core\":0}},\
             {{\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}}]}}"
        ));
        assert!(answer.contains("\"verdict\":\"accept\""), "{answer}");
    }
    let mut accepted = Vec::new();
    for step in 0..DELTAS_PER_CLIENT {
        let tenant = tenants[rng.gen_range(0..2usize)];
        let event = random_event(&mut rng);
        let answer = client.request(&render_delta_request(tenant, &event));
        if answer.contains("\"verdict\":\"accept\"") {
            accepted.push((tenant, event));
        }
        // Interleave reads, and mid-soak, a full hand-off cycle back
        // onto the same engine: semantically a no-op, operationally the
        // whole drain/import machinery under concurrency.
        if step == DELTAS_PER_CLIENT / 2 {
            let t = tenants[0];
            let export = client.request(&format!("{{\"op\":\"export\",\"tenant\":{t}}}"));
            assert!(export.contains("\"verdict\":\"export\""), "{export}");
            let payload = json::parse(&export).unwrap();
            let history = json::render(payload.get("journal").expect("export carries the state"));
            let evicted = client.request(&format!("{{\"op\":\"evict\",\"tenant\":{t}}}"));
            assert!(evicted.contains("\"verdict\":\"evicted\""), "{evicted}");
            let gone = client.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}"));
            assert!(gone.contains("unknown tenant"), "{gone}");
            let imported = client.request(&format!(
                "{{\"op\":\"import\",\"tenant\":{t},\"journal\":{history}}}"
            ));
            assert!(imported.contains("\"verdict\":\"accept\""), "{imported}");
        } else if step % 5 == 0 {
            let query = client.request(&format!("{{\"op\":\"query\",\"tenant\":{tenant}}}"));
            assert!(query.contains("\"verdict\":\"accept\""), "{query}");
        }
    }
    accepted
}

#[test]
fn soaked_engine_matches_sequential_replay_of_the_accepted_order() {
    let dir = TempDir::new("soak");
    let journal = JournalDir::at(dir.path()).with_compaction(4);
    let addr = spawn_reactor(3, MAX_CONNS, Some(journal)).addr;

    // More clients than connection slots: some are refused and must
    // retry their way in; every script still completes.
    let accepted: Vec<(u64, DeltaEvent)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tenants = [100 + 2 * i as u64, 101 + 2 * i as u64];
                scope.spawn(move || run_client(addr, i, tenants))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads must not panic"))
            .collect()
    });
    assert!(
        !accepted.is_empty(),
        "the soak must accept a nontrivial number of deltas"
    );

    // Oracle 1: every tenant's live state equals a sequential replay of
    // its accepted-event order.
    let mut checker = Client::connect_served(addr, 100);
    for i in 0..CLIENTS {
        for t in [100 + 2 * i as u64, 101 + 2 * i as u64] {
            let history = TenantHistory {
                cores: 2,
                rt: rover_rt(),
                snapshot: None,
                events: accepted
                    .iter()
                    .filter(|(tenant, _)| *tenant == t)
                    .map(|(_, e)| *e)
                    .collect(),
            };
            let replayed = journal::replay(&history, CarryInStrategy::TopDiff)
                .expect("the accepted order must replay cleanly");
            let line = checker.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}"));
            let answer = json::parse(&line).unwrap();
            assert_eq!(
                answer.get("fingerprint").and_then(json::Json::as_str),
                Some(format!("{:016x}", replayed.admitted_fingerprint()).as_str()),
                "tenant {t}: live fingerprint vs sequential replay ({line})"
            );
            let expected_periods: Vec<f64> = replayed
                .admitted()
                .periods
                .as_slice()
                .iter()
                .map(|d| d.as_ticks() as f64 / TICKS_PER_MS as f64)
                .collect();
            let got_periods: Vec<f64> = answer
                .get("periods_ms")
                .and_then(json::Json::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            assert_eq!(got_periods, expected_periods, "tenant {t} periods ({line})");
        }
    }
    drop(checker);

    // Oracle 2: the journal written under all that concurrency (with
    // compaction every 4 deltas) boots a fresh daemon to the same
    // states, at a different shard count.
    let mut revived =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 2, JournalDir::at(dir.path()));
    for i in 0..CLIENTS {
        for t in [100 + 2 * i as u64, 101 + 2 * i as u64] {
            let history = TenantHistory {
                cores: 2,
                rt: rover_rt(),
                snapshot: None,
                events: accepted
                    .iter()
                    .filter(|(tenant, _)| *tenant == t)
                    .map(|(_, e)| *e)
                    .collect(),
            };
            let replayed = journal::replay(&history, CarryInStrategy::TopDiff).unwrap();
            let out = revived.process(vec![Request::Query { tenant: t }]);
            let Response::Admitted(a) = &out[0] else {
                panic!("tenant {t} not recovered after the soak: {out:?}");
            };
            assert_eq!(
                a.periods,
                replayed.admitted().periods.as_slice().to_vec(),
                "tenant {t} recovered periods"
            );
            assert_eq!(
                a.response_times,
                replayed.admitted().response_times.clone(),
                "tenant {t} recovered response times"
            );
            assert_eq!(
                a.fingerprint,
                replayed.admitted_fingerprint(),
                "tenant {t} recovered fingerprint"
            );
        }
    }
    let _ = revived.shutdown();
}
