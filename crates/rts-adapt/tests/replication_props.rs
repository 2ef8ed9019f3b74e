//! The replication/failover property battery: a live primary engine
//! streams every journal mutation through a real [`Replicator`] (its
//! own forwarder thread, a real TCP hop) into an in-process standby
//! daemon, and the battery pins the PR-10 failover guarantee:
//!
//! (a) after a flush, `adopt` on the standby re-admits every tenant
//!     **bit-identically** to the live primary — monitor table,
//!     committed periods *and* response times, and configuration
//!     fingerprint all agree, and the standby's own post-adopt journal
//!     replays to the same state (zero re-admission divergence);
//! (b) the standby's source-owner guard makes hand-off races harmless:
//!     appends/retires stamped by a stale source are acknowledged but
//!     ignored (`applied:false`), while a reset always transfers
//!     ownership;
//! (c) a severed replicator (crash-simulated primary) black-holes
//!     undelivered ops, and `adopt` then yields exactly the flushed
//!     prefix — never a torn suffix.
//!
//! The vendored proptest has no shrinking, so draws stay small enough
//! to diagnose from the reported values alone.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::Duration as StdDuration;

use common::{drive_stream, random_event, register_rover, rover_rt, serve_in_background, TempDir};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rts_adapt::journal::{self, JournalDir, TenantHistory};
use rts_adapt::proto::{render_request, render_response};
use rts_adapt::reactor::ReactorOptions;
use rts_adapt::{AdaptEngine, LineClient, ReplPayload, Replicator, Request, Response, RetryPolicy};
use rts_analysis::semi::CarryInStrategy;
use rts_model::time::Duration;

/// A tenant's observable committed state — everything the bit-identical
/// guarantee covers (memo statistics are deliberately excluded).
#[derive(Clone, PartialEq, Debug)]
struct Observed {
    monitors: Vec<rts_adapt::MonitorEntry>,
    periods: Vec<Duration>,
    response_times: Vec<Duration>,
    fingerprint: u64,
}

impl Observed {
    fn of(state: &rts_adapt::TenantState) -> Self {
        Observed {
            monitors: state.monitors().to_vec(),
            periods: state.admitted().periods.as_slice().to_vec(),
            response_times: state.admitted().response_times.clone(),
            fingerprint: state.admitted_fingerprint(),
        }
    }
}

/// The options of an in-process standby daemon: a journaled reactor
/// over `dir`.
fn standby_options(dir: &Path, strategy: CarryInStrategy, shards: usize) -> ReactorOptions {
    ReactorOptions {
        journal: Some(JournalDir::at(dir)),
        max_conns: 32,
        ..ReactorOptions::new(strategy, shards)
    }
}

/// Boots an in-process standby daemon on an ephemeral port and returns
/// its address. The serve thread is detached; it dies with the test
/// process.
fn spawn_standby(dir: &Path, strategy: CarryInStrategy, shards: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind standby listener");
    serve_in_background(vec![listener], standby_options(dir, strategy, shards)).addr
}

/// Drops the positional `seq` echo so answers from different
/// connections compare byte-for-byte.
fn strip_seq(line: &str) -> String {
    let rest = line
        .strip_prefix("{\"seq\":")
        .unwrap_or_else(|| panic!("answer without a seq prefix: {line}"));
    let comma = rest.find(',').expect("fields after seq");
    format!("{{{}", &rest[comma + 1..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adoption_after_failover_is_bit_identical_to_the_primary(
        seed in 0u64..(1 << 32),
        len in 12usize..=24,
        cut in 0usize..=28, // > len means "never compacted"
        strategy_pick in 0usize..2,
        shards in 1usize..=3,
    ) {
        let strategy =
            [CarryInStrategy::TopDiff, CarryInStrategy::Exhaustive][strategy_pick];
        let primary_dir = TempDir::new("replp_primary");
        let standby_dir = TempDir::new("replp_standby");
        let standby = spawn_standby(standby_dir.path(), strategy, shards);

        // The primary: every journal mutation mirrored to the standby.
        let replicator = Replicator::spawn(
            "p0",
            standby,
            RetryPolicy::quick(),
            Some(JournalDir::at(primary_dir.path())),
        );
        let journal =
            JournalDir::at(primary_dir.path()).with_replication(replicator.clone());
        let mut engine = AdaptEngine::with_journal(strategy, journal);
        let tenants = [1u64, 2];
        for &t in &tenants {
            prop_assert!(engine.handle(&register_rover(t)).is_admitted());
        }

        // A seeded stream with a compaction cut at an arbitrary point,
        // so both `Append` and snapshot-carrying `Reset` ops travel.
        let mut rng = StdRng::seed_from_u64(seed);
        let pre = cut.min(len);
        drive_stream(&mut rng, &tenants, pre, |r| engine.handle(&r));
        if cut <= len {
            for &t in &tenants {
                prop_assert!(engine.compact_tenant(t).unwrap());
            }
        }
        drive_stream(&mut rng, &tenants, len - pre, |r| engine.handle(&r));

        // Quiesce the pipe; nothing may have been dropped or healed.
        prop_assert!(replicator.flush(StdDuration::from_secs(10)));
        let stats = replicator.stats();
        prop_assert_eq!(stats.delivered, stats.enqueued);
        prop_assert_eq!(stats.dropped, 0);

        let mut client =
            LineClient::connect(standby, &RetryPolicy::quick()).expect("dial standby");
        for &t in &tenants {
            let live = Observed::of(engine.tenant(t).expect("live tenant"));

            // Failover: the standby re-admits the tenant from its
            // replica journal and answers like an import.
            let adopted =
                client.request(&render_request(&Request::Adopt { tenant: t }))
                    .expect("adopt round trip");
            prop_assert!(
                adopted.contains("\"verdict\":\"accept\""),
                "adopt answered {}", adopted
            );

            // Wire-level: the standby's query answer is byte-identical
            // to the primary's (modulo the positional seq echo).
            let mine =
                strip_seq(&render_response(0, &engine.handle(&Request::Query { tenant: t })));
            let theirs = strip_seq(
                &client.request(&render_request(&Request::Query { tenant: t }))
                    .expect("query round trip"),
            );
            prop_assert_eq!(&theirs, &mine, "tenant {} diverged after adoption", t);

            // State-level: the standby compacted the adopted tenant
            // into its *own* journal; replaying that journal must
            // reproduce the primary's committed state exactly.
            let replayed = JournalDir::at(standby_dir.path())
                .replay_tenant(t, strategy)
                .expect("replay the standby's post-adopt journal");
            prop_assert_eq!(Observed::of(&replayed), live, "tenant {}", t);
        }
    }
}

#[test]
fn stale_sources_are_acknowledged_but_ignored() {
    let standby_dir = TempDir::new("replp_stale");
    let standby = spawn_standby(standby_dir.path(), CarryInStrategy::TopDiff, 2);
    let mut client = LineClient::connect(standby, &RetryPolicy::default()).expect("dial standby");

    // An accepted event, discovered against a throwaway oracle engine so
    // the replicated history stays admissible under replay.
    let mut oracle = AdaptEngine::new(CarryInStrategy::TopDiff);
    assert!(oracle.handle(&register_rover(8)).is_admitted());
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let accepted = loop {
        let event = random_event(&mut rng);
        if oracle
            .handle(&Request::Delta { tenant: 8, event })
            .is_admitted()
        {
            break event;
        }
    };

    let bare = TenantHistory {
        cores: 2,
        rt: rover_rt(),
        snapshot: None,
        events: Vec::new(),
    };
    let replicate = |tenant: u64, source: &str, payload: ReplPayload| {
        render_request(&Request::Replicate {
            tenant,
            source: source.to_string(),
            payload,
        })
    };
    let answer = |client: &mut LineClient, line: &str| {
        strip_seq(&client.request(line).expect("replicate round trip"))
    };
    let applied = |tenant: u64, applied: bool| {
        format!("{{\"tenant\":{tenant},\"verdict\":\"replicated\",\"applied\":{applied}}}")
    };

    // Tenant 7: source "a" owns the replica; "b"'s append and retire are
    // delivered but deliberately ignored, so adoption yields exactly
    // "a"'s history (the bare registration).
    let line = replicate(
        7,
        "a",
        ReplPayload::Reset {
            history: bare.clone(),
        },
    );
    assert_eq!(answer(&mut client, &line), applied(7, true));
    // The stale-source verdict must not depend on the offset guard:
    // stamp an offset that *would* be in sync.
    let replica_len = |tenant: u64| {
        std::fs::metadata(
            standby_dir
                .path()
                .join("replica")
                .join(format!("tenant_{tenant}.jsonl")),
        )
        .expect("replica file")
        .len()
    };
    let line = replicate(
        7,
        "b",
        ReplPayload::Append {
            event: accepted,
            at: replica_len(7),
        },
    );
    assert_eq!(answer(&mut client, &line), applied(7, false));
    let line = replicate(7, "b", ReplPayload::Retire);
    assert_eq!(answer(&mut client, &line), applied(7, false));
    let adopt = client
        .request(&render_request(&Request::Adopt { tenant: 7 }))
        .expect("adopt tenant 7");
    assert!(
        adopt.contains("\"verdict\":\"accept\""),
        "adopt answered {adopt}"
    );
    let oracle_bare = journal::replay(&bare, CarryInStrategy::TopDiff).unwrap();
    let replayed = JournalDir::at(standby_dir.path())
        .replay_tenant(7, CarryInStrategy::TopDiff)
        .expect("replay adopted tenant 7");
    assert_eq!(Observed::of(&replayed), Observed::of(&oracle_bare));

    // Tenant 8: a reset always transfers ownership (the new primary
    // wins the hand-off race), after which the *old* source is the
    // stale one.
    let line = replicate(
        8,
        "a",
        ReplPayload::Reset {
            history: bare.clone(),
        },
    );
    assert_eq!(answer(&mut client, &line), applied(8, true));
    let mut with_event = bare;
    with_event.events.push(accepted);
    let line = replicate(
        8,
        "b",
        ReplPayload::Reset {
            history: with_event.clone(),
        },
    );
    assert_eq!(answer(&mut client, &line), applied(8, true));
    let line = replicate(
        8,
        "a",
        ReplPayload::Append {
            event: accepted,
            at: replica_len(8),
        },
    );
    assert_eq!(answer(&mut client, &line), applied(8, false));
    let adopt = client
        .request(&render_request(&Request::Adopt { tenant: 8 }))
        .expect("adopt tenant 8");
    assert!(
        adopt.contains("\"verdict\":\"accept\""),
        "adopt answered {adopt}"
    );
    let oracle_b = journal::replay(&with_event, CarryInStrategy::TopDiff).unwrap();
    let replayed = JournalDir::at(standby_dir.path())
        .replay_tenant(8, CarryInStrategy::TopDiff)
        .expect("replay adopted tenant 8");
    assert_eq!(Observed::of(&replayed), Observed::of(&oracle_b));
}

/// The self-heal race, made deterministic: appends queue up behind an
/// append the standby must reject, so the heal's full-journal reset
/// already contains the queued events. Without the offset guard the
/// standby would apply them *again* on top of the reset, silently
/// diverging the replica from the byte-identical guarantee.
#[test]
fn a_heal_behind_queued_appends_never_duplicates_events() {
    let primary_dir = TempDir::new("replp_healrace");
    let standby_dir = TempDir::new("replp_healrace_standby");

    // Phase 1: build journal history the standby will never see — no
    // replication attached, so the stream later starts mid-file.
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    {
        let mut engine =
            AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(primary_dir.path()));
        assert!(engine.handle(&register_rover(1)).is_admitted());
        drive_stream(&mut rng, &[1], 6, |r| engine.handle(&r));
    }

    // The standby's listener exists (connects land in the accept
    // backlog) but nothing serves it yet: the forwarder blocks on its
    // first delivery while the test stacks more appends behind it.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind standby listener");
    let standby = listener.local_addr().expect("standby address");

    // Phase 2: a restarted primary on the same journal, now
    // replicating. Every accepted delta enqueues an Append the standby
    // must reject (it holds no replica), and the first rejection heals
    // with a reset that already covers the whole queue.
    let replicator = Replicator::spawn(
        "p0",
        standby,
        RetryPolicy::quick(),
        Some(JournalDir::at(primary_dir.path())),
    );
    let journal = JournalDir::at(primary_dir.path()).with_replication(replicator.clone());
    let mut engine = AdaptEngine::with_journal(CarryInStrategy::TopDiff, journal);
    assert_eq!(engine.recover_journaled(|_| true), (1, 0));
    let mut accepted = 0usize;
    while accepted < 2 {
        // At least two queued appends: the first triggers the heal, the
        // rest must be acknowledged as late duplicates, not re-applied.
        accepted += drive_stream(&mut rng, &[1], 4, |r| engine.handle(&r))
            .accepted
            .len();
    }

    // Only now does the standby start serving; the queued stream drains
    // through the rejection → heal → late-duplicate sequence.
    let options = standby_options(standby_dir.path(), CarryInStrategy::TopDiff, 2);
    let _standby = serve_in_background(vec![listener], options);
    assert!(replicator.flush(StdDuration::from_secs(10)));
    let stats = replicator.stats();
    assert!(stats.heals >= 1, "the standby never healed: {stats:?}");
    assert_eq!(stats.dropped, 0, "nothing may be abandoned: {stats:?}");

    // The replica must be byte-identical to the primary's journal —
    // the duplicate bug appended queued events twice.
    let primary_bytes =
        std::fs::read(primary_dir.path().join("tenant_1.jsonl")).expect("primary journal");
    let replica_bytes = std::fs::read(standby_dir.path().join("replica").join("tenant_1.jsonl"))
        .expect("standby replica");
    assert_eq!(
        primary_bytes, replica_bytes,
        "replica diverged across the heal race"
    );

    // And failover from it is still bit-identical to the live primary.
    let mut client = LineClient::connect(standby, &RetryPolicy::quick()).expect("dial standby");
    let adopt = client
        .request(&render_request(&Request::Adopt { tenant: 1 }))
        .expect("adopt round trip");
    assert!(
        adopt.contains("\"verdict\":\"accept\""),
        "adopt answered {adopt}"
    );
    let mine = strip_seq(&render_response(
        0,
        &engine.handle(&Request::Query { tenant: 1 }),
    ));
    let theirs = strip_seq(
        &client
            .request(&render_request(&Request::Query { tenant: 1 }))
            .expect("query round trip"),
    );
    assert_eq!(theirs, mine, "adoption diverged after the heal race");
}

/// A dead standby (connects succeed, requests hang — it died
/// mid-request) must not let the primary's replication queue grow
/// without bound: the backlog cap evicts the oldest pending ops.
#[test]
fn a_dead_standby_keeps_the_backlog_bounded() {
    let primary_dir = TempDir::new("replp_backlog");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind unserved listener");
    let standby = listener.local_addr().expect("unserved address");

    let replicator = Replicator::spawn(
        "p0",
        standby,
        RetryPolicy::quick(),
        Some(JournalDir::at(primary_dir.path())),
    )
    .with_backlog_cap(4);
    let journal = JournalDir::at(primary_dir.path()).with_replication(replicator.clone());
    let mut engine = AdaptEngine::with_journal(CarryInStrategy::TopDiff, journal);
    assert!(engine.handle(&register_rover(1)).is_admitted());

    let mut rng = StdRng::seed_from_u64(0xB10C);
    let mut accepted = 0usize;
    while accepted < 12 {
        accepted += drive_stream(&mut rng, &[1], 4, |r| engine.handle(&r))
            .accepted
            .len();
    }

    // Registration reset + ≥12 appends enqueued; the forwarder holds at
    // most one in flight and the queue at most 4, so everything else
    // must have been evicted — synchronously, on the enqueueing thread.
    let stats = replicator.stats();
    assert!(stats.enqueued >= 13, "{stats:?}");
    assert_eq!(stats.delivered, 0, "{stats:?}");
    assert!(
        stats.dropped >= stats.enqueued - 5,
        "backlog grew beyond its cap: {stats:?}"
    );
    drop(listener);
}

/// The source-owner guard must survive a standby restart: ownership is
/// persisted in sidecar files and rebuilt at boot, so a stale old
/// primary can neither archive nor append to the new owner's replica
/// even after the standby forgot everything in memory.
#[test]
fn replica_ownership_survives_a_standby_restart() {
    let standby_dir = TempDir::new("replp_ownerboot");
    let replica_file = standby_dir.path().join("replica").join("tenant_5.jsonl");
    let owner_file = standby_dir.path().join("replica").join("tenant_5.owner");

    // An accepted event, discovered against a throwaway oracle.
    let mut oracle = AdaptEngine::new(CarryInStrategy::TopDiff);
    assert!(oracle.handle(&register_rover(5)).is_admitted());
    let mut rng = StdRng::seed_from_u64(0x0EE7);
    let accepted = loop {
        let event = random_event(&mut rng);
        if oracle
            .handle(&Request::Delta { tenant: 5, event })
            .is_admitted()
        {
            break event;
        }
    };

    let bare = TenantHistory {
        cores: 2,
        rt: rover_rt(),
        snapshot: None,
        events: Vec::new(),
    };
    let replicate = |source: &str, payload: ReplPayload| Request::Replicate {
        tenant: 5,
        source: source.to_string(),
        payload,
    };
    let was_applied = |response: &Response| match response {
        Response::Replicated { applied, .. } => Some(*applied),
        _ => None,
    };

    // Standby #1: source "new" wins ownership via a reset.
    let mut standby =
        AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(standby_dir.path()));
    let answer = standby.handle(&replicate(
        "new",
        ReplPayload::Reset {
            history: bare.clone(),
        },
    ));
    assert_eq!(was_applied(&answer), Some(true), "{answer:?}");
    assert!(owner_file.exists(), "no owner sidecar was recorded");

    // Standby #2: the restart that used to forget ownership.
    drop(standby);
    let mut standby =
        AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(standby_dir.path()));
    let len = std::fs::metadata(&replica_file)
        .expect("replica file")
        .len();
    // The stale old primary's retire must not archive the replica…
    let answer = standby.handle(&replicate("old", ReplPayload::Retire));
    assert_eq!(was_applied(&answer), Some(false), "{answer:?}");
    assert!(replica_file.exists(), "a stale retire archived the replica");
    // …nor its append land on it…
    let answer = standby.handle(&replicate(
        "old",
        ReplPayload::Append {
            event: accepted,
            at: len,
        },
    ));
    assert_eq!(was_applied(&answer), Some(false), "{answer:?}");
    assert_eq!(
        std::fs::metadata(&replica_file)
            .expect("replica file")
            .len(),
        len,
        "a stale append mutated the replica"
    );
    // …while the true owner's stream keeps applying.
    let answer = standby.handle(&replicate(
        "new",
        ReplPayload::Append {
            event: accepted,
            at: len,
        },
    ));
    assert_eq!(was_applied(&answer), Some(true), "{answer:?}");

    // With the sidecar destroyed out-of-band, ownership is *unknown*:
    // appends are rejected outright (so the primary heals with a
    // reset), and the healing reset re-records ownership.
    drop(standby);
    std::fs::remove_file(&owner_file).expect("remove owner sidecar");
    let mut standby =
        AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(standby_dir.path()));
    let len = std::fs::metadata(&replica_file)
        .expect("replica file")
        .len();
    let answer = standby.handle(&replicate(
        "new",
        ReplPayload::Append {
            event: accepted,
            at: len,
        },
    ));
    assert!(
        matches!(answer, Response::Error { .. }),
        "an unknown-owner append was not rejected: {answer:?}"
    );
    let answer = standby.handle(&replicate(
        "new",
        ReplPayload::Reset {
            history: bare.clone(),
        },
    ));
    assert_eq!(was_applied(&answer), Some(true), "{answer:?}");
    assert!(owner_file.exists(), "the healing reset recorded no owner");
}

#[test]
fn a_severed_replicator_adopts_exactly_the_flushed_prefix() {
    let primary_dir = TempDir::new("replp_sever");
    let standby_dir = TempDir::new("replp_sever_standby");
    let standby = spawn_standby(standby_dir.path(), CarryInStrategy::TopDiff, 2);

    let replicator = Replicator::spawn(
        "p0",
        standby,
        RetryPolicy::quick(),
        Some(JournalDir::at(primary_dir.path())),
    );
    let journal = JournalDir::at(primary_dir.path()).with_replication(replicator.clone());
    let mut engine = AdaptEngine::with_journal(CarryInStrategy::TopDiff, journal);
    assert!(engine.handle(&register_rover(1)).is_admitted());

    // Phase 1: replicated and flushed — this is the crash-consistent
    // prefix the standby is allowed to serve.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    drive_stream(&mut rng, &[1], 30, |r| engine.handle(&r));
    assert!(replicator.flush(StdDuration::from_secs(10)));
    let flushed = Observed::of(engine.tenant(1).expect("live tenant"));

    // Phase 2: the primary "crashes" — every later append is
    // black-holed, so the live engine runs ahead of the replica.
    replicator.sever();
    let mut phase2 = drive_stream(&mut rng, &[1], 20, |r| engine.handle(&r));
    while phase2.accepted.is_empty() {
        // Mid-append by construction: at least one accepted delta must
        // land after the sever, or the prefix assertion is vacuous.
        phase2 = drive_stream(&mut rng, &[1], 20, |r| engine.handle(&r));
    }
    let diverged = Observed::of(engine.tenant(1).expect("live tenant"));
    assert_ne!(
        diverged.fingerprint,
        flushed.fingerprint,
        "phase 2 accepted {} deltas yet the fingerprint never moved",
        phase2.accepted.len()
    );
    assert!(replicator.stats().dropped > 0, "sever black-holed nothing");

    // Failover: adoption yields the flushed prefix — not the diverged
    // live state, and never a torn half-written suffix.
    let mut client = LineClient::connect(standby, &RetryPolicy::quick()).expect("dial standby");
    let adopt = client
        .request(&render_request(&Request::Adopt { tenant: 1 }))
        .expect("adopt round trip");
    assert!(
        adopt.contains("\"verdict\":\"accept\""),
        "adopt answered {adopt}"
    );
    let replayed = JournalDir::at(standby_dir.path())
        .replay_tenant(1, CarryInStrategy::TopDiff)
        .expect("replay the standby's post-adopt journal");
    assert_eq!(Observed::of(&replayed), flushed);
}
