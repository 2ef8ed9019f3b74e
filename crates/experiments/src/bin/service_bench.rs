//! Load benchmark of the `rts-adapt` admission service, emitting a
//! machine-readable `results/BENCH_service.json` so the serving path's
//! performance trajectory is tracked across PRs.
//!
//! Usage: `service_bench [--requests N] [--tenants N] [--shards N]
//!                       [--batch N] [--seed S] [--budget-secs S]
//!                       [--conns LIST] [--reactors LIST]
//!                       [--overhead-budget PCT] [--assert-stages]`
//!
//! Defaults are the tracked configuration: 100 000 requests over 64
//! Table 3 tenants, 4 shards, 512-request batches. Only that canonical
//! configuration rewrites `results/BENCH_service.json`; reduced runs
//! (the CI `service-smoke` job) report to stdout only. The run fails
//! hard if any request is lost or answered with a protocol error, and —
//! with `--budget-secs` — if the stream takes longer than the budget.
//!
//! `--conns 1,64,1024` adds the **connection axis**: the same seeded
//! workload is recorded once and replayed over real TCP against the
//! event-driven reactor front end at each listed connection count
//! (per-tenant connection affinity; surplus connections held idle).
//! `--reactors 1,2,4` crosses it with the **reactor axis**: each
//! replay point runs with that many `SO_REUSEPORT` reactor threads
//! over one shared shard pool (default `1`). Every point of the (conns × reactors) grid must reproduce
//! the recorded verdict populations *exactly* — the determinism
//! oracle — or the run fails hard. The canonical run also records the
//! workload's single-threaded solver floor, the honest upper bound any
//! serving layer can reach on one core (measured on a bare engine with
//! no shared store, so it is the cost of actually solving every
//! selection).
//!
//! The memo block reports per-tenant hits and cross-tenant shared-store
//! hits separately; `memo_hit_rate` is the combined rate (selections
//! answered without a solve). The `solver_phase` block breaks the run's
//! actual solves into Algorithm 2 probes, response-time cascades, and
//! TopDiff walk evaluations, mirroring `BENCH_sweep.json`.
//!
//! The `stage_latency` block is the telemetry spine's output: per-stage
//! p50/p99 from the server-side histograms (`rts_adapt::telemetry`) —
//! worker stages for the in-process run, the full accept→flush
//! lifecycle per connection count on the reactor axis. This is what
//! localizes the fan-in ceiling to a named stage. `--assert-stages`
//! turns the value-level expectations into hard failures (every
//! lifecycle stage sampled, flush p50 > 0) — the CI `metrics-smoke`
//! contract. `--overhead-budget PCT` measures telemetry-on vs
//! telemetry-off cost on *process CPU time* over interleaved pairs of
//! identical runs (identical populations required) and fails if the
//! smallest of three trial deltas exceeds `PCT` percent. CPU time is
//! immune to the scheduler steal and frequency throttling that make
//! wall clocks on shared boxes swing far more than the effect under
//! test; taking the minimum trial keeps two-sided measurement noise
//! from failing a tight budget, while a real regression shows in
//! every trial and still trips it.

use hydra_experiments::{
    arg_f64, arg_present, arg_usize, record_workload, results_dir, run_reactor_load,
    run_service_load, run_service_load_with, ServiceConfig,
};
use rts_adapt::telemetry::StageSummary;

/// Renders per-stage `{count, p50_us, p99_us}` entries for the JSON
/// report, in lifecycle order.
fn stage_json(stages: &[StageSummary], indent: &str) -> String {
    let mut out = String::from("{");
    for (i, stage) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{indent}  \"{}\": {{\"count\":{},\"p50_us\":{:.1},\"p99_us\":{:.1}}}",
            stage.stage, stage.count, stage.p50_us, stage.p99_us
        ));
    }
    out.push('\n');
    out.push_str(indent);
    out.push('}');
    out
}

/// Total CPU time this process has consumed so far, in scheduler ticks
/// (`utime + stime` from `/proc/self/stat`; both fields include every
/// thread the process has joined, which is exactly what the load
/// harness does with its workers). Returns `None` off Linux.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Skip past the parenthesised command name, then past state/ppid/…:
    // utime and stime are fields 14 and 15 of `man 5 proc`, i.e. the
    // 12th and 13th after the closing parenthesis.
    let mut fields = stat.rsplit(") ").next()?.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The tracked configuration is defined in exactly one place
    // (`ServiceConfig::new`); flag defaults and the canonical check both
    // derive from it so they can never silently diverge.
    let canonical = ServiceConfig::new(100_000);
    let requests = arg_usize(&args, "--requests", canonical.requests, canonical.requests);
    let tenants = arg_usize(&args, "--tenants", canonical.tenants, canonical.tenants);
    let shards = arg_usize(&args, "--shards", canonical.shards, canonical.shards);
    let batch = arg_usize(&args, "--batch", canonical.batch, canonical.batch);
    let seed = arg_usize(
        &args,
        "--seed",
        canonical.seed as usize,
        canonical.seed as usize,
    ) as u64;
    let budget_secs = arg_f64(&args, "--budget-secs");
    let overhead_budget = arg_f64(&args, "--overhead-budget");
    let assert_stages = arg_present(&args, "--assert-stages");
    let axis_list = |flag: &str| -> Option<Vec<usize>> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|list| {
                list.split(',')
                    .map(|v| {
                        v.parse()
                            .unwrap_or_else(|_| panic!("{flag} takes a comma-separated list"))
                    })
                    .collect()
            })
    };
    let conns_axis: Vec<usize> = axis_list("--conns").unwrap_or_default();
    let reactors_axis: Vec<usize> = axis_list("--reactors").unwrap_or_else(|| vec![1]);

    let config = ServiceConfig {
        tenants,
        requests,
        shards,
        batch,
        seed,
    };
    eprintln!(
        "service bench: {requests} requests, {tenants} tenants, {shards} shards, batch {batch}"
    );
    // Solver-phase counters cover the whole load (fleet setup included):
    // they attribute where the run's actual solves went, which is what
    // makes the memo-hit numbers below auditable.
    rts_analysis::phase_stats::reset();
    hydra_core::phase_stats::reset();
    let report = run_service_load(&config);
    let walks = rts_analysis::phase_stats::snapshot();
    let solver = hydra_core::phase_stats::snapshot();

    // The benchmark population must be exact: every request answered,
    // none with a usage error (the generator reconciles slots precisely).
    assert_eq!(
        report.responses(),
        requests as u64,
        "the engine lost requests — the benchmark population is no longer comparable"
    );
    assert_eq!(
        report.errors, 0,
        "usage errors in the stream — generator/engine slot reconciliation broke"
    );

    let throughput = report.throughput_rps();
    let p50 = report.percentile_us(0.50);
    let p95 = report.percentile_us(0.95);
    let p99 = report.percentile_us(0.99);
    let hits = report.memo_hits();
    let shared_hits = report.memo_shared_hits();
    let misses = report.memo_misses();
    let hit_rate = report.memo_hit_rate();

    // ---- Connection axis: the recorded workload replayed over real
    // TCP against the reactor front end. Populations must reproduce
    // the recorded run's exactly at every fan-out, or nothing here is
    // comparable to anything.
    let mut reactor_json = String::new();
    if !conns_axis.is_empty() {
        eprintln!("recording the workload once for the TCP replays...");
        let recorded = record_workload(&config);
        assert_eq!(
            recorded.accepted, report.accepted,
            "recorded and in-process populations diverged — generator determinism broke"
        );
        assert_eq!(recorded.rejected, report.rejected);
        let floor = requests as f64 / recorded.solve_secs;
        reactor_json.push_str(&format!(
            ",\n  \"solver_floor_rps\": {floor:.1},\n  \"reactor\": ["
        ));
        let mut row = 0usize;
        for &reactors in &reactors_axis {
            for &conns in &conns_axis {
                let at = format!("conns={conns} reactors={reactors}");
                eprintln!("reactor replay: {conns} connections x {reactors} reactors...");
                let replay = run_reactor_load(&recorded, conns, reactors, true);
                assert_eq!(replay.errors, 0, "{at}: protocol errors in the replay");
                assert_eq!(
                    replay.accepted, recorded.accepted,
                    "{at}: accepted population diverged"
                );
                assert_eq!(
                    replay.rejected, recorded.rejected,
                    "{at}: rejected population diverged"
                );
                if assert_stages {
                    // The CI metrics-smoke contract: a loaded reactor must
                    // have sampled the full request lifecycle, and flushes
                    // take real time (the post-write clock read exists
                    // precisely so this is measurable).
                    for name in [
                        "accept", "parse", "queue", "solve", "respond", "flush", "total",
                    ] {
                        let stage = replay
                            .stages
                            .iter()
                            .find(|s| s.stage == name)
                            .unwrap_or_else(|| panic!("{at}: stage {name} missing"));
                        assert!(
                            stage.count > 0,
                            "{at}: stage {name} recorded no samples under load"
                        );
                        if name == "flush" {
                            assert!(stage.p50_us > 0.0, "{at}: flush p50 is zero under load");
                        }
                    }
                }
                if row > 0 {
                    reactor_json.push(',');
                }
                row += 1;
                reactor_json.push_str(&format!(
                    "\n    {{\"conns\":{conns},\"reactors\":{reactors},\"window\":{},\
                     \"wall_secs\":{:.4},\
                     \"throughput_rps\":{:.1},\"p50_us\":{:.1},\"p95_us\":{:.1},\
                     \"p99_us\":{:.1},\"accepted\":{},\"rejected\":{},\
                     \"stages\":{}}}",
                    replay.window,
                    replay.wall_secs,
                    replay.throughput_rps(),
                    replay.percentile_us(0.50),
                    replay.percentile_us(0.95),
                    replay.percentile_us(0.99),
                    replay.accepted,
                    replay.rejected,
                    stage_json(&replay.stages, "    "),
                ));
            }
        }
        reactor_json.push_str("\n  ]");
    }

    // ---- Telemetry overhead gate: identical workload, telemetry on vs
    // off, compared on process CPU time rather than wall clock. Wall
    // clocks on shared boxes swing ±5-15 % with scheduler steal and
    // frequency phases — far more than the ≤2 % effect under test —
    // while CPU seconds per identical workload stay put. The runs are
    // interleaved in on/off pairs so slow phases land on both sides
    // equally, the pair count is scaled so each side accumulates
    // roughly a second of CPU (scheduler ticks are 10 ms, so the
    // quantization error stays near 1 %), and the verdict is the
    // *minimum* of three independent trials: two-sided noise can push
    // one trial past a tight budget, but cannot deflate all three at
    // once, while a real regression shows in every trial. Populations
    // must stay bit-identical throughout (the histograms are
    // observers, never participants).
    let mut overhead_json = String::new();
    if let Some(budget) = overhead_budget {
        let wall_fallback = std::time::Instant::now();
        // Off Linux there is no /proc; fall back to wall nanoseconds —
        // noisier, but the units cancel in the ratio and the contract
        // stays testable everywhere.
        let cost_now =
            || process_cpu_ticks().unwrap_or_else(|| wall_fallback.elapsed().as_nanos() as u64);
        let timed_run = |run_on: bool| -> u64 {
            let before = cost_now();
            let run = run_service_load_with(&config, run_on);
            let cost = cost_now().saturating_sub(before);
            assert_eq!(
                (run.accepted, run.rejected, run.errors),
                (report.accepted, report.rejected, report.errors),
                "telemetry-{} run changed the verdict populations",
                if run_on { "on" } else { "off" }
            );
            if !run_on {
                assert!(
                    run.stages.iter().all(|s| s.count == 0),
                    "telemetry-off run still recorded stage samples"
                );
            }
            cost
        };
        // The warm-up run primes caches and sizes the trials: enough
        // pairs that each side gathers ~100 cost units per trial.
        let warm = timed_run(true).max(1);
        let pairs = 100u64.div_ceil(warm).clamp(4, 64);
        eprintln!("telemetry overhead: 3 trials of {pairs} interleaved on/off pairs...");
        let mut overhead_pct = f64::INFINITY;
        for trial in 1..=3 {
            let mut cpu = [0u64; 2];
            for _ in 0..pairs {
                cpu[0] += timed_run(true);
                cpu[1] += timed_run(false);
            }
            let delta = (cpu[0] as f64 - cpu[1] as f64) / cpu[1] as f64 * 100.0;
            eprintln!(
                "  trial {trial}: cpu on {} off {} -> {delta:+.2}%",
                cpu[0], cpu[1]
            );
            overhead_pct = overhead_pct.min(delta);
        }
        eprintln!("telemetry overhead (min of 3 trials): {overhead_pct:.2}%");
        overhead_json = format!(",\n  \"telemetry_overhead_pct\": {overhead_pct:.2}");
        assert!(
            overhead_pct <= budget,
            "telemetry overhead {overhead_pct:.2}% exceeds the {budget:.2}% budget"
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"adapt_service\",\n");
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"tenants\": {tenants},\n"));
    json.push_str(&format!("  \"shards\": {shards},\n"));
    json.push_str(&format!("  \"batch\": {batch},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"accepted\": {},\n", report.accepted));
    json.push_str(&format!("  \"rejected\": {},\n", report.rejected));
    json.push_str(&format!("  \"wall_secs\": {:.4},\n", report.wall_secs));
    json.push_str(&format!("  \"throughput_rps\": {throughput:.1},\n"));
    json.push_str(&format!("  \"p50_us\": {p50:.1},\n"));
    json.push_str(&format!("  \"p95_us\": {p95:.1},\n"));
    json.push_str(&format!("  \"p99_us\": {p99:.1},\n"));
    json.push_str(&format!("  \"memo_hits\": {hits},\n"));
    json.push_str(&format!("  \"memo_shared_hits\": {shared_hits},\n"));
    json.push_str(&format!("  \"memo_misses\": {misses},\n"));
    json.push_str(&format!("  \"memo_hit_rate\": {hit_rate:.4},\n"));
    json.push_str("  \"solver_phase\": {\n");
    json.push_str(&format!("    \"selections\": {},\n", solver.selections));
    json.push_str(&format!("    \"probes\": {},\n", solver.probes));
    json.push_str(&format!("    \"cascades\": {},\n", solver.cascades));
    json.push_str(&format!(
        "    \"mean_cascade_tasks\": {:.2},\n",
        solver.mean_cascade_tasks()
    ));
    json.push_str(&format!("    \"topdiff_walks\": {},\n", walks.walks));
    json.push_str(&format!("    \"topdiff_evals\": {},\n", walks.evals));
    json.push_str(&format!(
        "    \"mean_evals_per_walk\": {:.2},\n",
        walks.mean_evals()
    ));
    json.push_str(&format!(
        "    \"quick_confirms\": {}\n",
        walks.quick_confirms
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"stage_latency\": {{\n    \"in_process\": {}\n  }}{overhead_json}{reactor_json}\n",
        stage_json(&report.stages, "    ")
    ));
    json.push_str("}\n");

    // Only the canonical configuration updates the tracked trajectory
    // file — a reduced smoke run (CI) must not overwrite the PR-over-PR
    // record with incomparable numbers.
    if config == canonical {
        let dir = results_dir();
        let path = dir.join("BENCH_service.json");
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    } else {
        println!("non-canonical configuration: results/BENCH_service.json left untouched");
    }
    print!("{json}");

    if let Some(budget) = budget_secs {
        assert!(
            report.wall_secs <= budget,
            "stream took {:.2}s, over the {budget:.2}s budget — serving-path regression",
            report.wall_secs
        );
        println!("within budget ({:.2}s <= {budget:.2}s)", report.wall_secs);
    }
}
