//! The `sweep` workload: the paper's Fig. 7a design-space sweep
//! (2 cores, TopDiff, `jobs` = nproc) as a closed loop of sweep
//! requests. Each request is one `run_sweep` over `PER_GROUP` task sets
//! per utilization group with its own seed, so every selection is a cold
//! Algorithm 1 solve: no memo, no service, no I/O.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hydra_core::assemble::assemble_system;
use hydra_core::schemes::Scheme;
use hydra_experiments::sweep::TasksetRecord;
use hydra_experiments::{run_sweep, SweepConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rts_analysis::semi::CarryInStrategy;
use rts_model::PeriodVector;
use rts_partition::FitHeuristic;
use rts_taskgen::table3::{generate_workload, Table3Config, UtilizationGroup, NUM_GROUPS};

use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::{cpu, mix, nproc, stats};

/// Core count of the sweep (the paper's Fig. 7a left panel).
const CORES: usize = 2;
/// Task sets per utilization group in one sweep request.
const PER_GROUP: usize = 10;
/// Warm-up sweeps (1 task set per group) before each segment; `setup_s`
/// is the median over warm-up seeds of each seed's fastest warm-up.
const SETUPS_PER_SEGMENT: usize = 16;
/// Warm-up seeds: warm-up `i` uses seed `i % WARMUP_SEEDS`, so each seed
/// runs eight times, spread over the run.
const WARMUP_SEEDS: usize = 12;
/// Equal segments of the timed run.
const SEGMENTS: usize = 6;
/// The same cap `run_sweep` applies to RT-infeasible redraws per slot.
const MAX_ATTEMPTS_PER_SLOT: usize = 200;
/// Sweep requests the traced pass re-evaluates: a fixed amount of work,
/// so its per-layer counts and self times compare between runs.
pub const TRACED_REQUESTS: usize = 300;

fn config(seed: u64, per_group: usize) -> SweepConfig {
    SweepConfig {
        cores: CORES,
        tasksets_per_group: per_group,
        seed,
        strategy: CarryInStrategy::TopDiff,
        jobs: nproc(),
    }
}

/// FNV-1a over the records' debug rendering: equal exactly when every
/// record (group, utilization bits, bounds, admitted periods) is equal.
fn fingerprint(records: &[TasksetRecord], mut h: u64) -> u64 {
    for r in records {
        for b in format!("{r:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The seed of sweep request `i` of a run.
fn request_seed(seed: u64, i: usize) -> u64 {
    mix(seed ^ 0x5eed_5eed, i as u64)
}

/// Runs sweep requests back to back for `seconds`, in [`SEGMENTS`]
/// equal segments. Returns the outcome (end-to-end metrics), the
/// fingerprint of each request's records, in request order, which the
/// traced pass must reproduce, and the task sets per second over the
/// whole run (what the traced pass's rate compares with).
///
/// Wall-clock metrics report the best segment and each warm-up seed's
/// fastest warm-up: on a shared host, CPU steal comes in bursts, and the
/// best sample is the one it disturbed least.
/// `cpu_us_per_op` counts CPU time, which steal does not inflate, over
/// the whole run, less the benchmark's own fingerprinting.
pub fn run(seed: u64, seconds: f64) -> (Outcome, Vec<u64>, f64) {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SEGMENTS * SETUPS_PER_SEGMENT);
    let expected = NUM_GROUPS * PER_GROUP;
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let cpu0 = cpu::process_cpu();
    let mut own_cpu = Duration::ZERO;
    let mut run_wall = Duration::ZERO;
    let mut slots = 0u64;
    let mut missing = 0u64;
    let mut prints = Vec::new();
    let mut i = 0;
    let (mut throughput, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..SEGMENTS {
        // Warm-up sweeps before each segment spread the set-ups over the
        // run; their time is not part of the segment's.
        for _ in 0..SETUPS_PER_SEGMENT {
            let t = Instant::now();
            let r = run_sweep(
                &config(mix(seed, 1000 + (setups.len() % WARMUP_SEEDS) as u64), 1),
                |_| (),
            );
            setups.push(t.elapsed().as_secs_f64());
            std::hint::black_box(r);
        }
        let started = Instant::now();
        let mut latencies = Vec::new();
        while started.elapsed() < segment {
            let t = Instant::now();
            let result = run_sweep(&config(request_seed(seed, i), PER_GROUP), |_| ());
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            slots += expected as u64;
            missing += expected.saturating_sub(result.records.len()) as u64;
            let own = cpu::thread_cpu();
            prints.push(fingerprint(&result.records, FNV_OFFSET));
            own_cpu += cpu::thread_cpu() - own;
            i += 1;
        }
        let segment_wall = started.elapsed();
        run_wall += segment_wall;
        let wall = segment_wall.as_secs_f64();
        let latency = stats::summary(latencies);
        throughput.push((latency.n * expected) as f64 / wall);
        p50.push(latency.p50);
        tail.push(latency.tail);
        out.note(format!(
            "sweep segment {k}: {} requests of {expected} task sets ({CORES} cores, TopDiff, \
             jobs={}), {:.0} task sets/s, request latency p50={:.0} p{}={:.0} us",
            latency.n,
            nproc(),
            throughput[k],
            latency.p50,
            latency.tail_p,
            latency.tail
        ));
    }
    let run_throughput = slots as f64 / run_wall.as_secs_f64();
    let server_cpu = cpu::process_cpu() - cpu0;
    let warmup_slots = (setups.len() * NUM_GROUPS) as u64;

    out.attempted = slots;
    out.check(
        &format!("{missing} of {slots} slots produced no record (groups x per-group each request)"),
        missing == 0,
        missing,
    );
    let best = |v: &[f64], f: fn(f64, f64) -> f64, init: f64| v.iter().copied().fold(init, f);
    out.put(
        "setup_s",
        stats::median_of_fastest(&setups, WARMUP_SEEDS),
        "s",
    );
    out.put("throughput_per_s", best(&throughput, f64::max, 0.0), "1/s");
    out.put("latency_p50_us", best(&p50, f64::min, f64::INFINITY), "us");
    out.put("latency_p99_us", best(&tail, f64::min, f64::INFINITY), "us");
    out.put(
        "cpu_us_per_op",
        cpu::us_per_op(server_cpu, own_cpu, slots + warmup_slots),
        "us",
    );
    out.put("peak_rss_mb", cpu::peak_rss_mb(), "MiB");
    out.note(format!(
        "sweep: {i} requests, records fingerprint {:016x}",
        combine(&prints)
    ));
    (out, prints, run_throughput)
}

/// One fingerprint of a sequence of per-request fingerprints.
fn combine(prints: &[u64]) -> u64 {
    prints.iter().fold(FNV_OFFSET, |h, p| mix(h, *p))
}

/// The records' fingerprint of each of the first `n` sweep requests of
/// a run: the timed pass's where it got that far, the rest computed now.
fn reference_prints(seed: u64, timed: &[u64], n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            timed.get(i).copied().unwrap_or_else(|| {
                let result = run_sweep(&config(request_seed(seed, i), PER_GROUP), |_| ());
                fingerprint(&result.records, FNV_OFFSET)
            })
        })
        .collect()
}

/// One slot of a sweep request, evaluated by the benchmark's own code
/// with a span around each layer call.
struct SlotTimes {
    generate_us: Vec<f64>,
    assemble_us: Vec<f64>,
    drawn: u64,
    assembled: u64,
    evaluate_us: [Vec<f64>; Scheme::COUNT],
    slot_ms: Vec<f64>,
}

impl SlotTimes {
    fn new() -> Self {
        SlotTimes {
            generate_us: Vec::new(),
            assemble_us: Vec::new(),
            drawn: 0,
            assembled: 0,
            evaluate_us: Default::default(),
            slot_ms: Vec::new(),
        }
    }

    fn merge(&mut self, other: SlotTimes) {
        self.generate_us.extend(other.generate_us);
        self.assemble_us.extend(other.assemble_us);
        self.drawn += other.drawn;
        self.assembled += other.assembled;
        for (a, b) in self.evaluate_us.iter_mut().zip(other.evaluate_us) {
            a.extend(b);
        }
        self.slot_ms.extend(other.slot_ms);
    }
}

/// `run_sweep`'s per-slot seeding (SplitMix64 over seed, group, index),
/// so the traced pass draws exactly the task sets the timed pass drew.
fn slot_seed(seed: u64, group: usize, index: usize) -> u64 {
    let tag = ((group as u64) << 32) | index as u64;
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SCHEME_SPANS: [&str; Scheme::COUNT] = [
    "core.evaluate.hydra_c",
    "core.evaluate.hydra",
    "core.evaluate.hydra_tmax",
    "core.evaluate.global_tmax",
];

fn traced_slot(
    local: &mut trace::Local,
    times: &mut SlotTimes,
    table3: &Table3Config,
    seed: u64,
    group: usize,
    index: usize,
    req: u64,
) -> Option<TasksetRecord> {
    let slot = local.open();
    let slot_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(slot_seed(seed, group, index));
    let mut record = None;
    for _ in 0..MAX_ATTEMPTS_PER_SLOT {
        let t = Instant::now();
        let w = local.time("taskgen.generate", Some(slot.id), req, || {
            generate_workload(table3, UtilizationGroup::new(group), &mut rng)
        });
        times.generate_us.push(t.elapsed().as_secs_f64() * 1e6);
        times.drawn += 1;
        let norm_util = w.normalized_utilization();
        let t = Instant::now();
        let system = local.time("partition.assemble", Some(slot.id), req, || {
            assemble_system(
                w.platform,
                w.rt_tasks,
                w.security_tasks,
                FitHeuristic::BestFit,
            )
        });
        times.assemble_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(system) = system else { continue };
        times.assembled += 1;
        let t_max = PeriodVector::at_max(system.security_tasks());
        let mut periods: [Option<PeriodVector>; Scheme::COUNT] = [None, None, None, None];
        for (i, p) in periods.iter_mut().enumerate() {
            let t = Instant::now();
            *p = local.time(SCHEME_SPANS[i], Some(slot.id), req, || {
                Scheme::from_index(i)
                    .evaluate(&system, CarryInStrategy::TopDiff)
                    .periods
            });
            times.evaluate_us[i].push(t.elapsed().as_secs_f64() * 1e6);
        }
        record = Some(TasksetRecord {
            group,
            norm_util,
            t_max,
            periods,
        });
        break;
    }
    times.slot_ms.push(slot_start.elapsed().as_secs_f64() * 1e3);
    local.close(slot, "sweep.slot", None, req);
    record
}

/// The traced pass: the first `requests` sweep requests of the run,
/// re-evaluated slot by slot on nproc threads with a span around each
/// layer call. `timed` holds the timed pass's per-request fingerprints,
/// when there was one; the traced records must reproduce them. Returns
/// the per-layer metrics, task sets per second and CPU µs per task set.
pub fn traced(
    seed: u64,
    requests: usize,
    timed: Option<&[u64]>,
    tracer: &Tracer,
) -> (Outcome, f64, f64) {
    let mut out = Outcome::default();
    let table3 = Table3Config::for_cores(CORES);
    let per_request = NUM_GROUPS * PER_GROUP;
    let total = requests * per_request;
    let solver0 = hydra_core::phase_stats::snapshot();
    let walks0 = rts_analysis::phase_stats::snapshot();
    let cpu0 = cpu::process_cpu();
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let (records, times) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc())
            .map(|_| {
                let (next, table3) = (&next, &table3);
                scope.spawn(move || {
                    let mut local = tracer.local();
                    let mut times = SlotTimes::new();
                    let mut records = Vec::new();
                    loop {
                        let linear = next.fetch_add(1, Ordering::Relaxed);
                        if linear >= total {
                            break;
                        }
                        let (r, slot) = (linear / per_request, linear % per_request);
                        let record = traced_slot(
                            &mut local,
                            &mut times,
                            table3,
                            request_seed(seed, r),
                            slot / PER_GROUP,
                            slot % PER_GROUP,
                            linear as u64,
                        );
                        records.push((linear, record));
                    }
                    (records, times)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(total);
        let mut times = SlotTimes::new();
        for w in workers {
            let (records, t) = w.join().expect("traced sweep worker panicked");
            all.extend(records);
            times.merge(t);
        }
        (all, times)
    });
    let wall = started.elapsed().as_secs_f64();
    let server_cpu = cpu::process_cpu() - cpu0;
    let solver = hydra_core::phase_stats::snapshot();
    let walks = rts_analysis::phase_stats::snapshot();

    let mut ordered: Vec<Option<TasksetRecord>> = vec![None; total];
    for (linear, record) in records {
        ordered[linear] = record;
    }
    let prints: Vec<u64> = ordered
        .chunks(per_request)
        .map(|chunk| {
            let present: Vec<TasksetRecord> = chunk.iter().flatten().cloned().collect();
            fingerprint(&present, FNV_OFFSET)
        })
        .collect();
    if let Some(timed) = timed {
        let (ours, theirs) = (
            combine(&prints),
            combine(&reference_prints(seed, timed, requests)),
        );
        out.check(
            &format!(
                "sweep records fingerprint of the first {requests} requests: traced pass \
                 {ours:016x}, timed pass {theirs:016x}"
            ),
            ours == theirs,
            1,
        );
    }

    let slots = total as f64;
    out.put_summary("sweep.slot_ms", stats::summary(times.slot_ms), "ms");
    out.put(
        "taskgen.generate_us.p50",
        stats::median_of(times.generate_us),
        "us",
    );
    out.put(
        "partition.assemble_us.p50",
        stats::median_of(times.assemble_us),
        "us",
    );
    out.put(
        "partition.accept_ratio",
        times.assembled as f64 / times.drawn.max(1) as f64,
        "ratio",
    );
    for (i, v) in times.evaluate_us.into_iter().enumerate() {
        let name = SCHEME_SPANS[i].replace("core.evaluate.", "core.evaluate_us.");
        out.put_summary(&name, stats::summary(v), "us");
    }
    out.put(
        "core.selections",
        (solver.selections - solver0.selections) as f64,
        "count",
    );
    out.put(
        "core.probes",
        (solver.probes - solver0.probes) as f64,
        "count",
    );
    out.put(
        "core.cascades",
        (solver.cascades - solver0.cascades) as f64,
        "count",
    );
    out.put(
        "analysis.topdiff_walks",
        (walks.walks - walks0.walks) as f64,
        "count",
    );
    out.put(
        "analysis.topdiff_evals",
        (walks.evals - walks0.evals) as f64,
        "count",
    );
    out.put(
        "analysis.quick_confirms",
        (walks.quick_confirms - walks0.quick_confirms) as f64,
        "count",
    );
    let throughput = slots / wall;
    let cpu_per_op = server_cpu.as_secs_f64() * 1e6 / slots.max(1.0);
    (out, throughput, cpu_per_op)
}
