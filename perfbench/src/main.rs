//! The HYDRA-C stack benchmark.
//!
//! ```text
//! perfbench --workload <sweep|admit|admit_durable> --seed N --seconds S
//!           --trace <0|1> --standby-bin PATH --work DIR
//! ```
//!
//! Prints the run record and check results, then one line
//! `RESULT {json}` with `attempted`, `failed` and every metric measured
//! (name → value and unit). `perfbench/run.py` builds this binary and
//! the standby daemon from source, runs it, and turns that line into the
//! benchmark's result. See `perfbench/README.md`.

mod admit;
mod cpu;
mod loadgen;
mod report;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use admit::{DurableEnv, Mode};
use report::{json_number, Outcome};

/// Worker and connection budget: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SplitMix64 of `(seed, i)`: independent sub-seeds from one run seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Traced sections for layers the named workload does not exercise run
/// at this length (seconds), so every traced run reports every layer.
const SIDE_SECONDS: f64 = 4.0;
/// The traced run's untraced reference pass and its traced pass each
/// last this share of `--seconds`, so the whole traced run stays within
/// the time one untraced run takes plus the short sections.
const TRACED_SHARE: f64 = 0.5;
/// Sweep requests of the traced sweep section when the workload is not
/// `sweep`.
const SIDE_SWEEP_REQUESTS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: DurableEnv,
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let need = |flag: &str| arg(&args, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    if !["sweep", "admit", "admit_durable"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let env = DurableEnv {
        standby_bin: PathBuf::from(need("--standby-bin")?),
        work: PathBuf::from(need("--work")?),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        env,
    })
}

/// The filesystem type holding `dir`, from the mount table.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let table = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in table.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fs).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Median cost of a 64-byte append plus `fdatasync`, in µs.
pub fn fsync_cost_us(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync_probe");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let mut samples = Vec::new();
    for _ in 0..100 {
        let t = Instant::now();
        if f.write_all(&[b'x'; 64]).is_err() || f.sync_data().is_err() {
            break;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(&path);
    stats::median_of(samples)
}

/// `(steal, total)` jiffies of all CPUs so far, from `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

fn run_record(a: &Args) -> Vec<String> {
    let fs = fs_type(&a.env.work);
    let generator = match a.workload.as_str() {
        "sweep" => {
            "the sweep requests run on the calling thread (jobs = nproc workers)".to_string()
        }
        _ => format!(
            "load generator in this process on the same host as the server: \
             {} connections, 2 threads open loop (sender, receiver), 1 thread closed loop",
            nproc().min(64)
        ),
    };
    vec![
        format!(
            "run: workload={} seed={} seconds={} trace={} commit={}",
            a.workload,
            a.seed,
            a.seconds,
            u8::from(a.trace),
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
        ),
        format!("host: nproc={} cpu={:?}", nproc(), cpu_model()),
        format!("generator: {generator}"),
        format!(
            "journal dir: {} on {fs}, small append+fdatasync median {:.1} us",
            a.env.work.display(),
            fsync_cost_us(&a.env.work)
        ),
    ]
}

/// The end-to-end pass of a workload, with the sweep's per-request
/// record fingerprints and whole-run rate.
fn end_to_end(a: &Args, seconds: f64) -> (Outcome, Vec<u64>, f64) {
    match a.workload.as_str() {
        "sweep" => sweep::run(a.seed, seconds),
        "admit" => (
            admit::run(Mode::Admit, &a.env, a.seed, seconds, None, true),
            Vec::new(),
            0.0,
        ),
        _ => (
            admit::run(Mode::Durable, &a.env, a.seed, seconds, None, true),
            Vec::new(),
            0.0,
        ),
    }
}

/// The traced run: an untraced pass for reference, the traced pass of
/// the named workload, short traced sections for the layers it does not
/// exercise, self time per layer and the tracing overhead.
fn traced(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tracer = trace::Tracer::new();
    let seconds = a.seconds * TRACED_SHARE;
    let (plain, prints, run_rate) = end_to_end(a, seconds);
    // The sweep's traced pass is one continuous run, so it compares with
    // the untraced whole-run rate rather than the best segment.
    let base_tp = if a.workload == "sweep" {
        run_rate
    } else {
        plain.get("throughput_per_s").unwrap_or(0.0)
    };
    let base_cpu = plain.get("cpu_us_per_op").unwrap_or(0.0);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.notes.extend(plain.notes);

    let (tp, cpu) = if a.workload == "sweep" {
        let (layers, tp, cpu) =
            sweep::traced(a.seed, sweep::TRACED_REQUESTS, Some(&prints), &tracer);
        out.absorb(layers);
        (tp, cpu)
    } else {
        let (layers, _, _) = sweep::traced(a.seed, SIDE_SWEEP_REQUESTS, None, &tracer);
        out.absorb(layers);
        let mode = if a.workload == "admit" {
            Mode::Admit
        } else {
            Mode::Durable
        };
        let layers = admit::run(mode, &a.env, a.seed, seconds, Some(&tracer), true);
        let tp = layers.get("throughput_per_s").unwrap_or(0.0);
        let cpu = layers.get("cpu_us_per_op").unwrap_or(0.0);
        out.absorb(strip_end_to_end(layers));
        (tp, cpu)
    };
    // Layers the named workload bypasses get a short section: the
    // in-memory server layers for `sweep`, the journal and the
    // replication stream for `sweep` and `admit`.
    let keep_durable = |n: &str| n.starts_with("journal.") || n.starts_with("replication.");
    if a.workload == "sweep" {
        let side = admit::run(
            Mode::Admit,
            &a.env,
            a.seed,
            SIDE_SECONDS,
            Some(&tracer),
            true,
        );
        out.absorb(strip_end_to_end(side));
    }
    if a.workload != "admit_durable" {
        let mut side = strip_end_to_end(admit::run(
            Mode::Durable,
            &a.env,
            a.seed,
            SIDE_SECONDS,
            Some(&tracer),
            false,
        ));
        side.metrics.retain(|m| keep_durable(&m.name));
        out.absorb(side);
    }
    let spans = tracer.spans();
    let path = a
        .env
        .work
        .join(format!("spans_{}_{}.jsonl", a.workload, a.seed));
    if let Err(e) = trace::write_spans(&path, &spans) {
        out.check(
            &format!("writing spans to {}: {e}", path.display()),
            false,
            1,
        );
    }
    out.note(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    for (layer, ns) in trace::self_time_by_layer(&spans) {
        out.put(format!("self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
    out.put(
        "trace_overhead.throughput_pct",
        100.0 * (base_tp - tp) / base_tp.max(1e-9),
        "%",
    );
    out.put(
        "trace_overhead.cpu_pct",
        100.0 * (cpu - base_cpu) / base_cpu.max(1e-9),
        "%",
    );
    out
}

/// Drops the end-to-end metrics of a traced pass (the untraced pass
/// reports those) and keeps its per-layer metrics and notes.
fn strip_end_to_end(mut o: Outcome) -> Outcome {
    const E2E: [&str; 6] = [
        "setup_s",
        "throughput_per_s",
        "latency_p50_us",
        "latency_p99_us",
        "cpu_us_per_op",
        "peak_rss_mb",
    ];
    o.metrics.retain(|m| !E2E.contains(&m.name.as_str()));
    o
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.env.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.env.work.display());
        std::process::exit(2);
    }
    let fs = fs_type(&args.env.work);
    if args.workload == "admit_durable" && (fs == "tmpfs" || fs == "ramfs") {
        eprintln!("perfbench: the durable workload needs a disk-backed journal, not {fs}");
        std::process::exit(2);
    }
    for line in run_record(&args) {
        println!("{line}");
    }
    let (steal0, total0) = host_ticks();
    let mut out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args, args.seconds).0
    };
    out.put(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    let (steal1, total1) = host_ticks();
    out.note(format!(
        "host: CPU steal during the run {:.1}% of all CPU time (wall-clock metrics are only \
         comparable between runs with little steal)",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    ));
    for line in &out.notes {
        println!("{line}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "RESULT {{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
