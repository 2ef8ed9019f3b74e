//! Process and thread CPU time and peak memory, read from `/proc`.
//!
//! The load generator runs in the same process as the server, so
//! `cpu_us_per_op` is the process's CPU over a phase minus what the
//! generator threads themselves used. Per-thread times come from
//! `schedstat` (nanoseconds); the whole-process time from `stat`
//! (10 ms ticks, but it keeps the time of threads that have exited).

use std::time::Duration;

/// Clock ticks per second of the `/proc/*/stat` time fields (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_SEC: u64 = 100;

/// User plus system time from a `/proc/.../stat` line.
fn stat_cpu(stat: &str) -> Option<Duration> {
    // The command name is parenthesised and may contain spaces; the
    // fields after it are space-separated, utime and stime being the
    // 12th and 13th of them (fields 14 and 15 of the whole line).
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_nanos(
        (utime + stime) * (1_000_000_000 / TICKS_PER_SEC),
    ))
}

fn read_cpu(path: &str) -> Duration {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| stat_cpu(&s))
        .unwrap_or_else(|| panic!("cannot read CPU time from {path}"))
}

/// CPU time of the whole process, exited threads included.
#[must_use]
pub fn process_cpu() -> Duration {
    read_cpu("/proc/self/stat")
}

/// Nanoseconds on CPU from a `schedstat` file (its first field).
fn schedstat_ns(path: &std::path::Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time of the calling thread.
#[must_use]
pub fn thread_cpu() -> Duration {
    let path = std::path::Path::new("/proc/thread-self/schedstat");
    schedstat_ns(path).map_or_else(|| read_cpu("/proc/thread-self/stat"), Duration::from_nanos)
}

/// CPU time of the threads alive now, summed. Unlike [`process_cpu`] it
/// has nanosecond resolution, but it loses the time of any thread that
/// exits between two readings, so use it only across a span in which the
/// measured threads all stay alive.
#[must_use]
pub fn live_threads_cpu() -> Duration {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return process_cpu();
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| schedstat_ns(&t.path().join("schedstat")))
        .sum();
    Duration::from_nanos(ns)
}

/// A `/proc/self/status` field given in kB, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets the process's peak resident size to its current resident
/// size (writing 5 to `clear_refs`) and returns that size, in MiB, so
/// `peak_rss_mb() - reset_peak_rss_mb()` is the growth from now on.
///
/// # Panics
///
/// Panics if the kernel refuses the reset: the growth would then be
/// measured from an older peak.
#[must_use]
pub fn reset_peak_rss_mb() -> f64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
    status_mb("VmRSS:")
}

/// CPU microseconds per completed operation charged to the system under
/// test: the process's CPU over the phase minus the generator threads'.
#[must_use]
pub fn us_per_op(process: Duration, generator: Duration, ops: u64) -> f64 {
    let server = process.saturating_sub(generator);
    server.as_secs_f64() * 1e6 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn burn(d: Duration) {
        let start = thread_cpu();
        let mut x = 0u64;
        while thread_cpu() - start < d {
            for i in 0..10_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
    }

    #[test]
    fn stat_line_with_spaces_in_the_name_parses() {
        let line = "42 (a b) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0";
        assert_eq!(stat_cpu(line), Some(Duration::from_millis(2000)));
    }

    #[test]
    fn generator_threads_are_excluded_from_cpu_per_op() {
        let before = process_cpu();
        let wall = Instant::now();
        let generator = std::thread::spawn(|| {
            let start = thread_cpu();
            burn(Duration::from_millis(300));
            thread_cpu() - start
        });
        let server = std::thread::spawn(|| burn(Duration::from_millis(200)));
        server.join().unwrap();
        let gen_cpu = generator.join().unwrap();
        let process = process_cpu() - before;
        assert!(gen_cpu >= Duration::from_millis(300));
        // 100 ops over ~200 ms of server CPU: ~2000 µs per op. The test
        // thread itself idles, so only tick rounding separates the two.
        let per_op = us_per_op(process, gen_cpu, 100);
        assert!(
            (1700.0..2600.0).contains(&per_op),
            "{per_op} µs/op over {:?} wall",
            wall.elapsed()
        );
        let with_generator = us_per_op(process, Duration::ZERO, 100);
        assert!(with_generator > per_op + 2500.0);
    }
}
