//! `rts_adaptd`'s command line: an unknown flag or an unparsable
//! numeric value is a usage error (exit code 2) before anything is
//! served, never a silent fallback to a default; a valid invocation
//! still serves its stdin session.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs the daemon with `args` and stdin closed (an immediate EOF).
fn run_closed(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rts_adaptd"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run rts_adaptd")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run_closed(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    // Nothing was served: no listener banner, no answer line.
    assert!(!stderr.contains("listening"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} answered something");
}

#[test]
fn unknown_flags_are_refused_before_serving() {
    assert_usage_error(&["--tcp", "127.0.0.1:0", "--threaded"], "--threaded");
    assert_usage_error(&["--shards", "2", "--verbose"], "--verbose");
    assert_usage_error(&["--shards"], "--shards needs a value");
}

#[test]
fn unparsable_numbers_are_refused_before_serving() {
    assert_usage_error(&["--shards", "abc"], "--shards");
    for flag in [
        "--batch",
        "--max-conns",
        "--reactors",
        "--compact-every",
        "--retain-archives",
    ] {
        assert_usage_error(&[flag, "-1"], flag);
    }
}

#[test]
fn a_valid_stdin_session_still_answers() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rts_adaptd"))
        .args(["--shards", "2", "--batch", "4", "--strategy", "exhaustive"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rts_adaptd");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(
            b"{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
              {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
              {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}\n\
              {\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}\n",
        )
        .expect("write the session");
    // Dropping stdin above closed it: EOF ends the serve loop.
    let out = child.wait_with_output().expect("wait for rts_adaptd");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"verdict\":\"accept\""), "{stdout}");
    assert!(lines[1].contains("\"periods_ms\":[7582]"), "{stdout}");
}
