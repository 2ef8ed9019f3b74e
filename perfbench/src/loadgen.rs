//! The in-process load generator: at most nproc connections and at most
//! two threads, over loopback TCP.
//!
//! * Open loop: a sender thread writes each request at its due time
//!   (`start + i / rate`) whatever the server does, and a receiver
//!   thread stamps each response as it arrives. Latency is taken from
//!   the due time, so a stall charges every request queued behind it,
//!   and the sender's lateness is reported on its own (`gen.lag_us`).
//! * Closed loop: one thread keeps a fixed number of requests
//!   outstanding per connection and sends the next when one completes.
//!
//! Responses on one connection come back in request order, so the k-th
//! line read on a connection answers its k-th request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token};

use crate::cpu;

/// The requests one connection carries, in order.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// Request lines without the trailing newline.
    pub lines: Vec<String>,
    /// The global index of each line (its place in the whole stream).
    pub index: Vec<usize>,
}

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No response arrived before the deadline or the connection closed.
    Missing,
    /// `verdict:"accept"`.
    Accept,
    /// `verdict:"reject"`.
    Reject,
    /// Anything else (an error verdict or a malformed line).
    Error,
}

impl Verdict {
    fn of(line: &[u8]) -> Verdict {
        let has = |needle: &[u8]| line.windows(needle.len()).any(|w| w == needle);
        if has(b"\"verdict\":\"accept\"") {
            Verdict::Accept
        } else if has(b"\"verdict\":\"reject\"") {
            Verdict::Reject
        } else {
            Verdict::Error
        }
    }
}

/// What one phase observed, indexed by global request index.
#[derive(Debug)]
pub struct PhaseResult {
    /// When each request was due (open loop) or sent (closed loop).
    pub due: Vec<Option<Instant>>,
    /// When each request's bytes were handed to the socket.
    pub sent: Vec<Option<Instant>>,
    /// When each response was read.
    pub done: Vec<Option<Instant>>,
    /// Each request's verdict.
    pub verdicts: Vec<Verdict>,
    /// CPU used by the generator threads.
    pub gen_cpu: Duration,
    /// First due time to last response.
    pub wall: Duration,
    /// Closed loop only: CPU of the process's live threads, CPU of the
    /// generator thread, and responses, all counted between the 5th and
    /// the 95th percentile of responses (the steady state, without the
    /// cold start of the stream and the drain at its end).
    pub steady_cpu: Option<(Duration, Duration, u64)>,
}

impl PhaseResult {
    /// An empty result for `n` requests. The caller allocates it before
    /// the phase, so the generator's own records are not part of the
    /// memory the phase measures.
    #[must_use]
    pub fn new(n: usize) -> Self {
        PhaseResult {
            due: vec![None; n],
            sent: vec![None; n],
            done: vec![None; n],
            verdicts: vec![Verdict::Missing; n],
            gen_cpu: Duration::ZERO,
            wall: Duration::ZERO,
            steady_cpu: None,
        }
    }

    /// Latency of each request in µs, from its due time to its
    /// response; a failed or missing request counts as infinitely late.
    #[must_use]
    pub fn latencies_us(&self) -> Vec<f64> {
        (0..self.verdicts.len())
            .map(|i| match (self.due[i], self.done[i], self.verdicts[i]) {
                (Some(due), Some(done), Verdict::Accept | Verdict::Reject) => {
                    done.saturating_duration_since(due).as_secs_f64() * 1e6
                }
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// How late the generator handed each request to the socket, in µs.
    #[must_use]
    pub fn lag_us(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .filter_map(|(d, s)| Some(s.as_ref()?.saturating_duration_since(*d.as_ref()?)))
            .map(|d| d.as_secs_f64() * 1e6)
            .collect()
    }

    /// Responses per second between the 5th and the 95th percentile of
    /// completion times: the steady state, without the ramp-up and the
    /// drain at the end of the script.
    #[must_use]
    pub fn steady_throughput(&self) -> f64 {
        let mut done: Vec<Instant> = self.done.iter().flatten().copied().collect();
        done.sort_unstable();
        let (lo, hi) = (done.len() / 20, done.len() * 19 / 20);
        if hi <= lo + 1 {
            return 0.0;
        }
        (hi - lo) as f64 / (done[hi - 1] - done[lo]).as_secs_f64().max(1e-9)
    }

    /// Responses received.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.done.iter().filter(|d| d.is_some()).count() as u64
    }
}

/// Per-connection receive state.
struct Inbox {
    buf: Vec<u8>,
    received: usize,
    closed: bool,
}

/// Reads what is available on every readable connection and records
/// each complete response line. Returns the connections that received
/// at least one line, for the closed loop to refill.
#[allow(clippy::too_many_arguments)]
fn receive(
    poll: &mut Poll,
    events: &mut Events,
    conns: &mut [TcpStream],
    scripts: &[Script],
    inboxes: &mut [Inbox],
    done: &mut [Option<Instant>],
    verdicts: &mut [Verdict],
    timeout: Duration,
) -> Vec<usize> {
    let mut woke = Vec::new();
    if poll.poll(events, Some(timeout)).is_err() {
        return woke;
    }
    let mut chunk = [0u8; 64 * 1024];
    for event in events.iter() {
        let c = event.token().0;
        let inbox = &mut inboxes[c];
        if inbox.closed {
            continue;
        }
        match conns[c].read(&mut chunk) {
            Ok(0) | Err(_) => inbox.closed = true,
            Ok(n) => {
                let now = Instant::now();
                inbox.buf.extend_from_slice(&chunk[..n]);
                let mut start = 0;
                while let Some(pos) = inbox.buf[start..].iter().position(|&b| b == b'\n') {
                    let line = &inbox.buf[start..start + pos];
                    if let Some(&i) = scripts[c].index.get(inbox.received) {
                        done[i] = Some(now);
                        verdicts[i] = Verdict::of(line);
                    }
                    inbox.received += 1;
                    start += pos + 1;
                }
                inbox.buf.drain(..start);
                woke.push(c);
            }
        }
    }
    woke
}

fn register(conns: &[TcpStream]) -> Poll {
    let poll = Poll::new().expect("create the generator's poller");
    for (c, conn) in conns.iter().enumerate() {
        let fd = conn.as_raw_fd();
        poll.registry()
            .register(&mut SourceFd(&fd), Token(c), Interest::READABLE)
            .expect("register a generator connection");
    }
    poll
}

fn write_lines(conn: &mut TcpStream, lines: &[String]) -> bool {
    let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        bytes.extend_from_slice(l.as_bytes());
        bytes.push(b'\n');
    }
    conn.write_all(&bytes).is_ok()
}

fn all_received(inboxes: &[Inbox], scripts: &[Script]) -> bool {
    inboxes
        .iter()
        .zip(scripts)
        .all(|(i, s)| i.closed || i.received >= s.lines.len())
}

/// Runs the scripted requests (one script per connection, `out`'s
/// length in all) at `rate` requests per second on the global schedule,
/// and waits for every response until `deadline`.
///
/// # Panics
///
/// Panics if a connection cannot be cloned for the sender thread.
#[must_use]
pub fn open_loop(
    conns: &[TcpStream],
    scripts: &[Script],
    rate: f64,
    deadline: Instant,
    mut out: PhaseResult,
) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(20);
    let due_at = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    for (i, d) in out.due.iter_mut().enumerate() {
        *d = Some(due_at(i));
    }
    let writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone().expect("clone a generator connection"))
        .collect();
    let readers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone().expect("clone a generator connection"))
        .collect();
    let PhaseResult {
        sent,
        done,
        verdicts,
        ..
    } = &mut out;
    let (sender_cpu, receiver_cpu) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let cpu0 = cpu::thread_cpu();
            let mut writers = writers;
            // Each connection's next line; a line's due time follows from
            // its global index.
            let mut next = vec![0usize; scripts.len()];
            let mut batch: Vec<String> = Vec::new();
            let mut broken = vec![false; scripts.len()];
            while Instant::now() < deadline {
                let Some(first) = (0..scripts.len())
                    .filter_map(|c| scripts[c].index.get(next[c]).copied())
                    .min()
                else {
                    break;
                };
                let now = Instant::now();
                if due_at(first) > now {
                    std::thread::sleep(due_at(first) - now);
                    continue;
                }
                // Everything due by now goes out in one write per
                // connection.
                for (c, script) in scripts.iter().enumerate() {
                    let from = next[c];
                    while next[c] < script.lines.len() && due_at(script.index[next[c]]) <= now {
                        batch.push(script.lines[next[c]].clone());
                        next[c] += 1;
                    }
                    if batch.is_empty() {
                        continue;
                    }
                    if !broken[c] {
                        broken[c] = !write_lines(&mut writers[c], &batch);
                    }
                    batch.clear();
                    let at = (!broken[c]).then(Instant::now);
                    for &i in &script.index[from..next[c]] {
                        sent[i] = at;
                    }
                }
            }
            cpu::thread_cpu() - cpu0
        });
        let receiver = scope.spawn(move || {
            let cpu0 = cpu::thread_cpu();
            let mut readers = readers;
            let mut poll = register(&readers);
            let mut events = Events::with_capacity(16);
            let mut inboxes: Vec<Inbox> = scripts
                .iter()
                .map(|_| Inbox {
                    buf: Vec::new(),
                    received: 0,
                    closed: false,
                })
                .collect();
            while !all_received(&inboxes, scripts) && Instant::now() < deadline {
                let _ = receive(
                    &mut poll,
                    &mut events,
                    &mut readers,
                    scripts,
                    &mut inboxes,
                    done,
                    verdicts,
                    Duration::from_millis(100),
                );
            }
            cpu::thread_cpu() - cpu0
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    out.gen_cpu = sender_cpu + receiver_cpu;
    let last = out.done.iter().flatten().max().copied().unwrap_or(start);
    out.wall = last.saturating_duration_since(start);
    out
}

/// Runs every scripted request (`out`'s length in all) with `window`
/// requests outstanding per connection until all are answered or
/// `deadline` passes. Latency is taken from each request's send time
/// (it was due when it was sent).
#[must_use]
pub fn closed_loop(
    conns: &mut [TcpStream],
    scripts: &[Script],
    window: usize,
    deadline: Instant,
    mut out: PhaseResult,
) -> PhaseResult {
    let n = out.verdicts.len();
    let cpu0 = cpu::thread_cpu();
    let mut poll = register(conns);
    let mut events = Events::with_capacity(16);
    let mut inboxes: Vec<Inbox> = scripts
        .iter()
        .map(|_| Inbox {
            buf: Vec::new(),
            received: 0,
            closed: false,
        })
        .collect();
    let mut next = vec![0usize; scripts.len()];
    let start = Instant::now();
    let mut refill =
        |c: usize, inboxes: &[Inbox], out: &mut PhaseResult, conns: &mut [TcpStream]| {
            let script = &scripts[c];
            let upto = (inboxes[c].received + window).min(script.lines.len());
            if next[c] >= upto || inboxes[c].closed {
                return;
            }
            let ok = write_lines(&mut conns[c], &script.lines[next[c]..upto]);
            let at = Instant::now();
            for &i in &script.index[next[c]..upto] {
                out.due[i] = Some(at);
                out.sent[i] = ok.then_some(at);
            }
            next[c] = upto;
        };
    for c in 0..scripts.len() {
        refill(c, &inboxes, &mut out, conns);
    }
    let marks = [n / 20, n * 19 / 20];
    let mut readings: Vec<(Duration, Duration, u64)> = Vec::with_capacity(2);
    while !all_received(&inboxes, scripts) && Instant::now() < deadline {
        let woke = receive(
            &mut poll,
            &mut events,
            conns,
            scripts,
            &mut inboxes,
            &mut out.done,
            &mut out.verdicts,
            Duration::from_millis(100),
        );
        for c in woke {
            refill(c, &inboxes, &mut out, conns);
        }
        let received: usize = inboxes.iter().map(|i| i.received).sum();
        if readings.len() < 2 && received >= marks[readings.len()] {
            readings.push((cpu::live_threads_cpu(), cpu::thread_cpu(), received as u64));
        }
    }
    if let [(p0, g0, n0), (p1, g1, n1)] = readings[..] {
        out.steady_cpu = Some((p1.saturating_sub(p0), g1.saturating_sub(g0), n1 - n0));
    }
    let last = out.done.iter().flatten().max().copied().unwrap_or(start);
    out.wall = last.saturating_duration_since(start);
    out.gen_cpu = cpu::thread_cpu() - cpu0;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A server that answers every line in order, but stalls for
    /// `stall` before answering line `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut writer = sock.try_clone().unwrap();
            let reader = BufReader::new(sock);
            for (k, line) in reader.lines().enumerate() {
                if line.is_err() {
                    break;
                }
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = writer.write_all(b"{\"verdict\":\"accept\"}\n");
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let n = 60;
        let (addr, server) = stalling_server(10, Duration::from_millis(150));
        let conn = TcpStream::connect(addr).unwrap();
        let script = Script {
            lines: (0..n).map(|i| format!("{{\"req\":{i}}}")).collect(),
            index: (0..n).collect(),
        };
        // 1000 requests/s: request i is due i ms after the start.
        let deadline = Instant::now() + Duration::from_secs(10);
        let out = open_loop(
            std::slice::from_ref(&conn),
            &[script],
            1000.0,
            deadline,
            PhaseResult::new(n),
        );
        drop(conn);
        server.join().unwrap();
        assert!(out.verdicts.iter().all(|v| *v == Verdict::Accept));
        let latency = out.latencies_us();
        let lag = out.lag_us();
        // Request 30 was due 30 ms in and sent on time by the open-loop
        // sender, but the server only reached it after the stall ended
        // (~160 ms in): its latency carries the wait it spent queued.
        assert!(
            lag[30] < 20_000.0,
            "the sender kept its schedule: {}",
            lag[30]
        );
        assert!(
            latency[30] > 100_000.0,
            "latency from due time: {}",
            latency[30]
        );
        // Before the stall, requests are answered promptly.
        assert!(latency[5] < 50_000.0, "{}", latency[5]);
        // A closed loop would have timed request 30 from a late send;
        // the open loop's due-time accounting does not.
        let from_send = out.done[30].unwrap() - out.sent[30].unwrap();
        assert!(from_send.as_secs_f64() * 1e6 <= latency[30]);
    }

    #[test]
    fn missing_and_error_responses_count_as_infinitely_late() {
        let mut out = PhaseResult::new(3);
        let t = Instant::now();
        out.due = vec![Some(t); 3];
        out.done = vec![Some(t + Duration::from_micros(5)), Some(t), None];
        out.verdicts = vec![Verdict::Reject, Verdict::Error, Verdict::Missing];
        let l = out.latencies_us();
        assert!((l[0] - 5.0).abs() < 1e-9);
        assert!(l[1].is_infinite() && l[2].is_infinite());
        assert_eq!(Verdict::of(b"{\"verdict\":\"error\"}"), Verdict::Error);
    }
}
