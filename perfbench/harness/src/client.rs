//! The benchmark's own load client for `seqhide serve`.
//!
//! One process, two connections, one thread each (the calling thread runs
//! connection 0). Every request is one `write` with `TCP_NODELAY` on.
//! Open loop: a request is sent at its due time whether or not earlier
//! replies have arrived (the server answers each connection in order), and
//! latency counts from the due time. Closed loop: each connection sends
//! its next request as soon as the previous reply arrives.
//!
//! Waiting uses `ppoll`, whose timeout has nanosecond resolution, so the
//! one thread per connection can both send on schedule and read replies.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A request as read from `requests.txt`.
pub struct Request {
    pub conn: usize,
    pub due: Duration,
    pub line: String,
}

/// What happened to one request, in nanoseconds since the run's start.
#[derive(Clone, Default)]
pub struct Record {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub response: String,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Waits until `stream` is readable or `timeout` passes.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out `struct pollfd` and
    // `struct timespec` values for the duration of the call; nfds is 1 and
    // a null sigmask means "leave the signal mask alone".
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err)
        };
    }
    Ok(n > 0)
}

/// Longest wait for any reply before the run is declared stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

fn run_conn(
    mut stream: TcpStream,
    reqs: &[&Request],
    open_loop: bool,
    start: Instant,
) -> io::Result<Vec<Record>> {
    stream.set_nodelay(true)?;
    let ns = |t: Duration| t.as_nanos() as u64;
    let mut recs = vec![Record::default(); reqs.len()];
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut last_progress = Instant::now();
    let mut done = 0;
    while done < reqs.len() {
        let now = start.elapsed();
        let may_send = next < reqs.len()
            && if open_loop {
                reqs[next].due <= now
            } else {
                pending.is_empty()
            };
        if may_send {
            let mut line = Vec::with_capacity(reqs[next].line.len() + 1);
            line.extend_from_slice(reqs[next].line.as_bytes());
            line.push(b'\n');
            let sent = start.elapsed();
            stream.write_all(&line)?;
            recs[next].due_ns = if open_loop {
                ns(reqs[next].due)
            } else {
                ns(sent)
            };
            recs[next].sent_ns = ns(sent);
            pending.push_back(next);
            next += 1;
            continue;
        }
        let timeout = if open_loop && next < reqs.len() {
            reqs[next].due.saturating_sub(now)
        } else {
            REPLY_TIMEOUT
        };
        if !wait_readable(&stream, timeout)? {
            if pending.is_empty() || last_progress.elapsed() < REPLY_TIMEOUT {
                continue;
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within 60 s",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let recv = ns(start.elapsed());
        last_progress = Instant::now();
        buf.extend_from_slice(&chunk[..n]);
        while let Some(end) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=end).collect();
            let Some(i) = pending.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unsolicited reply",
                ));
            };
            recs[i].recv_ns = recv;
            recs[i].response = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            done += 1;
        }
    }
    Ok(recs)
}

/// Runs every request over two connections to `addr` and returns the
/// records in request-list order.
pub fn run(addr: &str, reqs: &[Request], open_loop: bool) -> io::Result<Vec<Record>> {
    let conns = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    let split: [Vec<(usize, &Request)>; 2] = [0, 1].map(|c| {
        reqs.iter()
            .enumerate()
            .filter(|(_, r)| r.conn == c)
            .collect()
    });
    let [c0, c1] = conns;
    let start = Instant::now();
    let (r0, r1) = std::thread::scope(|s| {
        let list1: Vec<&Request> = split[1].iter().map(|&(_, r)| r).collect();
        let h = s.spawn(move || run_conn(c1, &list1, open_loop, start));
        let list0: Vec<&Request> = split[0].iter().map(|&(_, r)| r).collect();
        let r0 = run_conn(c0, &list0, open_loop, start);
        let r1 = h.join().expect("connection 1 thread panicked");
        (r0, r1)
    });
    let mut out = vec![Record::default(); reqs.len()];
    for (records, part) in [(r0?, &split[0]), (r1?, &split[1])] {
        for (rec, &(i, _)) in records.into_iter().zip(part.iter()) {
            out[i] = rec;
        }
    }
    Ok(out)
}
