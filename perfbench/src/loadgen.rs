//! An open-loop load generator: one thread drives a few nonblocking,
//! pipelined connections on a seeded send schedule.
//!
//! Requests of a rung at rate `R` arrive as a Poisson process: the gaps
//! between due times are exponential with mean `1/R`, so the schedule
//! cannot lock onto a periodic cycle of the server (a polling interval,
//! say). A request is due when its turn comes, whatever the server has
//! answered by then. Latency runs from that due time to
//! the reply, so a stall that delays later sends is charged to them (no
//! coordinated omission). The generator reports how late it ran (the
//! lag between a request's due time and its hand-off to the socket
//! buffer) and the backlog (requests sent and not yet answered). One
//! thread serves every connection, so the client costs at most one core
//! however many connections it drives — unlike `folearn loadgen`, which
//! runs one OS thread per connection.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::common::{ms, Rng};
use crate::spans::Tracer;

/// Longest the generator waits for a reply when nothing is due: a
/// reply ends the wait at once, so this only bounds how often the drain
/// re-checks its deadline.
const IDLE_WAIT: Duration = Duration::from_millis(5);
/// Longest a rung waits for its last replies before giving up.
const DRAIN_CAP: Duration = Duration::from_secs(20);

struct Pending {
    req: u64,
    frame: u32,
    due: Instant,
}

pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    scanned: usize,
    inflight: VecDeque<Pending>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            scanned: 0,
            inflight: VecDeque::new(),
        })
    }

    /// Write as much of the output buffer as the socket takes.
    fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "server closed")),
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progressed)
    }

    /// Read whatever has arrived; returns whether any byte did.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Hand every complete reply line (without its newline) to `f`, in
    /// arrival order, and drop them from the input buffer.
    fn take_lines(
        &mut self,
        mut f: impl FnMut(&mut VecDeque<Pending>, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut head = 0;
        while let Some(nl) = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + nl;
            f(&mut self.inflight, &self.inbuf[head..end])?;
            head = end + 1;
            self.scanned = head;
        }
        self.inbuf.drain(..head);
        self.scanned = self.inbuf.len();
        Ok(())
    }
}

/// How a reply compares with what its frame must get back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Right,
    /// An `error` or `bye`: the request failed or was refused.
    Failed,
    Wrong,
}

/// One reply: which request it answers, its latency and its verdict.
pub struct Reply {
    /// The request's index in the rung: it was due at `req / rate`.
    pub req: u64,
    pub latency_ms: f64,
    pub verdict: Verdict,
}

/// Wrong replies kept verbatim per rung, for the report.
const KEEP_WRONG: usize = 8;

/// What one rung of the ladder measured.
pub struct Rung {
    pub rate: f64,
    pub sent: u64,
    pub replies: Vec<Reply>,
    /// The first wrong replies, verbatim, with their frames.
    pub wrong: Vec<(u32, String)>,
    /// Due-to-send delay of every request, in ms.
    pub lag_ms: Vec<f64>,
    pub backlog_max: usize,
    /// Unanswered requests when the last one was sent (or when sending
    /// stopped early, see [`Load::abort_backlog`]).
    pub backlog_end: usize,
    /// Wall time from the first due time to the last reply.
    pub elapsed: Duration,
}

/// What the generator sends and how it judges the replies.
pub struct Script<'a> {
    /// Complete request lines, newline included.
    pub frames: &'a [Vec<u8>],
    /// Judges a reply line (without its newline) to frame `f`. It runs
    /// as each reply arrives, so it must be cheap: a byte comparison,
    /// not a decode.
    pub judge: &'a dyn Fn(u32, &[u8]) -> Verdict,
    /// The span name of frame `f`'s requests.
    pub span_name: &'a dyn Fn(u32) -> &'static str,
}

/// How hard one rung pushes.
pub struct Load {
    /// Offered requests per second.
    pub rate: f64,
    /// Sending lasts this long: `rate × duration` requests.
    pub duration: Duration,
    /// Stop sending once this many requests are unanswered: the server
    /// is overloaded, and every further request would only lengthen the
    /// drain before the next rung.
    pub abort_backlog: usize,
}

/// Drive `conns` with `load` (requests at Poisson times drawn from
/// `arrivals`), round robin over the connections. `pick` chooses the
/// frame of each request. With the tracer on, each request is recorded
/// as a span from its due time to its reply.
pub fn run_rung(
    conns: &mut [Conn],
    script: &Script<'_>,
    pick: &mut dyn FnMut() -> u32,
    arrivals: &mut Rng,
    load: &Load,
    tracer: &Tracer,
) -> io::Result<Rung> {
    tight_timer_slack();
    let (rate, duration) = (load.rate, load.duration);
    let mut total = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let mut rung = Rung {
        rate,
        sent: 0,
        replies: Vec::with_capacity(total as usize),
        wrong: Vec::new(),
        lag_ms: Vec::with_capacity(total as usize),
        backlog_max: 0,
        backlog_end: 0,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let mut next_due = start;
    loop {
        let now = Instant::now();
        let mut progressed = false;
        while rung.sent < total && next_due <= now {
            let frame = pick();
            let conn = &mut conns[(rung.sent % conns.len() as u64) as usize];
            conn.out.extend_from_slice(&script.frames[frame as usize]);
            conn.inflight.push_back(Pending {
                req: rung.sent,
                frame,
                due: next_due,
            });
            rung.lag_ms.push(ms(now - next_due));
            rung.sent += 1;
            next_due += Duration::from_secs_f64(arrivals.exponential(rate));
            progressed = true;
            if rung.sent == total {
                rung.backlog_end = conns.iter().map(|c| c.inflight.len()).sum();
            }
        }
        for conn in conns.iter_mut() {
            progressed |= conn.flush()?;
            progressed |= conn.fill()?;
            conn.take_lines(|inflight, line| {
                let done = Instant::now();
                let p = inflight.pop_front().ok_or_else(|| {
                    io::Error::new(ErrorKind::InvalidData, "reply without a request")
                })?;
                tracer.record((script.span_name)(p.frame), p.due, done, p.req);
                let verdict = (script.judge)(p.frame, line);
                if verdict == Verdict::Wrong && rung.wrong.len() < KEEP_WRONG {
                    rung.wrong
                        .push((p.frame, String::from_utf8_lossy(line).into_owned()));
                }
                rung.replies.push(Reply {
                    req: p.req,
                    latency_ms: ms(done - p.due),
                    verdict,
                });
                Ok(())
            })?;
        }
        let backlog: usize = conns.iter().map(|c| c.inflight.len()).sum();
        rung.backlog_max = rung.backlog_max.max(backlog);
        if rung.sent < total && backlog > load.abort_backlog {
            total = rung.sent;
            rung.backlog_end = backlog;
        }
        if rung.sent == total && backlog == 0 {
            break;
        }
        if now.duration_since(start) > duration + DRAIN_CAP {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("{backlog} replies missing {DRAIN_CAP:?} after the rung ended"),
            ));
        }
        if !progressed {
            let wait = if rung.sent < total {
                next_due
                    .saturating_duration_since(Instant::now())
                    .min(IDLE_WAIT)
            } else {
                IDLE_WAIT
            };
            if !wait.is_zero() {
                wait_ready(conns, wait)?;
            }
        }
    }
    rung.elapsed = start.elapsed();
    Ok(rung)
}

/// Block until a connection can be read (or written, if it has output
/// left) or `timeout` passes. Waking on the socket, not on a polling
/// timer, stamps each reply when it arrives and leaves the cores to the
/// server while nothing is due.
#[cfg(target_os = "linux")]
fn wait_ready(conns: &[Conn], timeout: Duration) -> io::Result<()> {
    use std::os::fd::AsRawFd;
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
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const core::ffi::c_void,
        ) -> i32;
    }
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn wait_ready(_conns: &[Conn], timeout: Duration) -> io::Result<()> {
    std::thread::sleep(timeout.min(Duration::from_micros(50)));
    Ok(())
}

/// Let the calling thread's timed waits end within 1 µs of their
/// deadline instead of the default 50 µs, so requests leave on time.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}
