//! A keep-alive HTTP/1.1 client and the open-loop and closed-loop load
//! generators that send generated requests through it.

use crate::gen::{Kind, Target};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One response: status, the `X-MapRat-Cache` label, and the body as a
/// digest (the bytes themselves are kept only when asked for).
#[derive(Debug, Default)]
pub struct Reply {
    pub status: u16,
    pub cache: Option<&'static str>,
    pub body_len: usize,
    pub body_hash: u64,
    pub body: Option<Vec<u8>>,
}

/// The labels the server puts in `X-MapRat-Cache`, so a reply records
/// one without allocating.
const CACHE_LABELS: [&str; 7] = [
    "hit",
    "hit-preingest",
    "hit-approx",
    "snapshot",
    "miss",
    "coalesced",
    "batch",
];

fn cache_label(value: &str) -> &'static str {
    CACHE_LABELS
        .into_iter()
        .find(|&l| l == value)
        .unwrap_or("unknown")
}

/// FNV-1a over the body bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// One persistent connection; responses are framed by `Content-Length`.
pub struct Conn {
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    body: Vec<u8>,
}

impl Conn {
    pub fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            request: Vec::with_capacity(4096),
            body: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads its response. Returns the instant the
    /// request bytes were handed to the socket.
    pub fn send(
        &mut self,
        target: &Target,
        trace_id: Option<u64>,
        keep_body: bool,
    ) -> (Instant, std::io::Result<Reply>) {
        target.write_request(&mut self.request, trace_id);
        let sent = Instant::now();
        let reply = self
            .reader
            .get_mut()
            .write_all(&self.request)
            .and_then(|()| self.read_reply(keep_body));
        (sent, reply)
    }

    fn read_reply(&mut self, keep_body: bool) -> std::io::Result<Reply> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut reply = Reply {
            status,
            ..Reply::default()
        };
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("x-maprat-cache") {
                reply.cache = Some(cache_label(value));
            }
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        reply.body_len = length;
        reply.body_hash = fnv1a(&self.body);
        if keep_body {
            reply.body = Some(self.body.clone());
        }
        Ok(reply)
    }
}

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Open,
    Closed,
    Writer,
    Closing,
}

/// One sent request, with times in nanoseconds since the run's epoch.
#[derive(Debug)]
pub struct Sample {
    pub target: Arc<Target>,
    pub phase: Phase,
    pub trace_id: u64,
    /// When the schedule wanted it sent (equal to `sent` outside open loops).
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    /// `None` on a transport error or an abandoned request.
    pub reply: Option<Reply>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.reply.as_ref().is_some_and(|r| r.status == 200)
    }

    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1e6
    }

    pub fn class(&self) -> Option<&'static str> {
        self.reply.as_ref().and_then(|r| r.cache)
    }

    /// Whether the request belongs to the timed reads.
    pub fn timed(&self) -> bool {
        matches!(self.phase, Phase::Open | Phase::Closed)
    }
}

/// One sample slot per scheduled request, allocated with its pages
/// written before the load starts. Recording a sample then allocates
/// nothing, so a peak RSS read after the load is the server's plus this
/// log's fixed size, whatever the server's speed.
pub struct SampleLog(Box<[Mutex<Option<Sample>>]>);

impl SampleLog {
    pub fn new(slots: usize) -> SampleLog {
        let slots: Box<[Mutex<Option<Sample>>]> = (0..slots).map(|_| Mutex::new(None)).collect();
        // Empty slots are all zero bytes, which the allocator may hand
        // out as pages the kernel has not backed yet; taking each lock
        // writes its page.
        for slot in slots.iter() {
            drop(slot.lock());
        }
        SampleLog(slots)
    }

    fn put(&self, i: usize, sample: Sample) {
        *self.0[i].lock().expect("sample slot") = Some(sample);
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.0
            .into_vec()
            .into_iter()
            .filter_map(|slot| slot.into_inner().expect("sample slot"))
            .collect()
    }
}

/// The load generator of one run: where it sends, and its clock.
pub struct Load {
    pub port: u16,
    pub epoch: Instant,
    /// Whether requests carry the traced run's correlation header.
    pub traced: bool,
    next_id: std::sync::atomic::AtomicU64,
}

/// A request later than this behind its due time is abandoned (counted
/// failed), which bounds a run whose server cannot keep up.
const ABANDON_AFTER: Duration = Duration::from_secs(10);

impl Load {
    pub fn new(port: u16, epoch: Instant, traced: bool) -> Load {
        set_fine_timer_slack();
        Load {
            port,
            epoch,
            traced,
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn send_one(
        &self,
        conn: &mut Option<Conn>,
        target: &Arc<Target>,
        phase: Phase,
        due: Instant,
        keep_body: bool,
    ) -> Sample {
        let trace_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if conn.is_none() {
            *conn = Conn::connect(self.port).ok();
        }
        // Bodies are kept for writes (receipts), batches (compared
        // without their per-slot tier labels), the first answer of a
        // reference-checked request, and when the caller asks.
        let keep_body = keep_body
            || matches!(target.kind, Kind::Ingest | Kind::Batch)
            || (target.reference && !target.body_kept.swap(true, Ordering::Relaxed));
        let (sent, reply) = match conn.as_mut() {
            Some(c) => {
                let (sent, reply) = c.send(target, self.traced.then_some(trace_id), keep_body);
                (sent, reply.ok())
            }
            None => (Instant::now(), None),
        };
        if reply.is_none() {
            // A broken connection is not reused.
            *conn = None;
        }
        let done = Instant::now();
        Sample {
            target: Arc::clone(target),
            phase,
            trace_id,
            due: self.ns(due),
            sent: self.ns(sent),
            done: self.ns(done),
            reply,
        }
    }

    /// Sends requests one after another on one connection (warm-up,
    /// closing and check requests). Closing answers keep their bodies.
    pub fn sequential(&self, targets: &[Arc<Target>], phase: Phase) -> Vec<Sample> {
        let mut conn = None;
        let keep_body = phase == Phase::Closing;
        targets
            .iter()
            .map(|t| self.send_one(&mut conn, t, phase, Instant::now(), keep_body))
            .collect()
    }

    /// Open loop: `schedule` holds (offset from `start`, request). `conns`
    /// senders take the next due request in order, wait for its due time,
    /// send it on their keep-alive connection and wait for the answer. A
    /// request whose sender was busy goes out late, and its latency still
    /// counts from its due time.
    pub fn open_loop(
        &self,
        schedule: &[(Duration, Arc<Target>)],
        conns: usize,
        start: Instant,
        phase: Phase,
    ) -> Vec<Sample> {
        let log = SampleLog::new(schedule.len());
        self.open_loop_into(&log, schedule, conns, start, phase);
        log.into_samples()
    }

    /// [`Load::open_loop`] recording into `log`, which holds a slot per
    /// scheduled request.
    pub fn open_loop_into(
        &self,
        log: &SampleLog,
        schedule: &[(Duration, Arc<Target>)],
        conns: usize,
        start: Instant,
        phase: Phase,
    ) {
        assert!(log.0.len() >= schedule.len(), "a sample slot per request");
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..conns {
                s.spawn(|| {
                    set_fine_timer_slack();
                    let mut conn = Conn::connect(self.port).ok();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((offset, target)) = schedule.get(i) else {
                            break;
                        };
                        let due = start + *offset;
                        wait_until(due);
                        let sample = if due.elapsed() > ABANDON_AFTER {
                            let at = self.ns(due);
                            Sample {
                                target: Arc::clone(target),
                                phase,
                                trace_id: 0,
                                due: at,
                                sent: at,
                                done: self.ns(Instant::now()),
                                reply: None,
                            }
                        } else {
                            self.send_one(&mut conn, target, phase, due, false)
                        };
                        log.put(i, sample);
                    }
                });
            }
        });
    }

    /// Closed loop: `conns` clients each send their next request as soon
    /// as the previous one answered, until `duration` has passed. Returns
    /// the samples and the elapsed wall time.
    pub fn closed_loop(
        &self,
        next: &Mutex<dyn FnMut() -> Arc<Target> + Send + '_>,
        conns: usize,
        duration: Duration,
    ) -> (Vec<Sample>, Duration) {
        let start = Instant::now();
        let end = start + duration;
        let out = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..conns {
                s.spawn(|| {
                    let mut conn = Conn::connect(self.port).ok();
                    let mut mine = Vec::new();
                    while Instant::now() < end {
                        let target = (next.lock().expect("request stream"))();
                        mine.push(self.send_one(
                            &mut conn,
                            &target,
                            Phase::Closed,
                            Instant::now(),
                            false,
                        ));
                    }
                    out.lock().expect("sample sink").extend(mine);
                });
            }
        });
        (out.into_inner().expect("sample sink"), start.elapsed())
    }
}

/// Waits until `due`: sleeps while it is far, then yields the processor
/// in a loop for the last stretch. On a virtual machine a sleeping
/// thread's wake-up is occasionally late by milliseconds; the final
/// yield loop keeps the sender on time without starving the server
/// threads, which the yield lets run.
pub fn wait_until(due: Instant) {
    const YIELD_LOOP: Duration = Duration::from_millis(5);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > YIELD_LOOP {
            std::thread::sleep(left - YIELD_LOOP);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Shrinks this thread's timer slack (Linux defaults to 50 µs), so sleeps
/// in the senders wake close to their deadline.
fn set_fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument (the slack
        // in nanoseconds), touches only the calling thread's scheduling
        // state, and reads no memory through its arguments.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Targets;
    use maprat_server::{HttpServer, Response};
    use std::sync::atomic::AtomicBool;

    /// A handler that stalls once must show up in the latency of the
    /// requests queued behind it, measured from their due times — not
    /// only in the stalled request itself.
    #[test]
    fn stall_counts_from_due_time() {
        let stalled = Arc::new(AtomicBool::new(false));
        let handler = {
            let stalled = Arc::clone(&stalled);
            Arc::new(move |_req: &maprat_server::Request| {
                if !stalled.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Response::json("{}".into())
            })
        };
        let server = HttpServer::start("127.0.0.1:0", 4, handler).expect("bind");
        let mut targets = Targets::default();
        let target = targets.get(Kind::Explain, "GET", "/x".into(), String::new());
        let schedule: Vec<(Duration, Arc<Target>)> = (0..10)
            .map(|i| (Duration::from_millis(20 * i), Arc::clone(&target)))
            .collect();
        let epoch = Instant::now();
        let load = Load::new(server.port(), epoch, false);
        let mut samples =
            load.open_loop(&schedule, 1, epoch + Duration::from_millis(50), Phase::Open);
        samples.sort_by_key(|s| s.due);
        assert!(samples.iter().all(Sample::ok));
        // The second request was due 20 ms into the stall: it waited
        // ~280 ms for the connection, though its own exchange was quick.
        let second = &samples[1];
        let from_send_ms = (second.done - second.sent) as f64 / 1e6;
        assert!(
            second.latency_ms() > 200.0,
            "latency {}",
            second.latency_ms()
        );
        assert!(from_send_ms < 100.0, "send-to-done {from_send_ms}");
        assert!(
            second.sent - second.due > 200_000_000,
            "sender lateness is reported"
        );
    }
}
