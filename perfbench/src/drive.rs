//! The client side of a run: the closed-loop capacity phase and the
//! two-connection open-loop phase.
//!
//! Both speak the SKTP wire format directly on raw sockets with
//! pre-encoded frames.  The open-loop connections pipeline: an op is
//! written when it is due whether or not earlier replies are back, and
//! replies are matched to ops in order (the server answers each
//! connection in order).  So a slow reply never delays the next send,
//! latency runs from the op's scheduled start, and how late a send left
//! measures the generator alone.

use crate::lat::Lat;
use crate::workload::{Class, QueryOp, INGEST_RATE, QUERY_RATE};
use sketchtree_server::wire::{
    frame_bytes, read_frame_patient, Frame, Request, Response, SubscribeMode, DEFAULT_MAX_FRAME,
};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long a reply may take before the run gives up on it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// After the open-loop window, how long outstanding replies and pushes
/// may take before they count as abandoned.
const GRACE: Duration = Duration::from_secs(5);

/// One raw SKTP connection.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn { stream })
    }

    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one frame, waiting at most until `deadline`; `None` when
    /// nothing arrived by then.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<Response>, String> {
        let wait = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_micros(50));
        self.stream
            .set_read_timeout(Some(wait))
            .map_err(|e| format!("timeout: {e}"))?;
        match read_frame_patient(&mut self.stream, DEFAULT_MAX_FRAME, REPLY_TIMEOUT) {
            Ok(Frame::Msg { kind, payload }) => Response::decode(kind, &payload)
                .map(Some)
                .map_err(|e| format!("decode: {e}")),
            Ok(Frame::Idle) => Ok(None),
            Ok(Frame::Eof) => Err("server closed the connection".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn recv(&mut self) -> Result<Response, String> {
        self.recv_until(Instant::now() + REPLY_TIMEOUT)?
            .ok_or_else(|| "no reply within 30 s".to_string())
    }
}

/// Result of the closed-loop capacity phase.
#[derive(Default)]
pub struct Capacity {
    /// Trees acked inside the timed window.
    pub trees: u64,
    /// From the window's start to its last ack.
    pub secs: f64,
    /// Send-to-ack time per batch.
    pub round_trip: Lat,
    /// Acks per pool batch, warm-up included.
    pub acked: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Acks whose tree count differed from the batch sent.
    pub bad_acks: u64,
}

/// Each of `producers` connections sends the next pool batch as soon as
/// the previous one is acked, for `window`.
pub fn capacity(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    batch_trees: u64,
    producers: usize,
    warmup: usize,
    window: Duration,
) -> Result<Capacity, String> {
    let barrier = Barrier::new(producers);
    let start: OnceLock<Instant> = OnceLock::new();
    let results: Vec<Result<(Capacity, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    producer(
                        addr,
                        frames,
                        batch_trees,
                        p,
                        producers,
                        warmup,
                        window,
                        barrier,
                        start,
                    )
                })
            })
            .collect();
        handles.into_iter().map(join).collect()
    });
    let mut total = Capacity {
        acked: vec![0; frames.len()],
        ..Capacity::default()
    };
    let mut last_ack: Option<Instant> = None;
    for r in results {
        let (c, last) = r?;
        total.trees += c.trees;
        total.attempted += c.attempted;
        total.failed += c.failed;
        total.bad_acks += c.bad_acks;
        for (a, b) in total.acked.iter_mut().zip(&c.acked) {
            *a += b;
        }
        total.round_trip.merge(&c.round_trip);
        last_ack = Some(last_ack.map_or(last, |l: Instant| l.max(last)));
    }
    let t0 = *start.get().ok_or("capacity window never started")?;
    total.secs = last_ack.map_or(0.0, |l| l.saturating_duration_since(t0).as_secs_f64());
    Ok(total)
}

#[allow(clippy::too_many_arguments)]
fn producer(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    batch_trees: u64,
    p: usize,
    producers: usize,
    warmup: usize,
    window: Duration,
    barrier: &Barrier,
    start: &OnceLock<Instant>,
) -> Result<(Capacity, Instant), String> {
    let mut c = Capacity {
        acked: vec![0; frames.len()],
        ..Capacity::default()
    };
    let mut next = (p..).step_by(producers).map(|i| i % frames.len());
    let ready = Conn::connect(addr).and_then(|mut conn| {
        for idx in next.by_ref().take(warmup) {
            send_batch(&mut conn, &frames[idx], idx, batch_trees, &mut c, false)?;
        }
        Ok(conn)
    });
    // Wait even after a failure, so the other producer is not stranded.
    barrier.wait();
    let mut conn = ready?;
    let t0 = *start.get_or_init(Instant::now);
    let mut last = t0;
    for idx in next {
        if last.saturating_duration_since(t0) >= window {
            break;
        }
        last = send_batch(&mut conn, &frames[idx], idx, batch_trees, &mut c, true)?;
    }
    Ok((c, last))
}

/// Sends one batch and waits for its ack; returns the ack's arrival.
fn send_batch(
    conn: &mut Conn,
    frame: &[u8],
    idx: usize,
    batch_trees: u64,
    c: &mut Capacity,
    timed: bool,
) -> Result<Instant, String> {
    let sent = Instant::now();
    c.attempted += 1;
    conn.send(frame)?;
    let reply = conn.recv()?;
    let now = Instant::now();
    match reply {
        Response::Ingested { trees, .. } => {
            c.acked[idx] += 1;
            c.bad_acks += u64::from(trees != batch_trees);
            if timed {
                c.trees += trees;
                c.round_trip.record(now - sent);
            }
        }
        _ => c.failed += 1,
    }
    Ok(now)
}

/// Result of the open-loop phase.
#[derive(Default)]
pub struct OpenLoop {
    /// Ingest batches: scheduled start to ack.
    pub ingest: Lat,
    /// Ingest batches: send to ack.
    pub ingest_rt: Lat,
    pub count: Lat,
    pub expand: Lat,
    pub expr: Lat,
    pub churn: Lat,
    /// Count, expand and expr queries: send to reply.
    pub query_rt: Lat,
    /// Scheduled start of a batch to the first pushed update of its epoch.
    pub freshness: Lat,
    /// How late each op was written, per connection.
    pub lag_ingest: Lat,
    pub lag_query: Lat,
    /// Ops written a whole inter-arrival gap or more after they were due.
    pub late: u64,
    pub batches_acked: u64,
    pub trees_acked: u64,
    /// From the phase's start to the last ack.
    pub secs: f64,
    pub bad_acks: u64,
    pub attempted: u64,
    /// Error replies and errors pushed for standing queries.
    pub errors: u64,
    /// Scheduled ops without a reply by the end of the grace period.
    pub abandoned: u64,
    /// Acked batches whose pushed update never arrived.
    pub missing_pushes: u64,
    /// Pushed updates whose epoch did not exceed the previous one on
    /// the same subscription.
    pub epoch_regressions: u64,
    pub pushes: u64,
}

/// What the open-loop phase sends.
pub struct OpenSpec<'a> {
    pub batch_frames: &'a [Vec<u8>],
    pub batch_trees: u64,
    pub n_batches: usize,
    pub queries: &'a [QueryOp],
    pub standing: &'a [&'a str],
}

/// What a reply on an open-loop connection answers.
enum Pending {
    Batch {
        sched: Instant,
        sent: Instant,
    },
    Query {
        class: Class,
        sched: Instant,
        sent: Instant,
    },
    Subscribe {
        sched: Instant,
    },
    Unsubscribe {
        sched: Instant,
    },
}

/// The write half of an open-loop connection plus the ops in flight on
/// it, in write order.  Writing and queueing happen under one lock, so
/// the queue order is the order the server answers in.
struct Link {
    inner: Mutex<(TcpStream, VecDeque<Pending>)>,
}

impl Link {
    fn new(conn: &Conn) -> Result<Link, String> {
        let writer = conn
            .stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Link {
            inner: Mutex::new((writer, VecDeque::new())),
        })
    }

    fn send(&self, frame: &[u8], pending: Pending) -> Result<(), String> {
        let mut g = self.inner.lock().map_err(|_| "link lock poisoned")?;
        g.1.push_back(pending);
        g.0.write_all(frame).map_err(|e| format!("send: {e}"))
    }

    fn pop(&self) -> Result<Pending, String> {
        let mut g = self.inner.lock().map_err(|_| "link lock poisoned")?;
        g.1.pop_front()
            .ok_or_else(|| "reply with nothing in flight".to_string())
    }

    fn in_flight(&self) -> usize {
        self.inner.lock().map_or(0, |g| g.1.len())
    }
}

/// Per connection, a sender thread writes each op when it is due (a
/// precise sleep, whatever the replies do) and a reader thread, blocked
/// in `read`, timestamps every reply and push as it arrives.
///
/// Connection A writes ingest batches at [`INGEST_RATE`]; connection B
/// holds the standing queries and writes queries at [`QUERY_RATE`].
pub fn open_loop(addr: SocketAddr, spec: &OpenSpec<'_>) -> Result<OpenLoop, String> {
    let a = Conn::connect(addr)?;
    let mut b = Conn::connect(addr)?;
    let mut pushes = Pushes::default();
    for text in spec.standing {
        let req = Request::Subscribe {
            mode: SubscribeMode::Ordered,
            query: text.to_string(),
        };
        b.send(&frame_bytes(req.kind(), &req.encode()).map_err(|e| e.to_string())?)?;
        match b.recv()? {
            Response::Subscribed { .. } => {}
            other => return Err(format!("subscribe {text}: {other:?}")),
        }
    }
    let (link_a, link_b) = (Link::new(&a)?, Link::new(&b)?);
    let sent_a = AtomicBool::new(false);
    let sent_b = AtomicBool::new(false);
    let acked = AtomicU64::new(0);
    let ingest_over = AtomicBool::new(false);
    let n_batches = spec.n_batches;
    let n_queries = spec.queries.len();
    let t0 = Instant::now() + Duration::from_millis(20);

    let (lags_a, lags_b, ra, rb) = std::thread::scope(|s| {
        let send_a = s.spawn(|| {
            let r = send_stream(&link_a, n_batches, INGEST_RATE, t0, |k, sched, sent| {
                (
                    &spec.batch_frames[k % spec.batch_frames.len()][..],
                    Pending::Batch { sched, sent },
                )
            });
            sent_a.store(true, Ordering::SeqCst);
            r
        });
        let send_b = s.spawn(|| {
            let r = send_stream(&link_b, n_queries, QUERY_RATE, t0, |j, sched, sent| {
                let op = &spec.queries[j];
                let pending = match op.class {
                    Class::Churn => Pending::Subscribe { sched },
                    class => Pending::Query { class, sched, sent },
                };
                (&op.frame[..], pending)
            });
            sent_b.store(true, Ordering::SeqCst);
            r
        });
        let read_a = s.spawn(|| {
            let r = read_ingest(a, &link_a, spec, t0, &sent_a, &acked);
            ingest_over.store(true, Ordering::SeqCst);
            r
        });
        let read_b = s.spawn(|| {
            read_queries(
                b,
                &link_b,
                &mut pushes,
                t0,
                n_queries,
                &sent_b,
                &ingest_over,
                &acked,
            )
        });
        (join(send_a), join(send_b), join(read_a), join(read_b))
    });
    let (mut r, rb) = (ra?, rb?);
    (r.lag_ingest, r.late) = lags_a?;
    let (lag_query, late_b) = lags_b?;
    r.lag_query = lag_query;
    r.late += late_b;
    r.attempted = (n_batches + n_queries) as u64;
    r.count = rb.count;
    r.expand = rb.expand;
    r.expr = rb.expr;
    r.churn = rb.churn;
    r.query_rt = rb.query_rt;
    r.errors += rb.errors;
    r.abandoned += rb.abandoned;

    // Pair the k-th new epoch with the k-th batch: exact, because one
    // connection sends every batch and each batch pushes once.
    let batches = r.batches_acked;
    for (k, arrival) in pushes.arrivals.iter().enumerate().take(batches as usize) {
        r.freshness
            .record(arrival.saturating_duration_since(due(t0, k, INGEST_RATE)));
    }
    r.missing_pushes = batches.saturating_sub(pushes.arrivals.len() as u64);
    r.epoch_regressions = pushes.regressions;
    r.errors += pushes.errors;
    r.pushes = pushes.count;
    Ok(r)
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join()
        .unwrap_or_else(|_| Err("load thread panicked".into()))
}

fn due(start: Instant, i: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Writes op `i` at `t0 + i / rate`; returns how late each write left
/// and how many left a whole gap late.
fn send_stream<'f>(
    link: &Link,
    n: usize,
    rate: f64,
    t0: Instant,
    op: impl Fn(usize, Instant, Instant) -> (&'f [u8], Pending),
) -> Result<(Lat, u64), String> {
    let gap = Duration::from_secs_f64(1.0 / rate);
    let (mut lag, mut late) = (Lat::default(), 0);
    for i in 0..n {
        let at = due(t0, i, rate);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let now = Instant::now();
        let (frame, pending) = op(i, at, now);
        link.send(frame, pending)?;
        lag.record(now - at);
        late += u64::from(now - at >= gap);
    }
    Ok((lag, late))
}

/// How long a reader blocks before re-checking whether it is done.
const READ_TICK: Duration = Duration::from_millis(50);

fn read_ingest(
    mut conn: Conn,
    link: &Link,
    spec: &OpenSpec<'_>,
    t0: Instant,
    all_sent: &AtomicBool,
    acked: &AtomicU64,
) -> Result<OpenLoop, String> {
    let mut r = OpenLoop::default();
    let stop = due(t0, spec.n_batches, INGEST_RATE) + GRACE;
    let mut last_ack = t0;
    loop {
        let Some(reply) = conn.recv_until(Instant::now() + READ_TICK)? else {
            if all_sent.load(Ordering::SeqCst) && link.in_flight() == 0 {
                break;
            }
            if Instant::now() >= stop {
                r.abandoned = link.in_flight() as u64;
                break;
            }
            continue;
        };
        let now = Instant::now();
        match (link.pop()?, reply) {
            (Pending::Batch { sched, sent }, Response::Ingested { trees, .. }) => {
                r.ingest.record(now - sched);
                r.ingest_rt.record(now - sent);
                r.batches_acked += 1;
                r.trees_acked += trees;
                r.bad_acks += u64::from(trees != spec.batch_trees);
                last_ack = now;
                acked.fetch_add(1, Ordering::SeqCst);
            }
            _ => r.errors += 1,
        }
    }
    r.secs = last_ack.saturating_duration_since(t0).as_secs_f64();
    Ok(r)
}

#[derive(Default)]
struct Pushes {
    /// Arrival of the first update of each new epoch, in epoch order.
    arrivals: Vec<Instant>,
    max_epoch: u64,
    last_by_id: HashMap<u64, u64>,
    regressions: u64,
    errors: u64,
    count: u64,
}

impl Pushes {
    fn observe(&mut self, id: u64, epoch: u64, ok: bool, now: Instant) {
        self.count += 1;
        self.errors += u64::from(!ok);
        if let Some(prev) = self.last_by_id.insert(id, epoch) {
            self.regressions += u64::from(epoch <= prev);
        }
        if epoch > self.max_epoch {
            self.max_epoch = epoch;
            self.arrivals.push(now);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn read_queries(
    mut conn: Conn,
    link: &Link,
    pushes: &mut Pushes,
    t0: Instant,
    n: usize,
    all_sent: &AtomicBool,
    ingest_over: &AtomicBool,
    acked: &AtomicU64,
) -> Result<OpenLoop, String> {
    let mut r = OpenLoop::default();
    let mut stop = due(t0, n, QUERY_RATE) + GRACE * 6;
    let mut grace_set = false;
    loop {
        let Some(reply) = conn.recv_until(Instant::now() + READ_TICK)? else {
            // Done once every reply is in and the ingest connection's
            // last acked batch has been pushed.
            let ingest_done = ingest_over.load(Ordering::SeqCst);
            if all_sent.load(Ordering::SeqCst)
                && link.in_flight() == 0
                && ingest_done
                && pushes.arrivals.len() as u64 >= acked.load(Ordering::SeqCst)
            {
                break;
            }
            if ingest_done && all_sent.load(Ordering::SeqCst) && !grace_set {
                stop = stop.min(Instant::now() + GRACE);
                grace_set = true;
            }
            if Instant::now() >= stop {
                r.abandoned = link.in_flight() as u64;
                break;
            }
            continue;
        };
        let now = Instant::now();
        if let Response::EstimateUpdate { id, epoch, result } = reply {
            pushes.observe(id, epoch, result.is_ok(), now);
            continue;
        }
        match (link.pop()?, reply) {
            (Pending::Query { class, sched, sent }, Response::Estimate(_)) => {
                let lat = match class {
                    Class::Count => &mut r.count,
                    Class::Expand => &mut r.expand,
                    _ => &mut r.expr,
                };
                lat.record(now - sched);
                r.query_rt.record(now - sent);
            }
            (Pending::Subscribe { sched }, Response::Subscribed { id, .. }) => {
                let req = Request::Unsubscribe { id };
                let frame = frame_bytes(req.kind(), &req.encode()).map_err(|e| e.to_string())?;
                link.send(&frame, Pending::Unsubscribe { sched })?;
            }
            (Pending::Unsubscribe { sched }, Response::Unsubscribed) => r.churn.record(now - sched),
            _ => r.errors += 1,
        }
    }
    Ok(r)
}
