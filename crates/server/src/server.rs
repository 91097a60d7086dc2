//! The TCP front-end: acceptor, bounded admission queue, worker pool,
//! load shedding and graceful drain.
//!
//! # Admission control
//!
//! One acceptor thread accepts connections and pushes them onto a
//! **bounded** queue feeding a fixed worker pool. When the queue is full
//! the acceptor sheds load *immediately*: the connection gets a
//! `503 Service Unavailable` with `Retry-After` and is closed — clients
//! see an explicit fast failure, never an unbounded queueing delay or a
//! hang. Each accepted connection also carries a read/write deadline
//! ([`ServerConfig::connection_deadline`]) so a stalled peer cannot pin a
//! worker forever.
//!
//! # Drain
//!
//! [`Server::shutdown`] drains gracefully: the acceptor stops accepting,
//! workers finish every connection already admitted (queued ones
//! included), keep-alive loops close after their in-flight request, and
//! `shutdown` joins every thread before returning its [`DrainReport`].
//! A connection answered at least once is closed for reading, so one
//! idling in a keep-alive read closes at once instead of waiting out its
//! deadline; one never answered still gets its first request served.
//! Admitted work is never dropped — the report asserts it.
//!
//! # Panic isolation
//!
//! A panicking request handler must not take the server down: the worker
//! catches the panic, answers `500`, counts it, and keeps serving. All
//! shared state is updated through [`parallel::lock_clean`]-guarded
//! mutexes (whole-value updates), so a panic can never leave torn state
//! behind a poisoned lock.

use crate::http::{self, ParseError, Request, Response};
use crate::metrics::Metrics;
use obs::Level;
use parallel::lock_clean;
use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What a [`Server`] serves: one request in, one response out.
///
/// [`crate::Router`] (a single drafts-serve instance) and
/// [`crate::fleet::FrontRouter`] (the fleet routing front) both implement
/// this; the transport — admission, keep-alive, drain, panic isolation —
/// is identical for every handler.
pub trait Handler: Send + Sync + 'static {
    /// Handles one parsed request.
    fn handle(&self, req: &Request, metrics: &Metrics) -> Response;

    /// The virtual serving time used when a request carries no `?now=`
    /// (also stamped on transport-level events such as shed and drain).
    fn default_now(&self) -> u64;

    /// Called once at start, before any request: register handler-owned
    /// counters and attach event sinks so the exposition order is
    /// canonical.
    fn on_boot(&self, _metrics: &Metrics) {}
}

/// Maximum requests served on one keep-alive connection.
const MAX_REQUESTS_PER_CONN: usize = 1024;

/// `Retry-After` seconds advertised on shed connections and on the fleet
/// front's refusals.
pub(crate) const RETRY_AFTER_SECS: u32 = 1;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads consuming admitted connections.
    pub workers: usize,
    /// Bounded admission-queue capacity; beyond it, connections are shed
    /// with 503.
    pub accept_queue: usize,
    /// Per-connection read/write deadline.
    pub connection_deadline: Duration,
    /// Structured-event ring capacity; `0` disables the event log (the
    /// default) and with it the `/v1/_debug/events` route. When enabled,
    /// the ring collects health transitions, feed faults, snapshot swaps,
    /// SLO transitions, shed, and drain events.
    pub event_log: usize,
    /// Distributed-trace ring capacity in records; `0` disables trace
    /// recording (the default — requests still propagate and echo the
    /// `x-drafts-trace` header, only the per-hop observation ring and
    /// the `/v1/_debug/trace/{id}` timeline are off).
    pub trace_log: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            accept_queue: 64,
            connection_deadline: Duration::from_secs(5),
            event_log: 0,
            trace_log: 0,
        }
    }
}

/// What the drain observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections admitted over the server's lifetime.
    pub admitted: u64,
    /// Connections fully served (every admitted connection, once drained).
    pub served: u64,
    /// Connections shed with 503.
    pub shed: u64,
    /// Handler panics converted to 500s.
    pub handler_panics: u64,
}

/// Bounded MPMC connection queue (mutex + condvar; `lock_clean` guarded).
struct ConnQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
}

struct QueueState {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Admits a connection unless the queue is at capacity (or closed).
    fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut state = lock_clean(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(conn);
        }
        state.items.push_back(conn);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops the next admitted connection; blocks while the queue is open
    /// and empty, returns `None` once it is closed **and** drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(conn) = state.items.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = match self.not_empty.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue; queued connections still drain via [`Self::pop`].
    fn close(&self) {
        lock_clean(&self.state).closed = true;
        self.not_empty.notify_all();
    }
}

struct Shared {
    queue: ConnQueue,
    handler: Arc<dyn Handler>,
    metrics: Arc<Metrics>,
    cfg: ServerConfig,
    /// Set when a drain has begun: keep-alive loops close after their
    /// current request.
    draining: AtomicBool,
    /// Connections pushed onto the queue (the drain invariant's side of
    /// the ledger; the `connections` *metric* counts on worker pick-up so
    /// the exposition stays deterministic for sequential clients).
    admitted: AtomicU64,
    /// Connections fully served.
    served: AtomicU64,
    /// Per worker, the connection it serves once that connection has been
    /// answered: the handles [`Server::shutdown`] closes for reading.
    answered: Mutex<Vec<Option<Arc<TcpStream>>>>,
}

impl Shared {
    /// Registers `worker`'s connection, just answered for the first time,
    /// for the drain's sweep. `draining` is read under the sweep's lock,
    /// so no connection slips past both: false means a drain has begun
    /// and the connection closes now.
    fn mark_answered(&self, worker: usize, conn: &Arc<TcpStream>) -> bool {
        let mut answered = lock_clean(&self.answered);
        if self.draining.load(Ordering::Acquire) {
            return false;
        }
        answered[worker] = Some(Arc::clone(conn));
        true
    }
}

/// A running server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:0` (an OS-assigned ephemeral port) and starts
    /// serving `handler`.
    pub fn start<H: Handler>(handler: H, cfg: ServerConfig) -> io::Result<Server> {
        Server::start_shared(Arc::new(handler), cfg)
    }

    /// [`Server::start`] for a handler the caller keeps a reference to
    /// (the fleet front holds its [`crate::fleet::FrontRouter`] this way
    /// to read routing counters and flip drain flags while serving).
    pub fn start_shared(handler: Arc<dyn Handler>, cfg: ServerConfig) -> io::Result<Server> {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.accept_queue >= 1, "need a non-empty accept queue");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let metrics = Metrics::with_logs(cfg.event_log, cfg.trace_log);
        // The handler registers its own counters (service cache/health/
        // fault families, fleet routing counters) in the same registry, at
        // boot, so the exposition order is canonical; event sinks attach
        // here too — after any `warm()` the caller ran — so a warmed boot
        // starts the ring empty, identically on every boot.
        handler.on_boot(&metrics);
        let shared = Arc::new(Shared {
            queue: ConnQueue::new(cfg.accept_queue),
            handler,
            metrics: Arc::new(metrics),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            answered: Mutex::new(vec![None; cfg.workers]),
            cfg,
        });

        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("drafts-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("drafts-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn acceptor")
        };

        Ok(Server {
            addr: local,
            shared,
            acceptor,
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// Drains and stops the server: stop accepting, close every answered
    /// connection for reading, serve everything already admitted, join
    /// all threads.
    ///
    /// # Panics
    /// Panics if an admitted connection was dropped unserved — the drain
    /// invariant the end-to-end tests assert.
    pub fn shutdown(self) -> DrainReport {
        if let Some(log) = self.shared.metrics.events() {
            log.emit(
                self.shared.handler.default_now(),
                Level::Info,
                "drain_begin",
                vec![],
            );
        }
        self.shared.draining.store(true, Ordering::Release);
        // Unblock the acceptor with a wake-up connection; it will observe
        // `draining` and exit. (The connection itself is admitted or shed
        // and then closed without a request — both are harmless.)
        let _ = TcpStream::connect(self.addr);
        self.acceptor.join().expect("acceptor panicked");
        // No more pushes: close the queue; workers drain what remains.
        self.shared.queue.close();
        // A read on an answered connection, idle in keep-alive, returns
        // end-of-stream at once; request bytes already received stay
        // readable and responses still go out, so nothing received goes
        // unanswered. A connection never answered is not in the sweep: it
        // still gets its first request served.
        for conn in lock_clean(&self.shared.answered).iter().flatten() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for w in self.workers {
            w.join().expect("worker panicked");
        }
        let metrics = &self.shared.metrics;
        let report = DrainReport {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::Relaxed),
            shed: metrics.shed.get(),
            handler_panics: metrics.handler_panics.get(),
        };
        if let Some(log) = metrics.events() {
            log.emit(
                self.shared.handler.default_now(),
                Level::Info,
                "drain_end",
                vec![
                    ("admitted", report.admitted.to_string()),
                    ("served", report.served.to_string()),
                ],
            );
        }
        assert_eq!(
            report.admitted, report.served,
            "graceful drain dropped admitted connections"
        );
        report
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            // The wake-up (or a late client) during drain: close without
            // counting — it was never admitted and `shed` measures
            // saturation, not shutdown.
            drop(conn);
            return;
        }
        match shared.queue.try_push(conn) {
            Ok(()) => {
                shared.admitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(conn) => shed(conn, shared),
        }
    }
}

/// Refuses a connection with 503 + `Retry-After` and closes it.
fn shed(conn: TcpStream, shared: &Shared) {
    shared.metrics.shed.inc();
    if let Some(log) = shared.metrics.events() {
        // Shed happens before any request parses, so there is no `?now=`
        // yet; the configured serving time stands in. Shed is inherently
        // load-dependent and thus outside the byte-determinism contract.
        log.emit(
            shared.handler.default_now(),
            Level::Warn,
            "shed",
            vec![("retry_after_secs", RETRY_AFTER_SECS.to_string())],
        );
    }
    let _ = conn.set_write_timeout(Some(shared.cfg.connection_deadline));
    let mut conn = conn;
    let resp = Response::overloaded(RETRY_AFTER_SECS);
    let _ = http::write_response(&mut conn, &resp, false);
    let _ = conn.flush();
}

fn worker_loop(worker: usize, shared: &Shared) {
    // Every span opened while this worker handles requests records into
    // the server's tracer (per-stage histograms).
    let _tracing = shared.metrics.tracer().install();
    while let Some(conn) = shared.queue.pop() {
        // Counted here — not in the acceptor — so the increment is
        // ordered before any request on this connection is handled: a
        // sequential client always sees its own connection in
        // `/v1/metrics`, keeping the exposition byte-deterministic.
        shared.metrics.connections.inc();
        // Panic isolation at the connection level too: a torn transport
        // or handler bug on one connection never kills the worker.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(conn, worker, shared);
        }));
        if result.is_err() {
            shared.metrics.handler_panics.inc();
        }
        lock_clean(&shared.answered)[worker] = None;
        shared.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serves one (possibly keep-alive) connection to completion on
/// `worker`.
fn serve_connection(conn: TcpStream, worker: usize, shared: &Shared) {
    let _ = conn.set_read_timeout(Some(shared.cfg.connection_deadline));
    let _ = conn.set_write_timeout(Some(shared.cfg.connection_deadline));
    let _ = conn.set_nodelay(true);
    let conn = Arc::new(conn);
    let mut reader = BufReader::new(&*conn);
    let mut writer = &*conn;
    for served in 0..MAX_REQUESTS_PER_CONN {
        let req = match http::read_request(&mut reader) {
            Ok(req) => req,
            Err(ParseError::Eof) => return,
            Err(ParseError::Io(_)) => return, // deadline or torn transport
            Err(ParseError::Malformed(msg)) => {
                let _ = http::write_response(&mut writer, &Response::error(400, msg), false);
                return;
            }
            Err(ParseError::TooLarge(msg)) => {
                let _ = http::write_response(&mut writer, &Response::error(413, msg), false);
                return;
            }
        };
        let watch = obs::Stopwatch::start();
        let resp = handle_isolated(&req, shared);
        // Recorded before the status counter so a sequential client's
        // `/v1/metrics` read always includes its previous request in both
        // families (the two-boot byte diff depends on that ordering).
        let elapsed_ns = watch.elapsed().as_nanos() as u64;
        shared.metrics.request_latency.record_ns(elapsed_ns);
        // The router echoes the request's trace context as a response
        // header; feed it to the slowest-request exemplar so an SLO
        // latency breach can name the trace that ate the budget.
        if let Some((_, enc)) = resp
            .extra_headers
            .iter()
            .find(|(k, _)| *k == obs::TRACE_HEADER)
        {
            if let Some(ctx) = obs::TraceContext::parse(enc) {
                shared
                    .metrics
                    .slowest_trace()
                    .offer(elapsed_ns, ctx.trace_id);
            }
        }
        shared.metrics.count_status(resp.status);
        // Close after this response if the client asked, the per-conn
        // request budget is spent, or a drain has begun.
        let draining = shared.draining.load(Ordering::Acquire);
        let keep_alive = req.keep_alive && served + 1 < MAX_REQUESTS_PER_CONN && !draining;
        if http::write_response(&mut writer, &resp, keep_alive).is_err() || !keep_alive {
            return;
        }
        if served == 0 && !shared.mark_answered(worker, &conn) {
            return;
        }
    }
}

/// Runs the router with panic isolation: a panicking handler yields a
/// 500 and the connection (and worker) live on.
fn handle_isolated(req: &Request, shared: &Shared) -> Response {
    match panic::catch_unwind(AssertUnwindSafe(|| {
        shared.handler.handle(req, &shared.metrics)
    })) {
        Ok(resp) => resp,
        Err(_) => {
            shared.metrics.handler_panics.inc();
            Response::error(500, "internal handler panic")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_queue_bounds_and_drains() {
        // TcpStream is awkward to fabricate; exercise the queue through
        // loopback socket pairs.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut accepted = Vec::new();
        let make_conn = || TcpStream::connect(addr).unwrap();
        let q = ConnQueue::new(2);
        for _ in 0..3 {
            let _client = make_conn();
            accepted.push(listener.accept().unwrap().0);
        }
        let c3 = accepted.pop().unwrap();
        for c in accepted {
            assert!(q.try_push(c).is_ok());
        }
        assert!(q.try_push(c3).is_err(), "capacity 2 rejects the third");
        q.close();
        assert!(q.pop().is_some(), "queued items drain after close");
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "then the queue reports closed");
        // A closed queue admits nothing.
        let _client = make_conn();
        let late = listener.accept().unwrap().0;
        assert!(q.try_push(late).is_err());
    }
}
