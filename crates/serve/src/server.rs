//! The TCP daemon: epoll event loop, connection handling, job dispatch.
//!
//! One thread drives every connection through a raw epoll event loop
//! (see [`crate::net`]): non-blocking accepts, per-connection state
//! machines with incremental line framing, and EPOLLOUT-driven partial
//! writes. A connection is never owned by a thread; slow clients cost
//! one `Conn` struct, not a stack.
//!
//! Simulations still dispatch onto the bounded [`WorkerPool`]; when the
//! queue is full the request is shed immediately with a 429 reply
//! instead of queueing unboundedly — explicit backpressure the client
//! can see and retry against. A dispatched run parks its connection in
//! an in-flight state (its socket stops being polled for input, so a
//! pipelined flood backs up into the kernel buffer) and settles itself
//! on its pool worker ([`WorkerPool::submit_then`]): cache put, intent
//! retire and reply render happen there, and the reply goes back to the
//! loop over a channel plus an eventfd wakeup. An in-flight run holds
//! exactly one thread, its worker.
//!
//! Every run is driven by [`Simulation::drive`], the same driver the
//! CLI's `supervise` uses: it checks an absolute deadline before each
//! step chunk, so a runaway request yields a 408 reply instead of
//! pinning a worker forever. A live request's deadline is its admission
//! instant plus `deadline_ms`, so time spent waiting for a worker can
//! never buy extra execution time past the client's deadline.
//!
//! Connections are hardened end to end: a timing wheel (see
//! [`crate::wheel`]) replaces per-socket kernel timeouts — a client
//! that cannot produce a request line within the read timeout, or
//! absorb its reply within the write timeout, gets a typed 408 and is
//! disconnected. `WouldBlock` is never treated as a timeout: on a
//! non-blocking socket it only means "no data yet", and timeouts are
//! classified exclusively by wheel expiry. A bounded per-connection
//! outbox caps what a non-reading client can queue; past the cap the
//! connection is closed with a typed 408 — replies are never truncated
//! mid-line. A max-connections gate sheds excess connections with a
//! typed 503, a circuit breaker over the run path sheds work with a
//! typed 503 while the simulator is failing repeatedly, and dead
//! workers are respawned by the pool supervisor (visible in
//! `serve_worker_respawns_total` and the `health` op).
//!
//! Completed reports are cached in a sharded LRU keyed by
//! [`powerchop_checkpoint::run_key`] over the program and configuration
//! fingerprints, so a repeated request is served from memory —
//! bit-identical, visible in the `serve_cache_hits_total` counter.
//!
//! A plain HTTP `GET /metrics` on the same port returns the Prometheus
//! text exposition, so `curl` and a Prometheus scraper both work without
//! speaking the JSON protocol.
//!
//! Shutdown is in-protocol (`{"op":"shutdown"}`) because the workspace
//! is dependency-free and cannot install a SIGTERM handler: the daemon
//! stops accepting connections, replies 503 to new work, waits for
//! connected clients to finish, and drains the pool before exiting.
//! See `DESIGN.md` §14 for the event-loop state machine.

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use powerchop::{
    config_fingerprint, Driven, ManagerKind, RunConfig, RunReport, SimError, Simulation, STEP_CHUNK,
};
use powerchop_checkpoint::run_key;
use powerchop_exec::{JobHandle, JobPanic, KillWorker, SubmitError, WorkerPool};
use powerchop_gisa::Program;
use powerchop_resilience::{Admission, CircuitBreaker, RetryPolicy};
use powerchop_telemetry::export::JsonWriter;
use powerchop_telemetry::{
    format_trace_id, trace_id, MetricsRegistry, Phase, SpanLedger, TelemetryConfig, Tracer,
};
use powerchop_workloads::Scale;

use crate::cache::{ResultCache, ShardedCache};
use crate::durability::{self, Durability, SpillPlan};
use crate::net::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::protocol::{
    error_reply, fault_config, parse_request, run_reply, sweep_reply, Limits, ReqError, Request,
    RunSpec, SweepOutcome,
};
use crate::report::report_to_json;
use crate::wheel::TimerWheel;

/// Everything that shapes a daemon instance. The CLI's `serve` flags
/// parse straight into it, so [`ServerConfig::default`] holds every
/// serve default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker thread count (`None` = `POWERCHOP_JOBS` or CPU count).
    /// Also the result-cache shard count.
    pub jobs: Option<usize>,
    /// Jobs that may wait in the queue before requests are shed with 429.
    pub queue_depth: usize,
    /// LRU result-cache capacity (0 disables caching).
    pub cache_entries: usize,
    /// Per-run wall-clock deadline cap in milliseconds (0 expires every
    /// run before its first step chunk).
    pub deadline_ms: u64,
    /// Largest accepted request line in bytes.
    pub max_request_bytes: usize,
    /// Largest accepted instruction budget per run.
    pub max_budget: u64,
    /// Concurrent connections admitted before new ones are shed with a
    /// typed 503 (`overloaded`).
    pub max_connections: usize,
    /// Read deadline in milliseconds (0 disables): a client that cannot
    /// produce a full request line within it gets a typed 408
    /// (`slow-client`) and is disconnected. Enforced by the timing
    /// wheel, never by `WouldBlock` classification.
    pub read_timeout_ms: u64,
    /// Write deadline in milliseconds (0 disables): a client whose
    /// socket makes no flush progress within it is disconnected.
    pub write_timeout_ms: u64,
    /// Bytes of unflushed replies one connection may queue before it is
    /// declared a slow consumer and closed with a typed 408. A single
    /// reply into an empty outbox is always allowed, so the per-
    /// connection memory bound is `max(cap, largest single reply)`.
    pub max_outbox_bytes: usize,
    /// Honor `"chaos"` request fields (deliberate worker kills). Off by
    /// default; only soak/chaos tests should enable it.
    pub chaos_ops: bool,
    /// Directory for the write-ahead intent journal and checkpoint
    /// spills. `None` disables crash consistency entirely.
    pub journal_dir: Option<String>,
    /// Directory for the persistent result-cache log. `None` keeps the
    /// cache memory-only.
    pub cache_dir: Option<String>,
    /// Retired-instruction interval between checkpoint spills of
    /// in-flight runs (only meaningful with `journal_dir` set).
    pub spill_every: u64,
    /// Structured JSONL access-log path (`None` disables the log).
    /// One RFC 8259 record per request, carrying the trace id, op,
    /// status, cache outcome and the full span breakdown.
    pub access_log: Option<String>,
    /// Requests slower than this many milliseconds end to end are
    /// promoted to a detailed access-log record (`None` never
    /// promotes; `Some(0)` promotes everything).
    pub slow_ms: Option<u64>,
    /// Trace-id seed. `None` derives a random per-process seed; fixing
    /// it makes the trace-id sequence fully deterministic.
    pub seed: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".into(),
            jobs: None,
            queue_depth: 16,
            cache_entries: 64,
            deadline_ms: 120_000,
            max_request_bytes: 1 << 20,
            max_budget: 1_000_000_000,
            max_connections: 64,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            max_outbox_bytes: 1 << 20,
            chaos_ops: false,
            journal_dir: None,
            cache_dir: None,
            spill_every: 2_000_000,
            access_log: None,
            slow_ms: None,
            seed: None,
        }
    }
}

/// Per-op latency histogram keys. Labels live inside the metric key;
/// the exporter splits them back out into Prometheus label syntax.
fn op_duration_metric(op: &str) -> &'static str {
    match op {
        "run" => r#"serve_request_duration_ms{op="run"}"#,
        "sweep" => r#"serve_request_duration_ms{op="sweep"}"#,
        "status" => r#"serve_request_duration_ms{op="status"}"#,
        "health" => r#"serve_request_duration_ms{op="health"}"#,
        "metrics" => r#"serve_request_duration_ms{op="metrics"}"#,
        "shutdown" => r#"serve_request_duration_ms{op="shutdown"}"#,
        _ => r#"serve_request_duration_ms{op="malformed"}"#,
    }
}

/// Quantile gauges derived from the latency histograms on every
/// exposition: (histogram key, gauge key, q). Only the two ops with
/// real compute behind them get quantile gauges; scrapers can derive
/// any quantile for the rest from the `_bucket` series.
const QUANTILE_GAUGES: [(&str, &str, f64); 8] = [
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p50{op="run"}"#,
        0.50,
    ),
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p90{op="run"}"#,
        0.90,
    ),
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p99{op="run"}"#,
        0.99,
    ),
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p999{op="run"}"#,
        0.999,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p50{op="sweep"}"#,
        0.50,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p90{op="sweep"}"#,
        0.90,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p99{op="sweep"}"#,
        0.99,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p999{op="sweep"}"#,
        0.999,
    ),
];

/// Nanoseconds elapsed since `t`, saturating instead of wrapping.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A random-enough per-process trace seed without any new dependency:
/// `RandomState` is seeded from OS entropy once per process.
fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

/// Everything one request accumulates on its way through the daemon:
/// the trace id minted at accept, the span ledger every phase records
/// into, and the classification the access log and histograms need.
#[derive(Clone)]
struct RequestCtx {
    trace: u64,
    ledger: SpanLedger,
    op: &'static str,
    status: u16,
    cached: bool,
    bench: Option<String>,
    /// Simulated cycles attributed to the compute phase (from the
    /// run report; sweeps accumulate across rows).
    compute_cycles: u64,
    /// Flight-recorder events captured by the per-run tracer (only
    /// when the access log is enabled; surfaced on slow records).
    trace_events: u64,
}

impl RequestCtx {
    fn new(trace: u64) -> Self {
        Self {
            trace,
            ledger: SpanLedger::default(),
            op: "malformed",
            status: 200,
            cached: false,
            bench: None,
            compute_cycles: 0,
            trace_events: 0,
        }
    }
}

/// Locks a mutex, riding through poisoning: a panicked holder cannot
/// corrupt the metrics or breaker invariants we rely on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the event loop, the pool workers, the sweep drivers
/// and the resumer.
struct State {
    pool: WorkerPool,
    cache: ShardedCache,
    metrics: Mutex<MetricsRegistry>,
    draining: AtomicBool,
    limits: Limits,
    max_request_bytes: usize,
    addr: SocketAddr,
    /// Connections currently being served (max-connections gate).
    connections: AtomicUsize,
    max_connections: usize,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    /// Per-connection cap on unflushed reply bytes (see
    /// [`ServerConfig::max_outbox_bytes`]).
    max_outbox_bytes: usize,
    /// Unflushed reply bytes across every connection (the
    /// `serve_outbox_bytes` gauge).
    outbox_bytes: AtomicU64,
    /// Circuit breaker over run execution: repeated internal failures
    /// trip it and new runs are shed with a typed 503 until a probe
    /// succeeds.
    breaker: Mutex<CircuitBreaker>,
    /// Zero point of the breaker's logical millisecond clock.
    epoch: Instant,
    /// Crash-consistency machinery (`None` when `--journal-dir` is
    /// unset: the daemon runs memory-only, exactly as before).
    durable: Option<Arc<Durability>>,
    /// Seed of the SplitMix64 trace-id sequence (fixed by `--seed`,
    /// OS entropy otherwise).
    trace_seed: u64,
    /// Requests traced so far; the counter value is the sequence
    /// index fed to [`trace_id`].
    trace_counter: AtomicU64,
    /// Requests currently inside dispatch (the
    /// `serve_inflight_requests` gauge).
    inflight_requests: AtomicUsize,
    /// The JSONL access log, append-opened at bind (`None` when
    /// `--access-log` is unset).
    access: Option<Mutex<BufWriter<std::fs::File>>>,
    /// Slow-request promotion threshold (see [`ServerConfig::slow_ms`]).
    slow_ms: Option<u64>,
}

impl State {
    fn count(&self, name: &'static str) {
        lock(&self.metrics).counter_add(name, 1);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Milliseconds since the daemon booted (the breaker and wheel
    /// clock).
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Mints the next trace id: a SplitMix64 stream over the seed, so
    /// a fixed `--seed` reproduces the exact id sequence.
    fn next_trace(&self) -> u64 {
        trace_id(
            self.trace_seed,
            self.trace_counter.fetch_add(1, Ordering::SeqCst),
        )
    }

    /// Whether runs should carry an attached flight recorder (only
    /// when someone can see the result: the access log is on).
    fn traced(&self) -> bool {
        self.access.is_some()
    }

    /// Folds one finished request into the per-op latency histogram
    /// and the access log, and releases the in-flight gauge.
    fn observe_request(&self, ctx: &RequestCtx) {
        self.inflight_requests.fetch_sub(1, Ordering::SeqCst);
        let total_ns = ctx.ledger.total_wall_ns();
        lock(&self.metrics).observe(op_duration_metric(ctx.op), total_ns / 1_000_000);
        if self.access.is_some() {
            self.log_access(&self.access_record(ctx, total_ns));
        }
    }

    /// Appends one raw JSONL line to the access log (best effort: a
    /// full disk must never take the serving path down with it).
    fn log_access(&self, record: &str) {
        if let Some(log) = &self.access {
            let mut w = lock(log);
            let _ = writeln!(w, "{record}");
            let _ = w.flush();
        }
    }

    /// Renders one access-log record. Every record carries all seven
    /// span phases; crossing the `--slow-ms` threshold promotes it
    /// with compute-attribution detail.
    fn access_record(&self, ctx: &RequestCtx, total_ns: u64) -> String {
        let total_us = total_ns / 1_000;
        let slow = self.slow_ms.is_some_and(|ms| total_us / 1_000 >= ms);
        let mut spans = JsonWriter::object();
        for phase in Phase::ALL {
            let key = format!("{}_us", phase.label());
            spans.field_u64(&key, ctx.ledger.wall_ns(phase) / 1_000);
        }
        let mut w = JsonWriter::object();
        w.field_u64("ts_ms", self.now_ms());
        w.field_str("trace_id", &format_trace_id(ctx.trace));
        w.field_str("op", ctx.op);
        w.field_u64("status", u64::from(ctx.status));
        w.field_bool("cached", ctx.cached);
        if let Some(bench) = &ctx.bench {
            w.field_str("bench", bench);
        }
        w.field_u64("duration_us", total_us);
        w.field_raw("spans", &spans.finish());
        w.field_bool("slow", slow);
        if slow {
            w.field_u64("compute_cycles", ctx.compute_cycles);
            w.field_u64("trace_events", ctx.trace_events);
        }
        w.finish()
    }

    /// Asks the breaker whether a run may proceed right now.
    fn breaker_admit(&self) -> Result<(), ReqError> {
        match lock(&self.breaker).admit(self.now_ms()) {
            Admission::Allow | Admission::Probe => Ok(()),
            Admission::Reject { retry_after_ms } => {
                Err(ReqError::breaker_open(retry_after_ms.max(1)))
            }
        }
    }

    /// Feeds a run outcome back to the breaker. Only *infrastructure*
    /// failures (simulator errors, worker panics) count against it;
    /// deadline expiries and shed requests say nothing about the
    /// health of the run path.
    fn breaker_observe(&self, ok: bool) {
        let mut breaker = lock(&self.breaker);
        let now = self.now_ms();
        if ok {
            breaker.record_success(now);
        } else {
            breaker.record_failure(now);
        }
        let trips = breaker.trips();
        drop(breaker);
        lock(&self.metrics).counter_set("serve_breaker_trips_total", trips);
    }

    /// Snapshot the live gauges and render the Prometheus text.
    fn prometheus_text(&self) -> String {
        let mut m = lock(&self.metrics);
        m.gauge_set("serve_queue_depth", self.pool.queued() as f64);
        m.gauge_set("serve_inflight", self.pool.inflight() as f64);
        m.gauge_set("serve_cache_entries", self.cache.len() as f64);
        m.gauge_set("serve_draining", if self.draining() { 1.0 } else { 0.0 });
        m.gauge_set(
            "serve_connections",
            self.connections.load(Ordering::SeqCst) as f64,
        );
        m.gauge_set("serve_workers_alive", self.pool.alive() as f64);
        m.gauge_set(
            "serve_inflight_requests",
            self.inflight_requests.load(Ordering::SeqCst) as f64,
        );
        m.gauge_set(
            "serve_outbox_bytes",
            self.outbox_bytes.load(Ordering::SeqCst) as f64,
        );
        m.counter_set("serve_worker_respawns_total", self.pool.respawns());
        m.counter_set("serve_breaker_trips_total", lock(&self.breaker).trips());
        // Refresh the quantile gauges from the log2 histograms so every
        // scrape carries current p50/p90/p99/p999 estimates alongside
        // the raw buckets.
        for (hist, gauge, q) in QUANTILE_GAUGES {
            if let Some(estimate) = m.histogram(hist).map(|h| h.quantile(q)) {
                m.gauge_set(gauge, estimate);
            }
        }
        m.to_prometheus_text()
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    /// Journaled intents with no completion record, found at boot.
    /// [`Server::run`] resumes them on a background thread.
    pending: Vec<powerchop_durable::PendingIntent>,
}

impl Server {
    /// Binds the listener and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, bad address, ...).
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let jobs = powerchop_exec::resolve_jobs(cfg.jobs);
        let mut metrics = MetricsRegistry::new();
        // Seed the resilience and recovery counters at zero so a
        // metrics scrape sees them before the first
        // trip/retry/respawn/shed/recovery ever happens.
        for name in [
            "serve_breaker_trips_total",
            "serve_retries_total",
            "serve_worker_respawns_total",
            "serve_slow_client_disconnects_total",
            "serve_conn_rejected_total",
            "serve_epoll_wakeups_total",
            "serve_backpressure_disconnects_total",
            "serve_recoveries_total",
            "serve_journal_replayed_total",
            "serve_torn_tail_discards_total",
            "serve_cache_reloads_total",
            // JIT counters aggregate across every completed run; seeded so
            // a scrape on a JIT-off (or freshly booted) daemon still shows
            // the full series shape.
            "jit_translations_compiled",
            "jit_exec_hits",
            "jit_fallbacks",
            "jit_code_bytes",
        ] {
            metrics.counter_add(name, 0);
        }
        // Pre-seed the per-op latency histograms and the in-flight
        // gauge too: a scrape right after boot sees every series at
        // zero, shape-complete, before the first request ever lands.
        for op in [
            "run",
            "sweep",
            "status",
            "health",
            "metrics",
            "shutdown",
            "malformed",
        ] {
            metrics.histogram_seed(op_duration_metric(op));
        }
        metrics.gauge_set("serve_inflight_requests", 0.0);
        metrics.gauge_set("serve_outbox_bytes", 0.0);
        metrics.set_help(
            "serve_request_duration_ms",
            "End-to-end request latency in milliseconds, by op.",
        );
        metrics.set_help(
            "serve_inflight_requests",
            "Requests currently inside dispatch.",
        );
        metrics.set_help("serve_requests_total", "Request lines received.");
        metrics.set_help("serve_runs_total", "Simulations completed successfully.");
        metrics.set_help(
            "serve_cache_hits_total",
            "Run requests answered bit-identically from the result cache.",
        );
        metrics.set_help(
            "serve_breaker_trips_total",
            "Circuit-breaker transitions to open.",
        );
        metrics.set_help(
            "serve_worker_respawns_total",
            "Dead pool workers replaced by the supervisor.",
        );
        metrics.set_help(
            "serve_epoll_wakeups_total",
            "Event-loop wakeups that delivered at least one ready event.",
        );
        metrics.set_help(
            "serve_outbox_bytes",
            "Reply bytes queued for slow clients across all connections.",
        );
        metrics.set_help(
            "serve_backpressure_disconnects_total",
            "Slow consumers disconnected for exceeding the per-connection outbox cap.",
        );
        // The access log is append-opened before the listener exists:
        // if the path is bad the daemon fails to boot loudly instead of
        // silently dropping every record.
        let access = match &cfg.access_log {
            Some(path) => Some(Mutex::new(BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ))),
            None => None,
        };
        // Boot-time recovery: replay the journal and reload the
        // persistent cache before the listener serves anything, so the
        // first request already sees the recovered world. The reload
        // path fills a flat cache which is then redistributed across
        // the shards in recency order.
        let mut reloaded = ResultCache::new(cfg.cache_entries);
        let mut durable = None;
        let mut pending = Vec::new();
        if let Some(dir) = &cfg.journal_dir {
            let boot = durability::boot(
                std::path::Path::new(dir),
                cfg.cache_dir.as_deref().map(std::path::Path::new),
                cfg.spill_every,
                &mut reloaded,
            )?;
            let r = &boot.durability.recovery;
            metrics.counter_add("serve_recoveries_total", u64::from(!r.clean_boot));
            metrics.counter_add("serve_journal_replayed_total", r.journal_replayed);
            metrics.counter_add("serve_torn_tail_discards_total", r.torn_discards);
            metrics.counter_add("serve_cache_reloads_total", r.cache_reloaded);
            durable = Some(boot.durability);
            pending = boot.pending;
        }
        let cache = ShardedCache::new(cfg.cache_entries, jobs);
        cache.absorb(reloaded);
        let state = Arc::new(State {
            pool: WorkerPool::new(jobs, cfg.queue_depth),
            cache,
            metrics: Mutex::new(metrics),
            draining: AtomicBool::new(false),
            limits: Limits {
                max_budget: cfg.max_budget,
                deadline_ms: cfg.deadline_ms,
                allow_chaos: cfg.chaos_ops,
            },
            max_request_bytes: cfg.max_request_bytes,
            addr,
            connections: AtomicUsize::new(0),
            max_connections: cfg.max_connections.max(1),
            read_timeout_ms: cfg.read_timeout_ms,
            write_timeout_ms: cfg.write_timeout_ms,
            max_outbox_bytes: cfg.max_outbox_bytes.max(1),
            outbox_bytes: AtomicU64::new(0),
            breaker: Mutex::new(CircuitBreaker::default()),
            epoch: Instant::now(),
            durable,
            trace_seed: cfg.seed.unwrap_or_else(entropy_seed),
            trace_counter: AtomicU64::new(0),
            inflight_requests: AtomicUsize::new(0),
            access,
            slow_ms: cfg.slow_ms,
        });
        Ok(Self {
            listener,
            state,
            pending,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until a shutdown request drains the daemon.
    ///
    /// Blocks the calling thread. After a `{"op":"shutdown"}` request:
    /// no new connections are accepted, open connections are served
    /// until they close (clients still holding theirs get 503 for new
    /// work), and the worker pool is drained before returning.
    ///
    /// # Errors
    ///
    /// Propagates event-loop I/O failures (epoll itself breaking);
    /// per-connection errors only terminate that connection.
    pub fn run(mut self) -> std::io::Result<()> {
        // Resume journaled work on a background thread so the listener
        // serves new clients immediately; `health` reports
        // `recovery_active` until the backlog drains.
        let resumer = if self.pending.is_empty() {
            None
        } else {
            let state = Arc::clone(&self.state);
            let pending = std::mem::take(&mut self.pending);
            Some(std::thread::spawn(move || resume_pending(&state, pending)))
        };
        let outcome = run_event_loop(&self.listener, &self.state);
        // The resumer abandons un-dispatched intents once draining is
        // observed (they stay journaled for the next boot) and finishes
        // any run already on the pool, which drain() then waits out.
        if let Some(resumer) = resumer {
            let _ = resumer.join();
        }
        self.state.pool.drain();
        outcome
    }
}

/// Listener token in the epoll interest set.
const TOK_LISTENER: u64 = 0;
/// Wakeup-eventfd token.
const TOK_WAKE: u64 = 1;
/// First connection token; tokens grow monotonically and are never
/// reused, so a stale timer or completion can never hit a new client.
const TOK_FIRST_CONN: u64 = 2;
/// Bytes read per `read` call on a ready socket.
const READ_CHUNK: usize = 16 * 1024;
/// Timing-wheel tick width.
const WHEEL_GRANULARITY_MS: u64 = 8;
/// Timing-wheel slot count (horizon: slots × granularity per turn).
const WHEEL_SLOTS: usize = 512;
/// Ready events drained per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 256;
/// Longest HTTP header line accepted before it is consumed as-is.
const HTTP_HEADER_LINE_MAX: usize = 8 * 1024;
/// Most HTTP header lines drained before the response is sent anyway.
const HTTP_HEADER_LINES_MAX: usize = 64;

/// What the loop should do with a connection after an event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Keep,
    Close,
}

#[derive(Clone, Copy)]
enum TimerKind {
    Read,
    Write,
}

/// A wheel entry: which connection, which deadline. Cancellation is
/// lazy — the connection's own deadline field is the truth, a fired
/// entry for a disarmed or refreshed deadline is a no-op or a re-arm.
#[derive(Clone, Copy)]
struct Timer {
    token: u64,
    kind: TimerKind,
}

/// Where a connection is in its request/reply cycle.
enum ConnPhase {
    /// Framing request lines out of `inbuf`.
    Reading,
    /// A run or sweep is on the pool; input polling is suspended so a
    /// pipelined flood backs up into the kernel socket buffer.
    InFlight,
    /// Draining HTTP headers after a `GET` line; replies and closes at
    /// the blank line.
    Http { path: String, lines: usize },
}

/// One enqueued reply awaiting its flush: when `total_flushed` crosses
/// `flush_at` the request is settled into the histograms and access
/// log, with the respond span covering enqueue-to-flush.
struct SettleMark {
    flush_at: u64,
    ctx: RequestCtx,
    respond_started: Instant,
}

/// Per-connection state machine. No thread, no kernel timeouts — just
/// buffers, deadlines, and a phase.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Bytes received but not yet framed into lines.
    inbuf: Vec<u8>,
    /// Rendered replies not yet (fully) written; `out_sent` is the
    /// flush cursor into it.
    outbox: Vec<u8>,
    out_sent: usize,
    /// Lifetime byte counters; `SettleMark::flush_at` indexes into
    /// this stream, so partial flushes settle the right requests.
    total_enqueued: u64,
    total_flushed: u64,
    settling: VecDeque<SettleMark>,
    phase: ConnPhase,
    /// When the daemon started waiting for the current request line.
    accept_started: Instant,
    /// Absolute ms deadline for the next complete request line
    /// (`None` = disarmed, e.g. while a run is in flight).
    read_deadline: Option<u64>,
    /// Absolute ms deadline for flush progress (`None` while the
    /// outbox is empty).
    write_deadline: Option<u64>,
    /// Whether a wheel entry for this deadline kind is live (at most
    /// one each; refreshes only move the deadline field).
    read_entry_live: bool,
    write_entry_live: bool,
    /// Close as soon as the outbox drains (oversize line, HTTP reply,
    /// slow-client 408, backpressure trip).
    close_after_flush: bool,
    /// The peer half-closed its send side; pending replies still
    /// flush, then the connection closes.
    eof: bool,
    /// The epoll interest mask currently registered.
    interest: u32,
    /// This connection's contribution to the `serve_outbox_bytes`
    /// gauge (diff-updated).
    gauge_reported: u64,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Self {
        Self {
            stream,
            fd,
            inbuf: Vec::new(),
            outbox: Vec::new(),
            out_sent: 0,
            total_enqueued: 0,
            total_flushed: 0,
            settling: VecDeque::new(),
            phase: ConnPhase::Reading,
            accept_started: Instant::now(),
            read_deadline: None,
            write_deadline: None,
            read_entry_live: false,
            write_entry_live: false,
            close_after_flush: false,
            eof: false,
            interest: EPOLLIN,
            gauge_reported: 0,
        }
    }

    fn out_pending(&self) -> usize {
        self.outbox.len() - self.out_sent
    }

    /// Nothing owed in either direction: safe to close on EOF.
    fn idle(&self) -> bool {
        !matches!(self.phase, ConnPhase::InFlight)
            && self.out_pending() == 0
            && self.settling.is_empty()
            && self.inbuf.is_empty()
    }
}

/// A run or sweep reply coming back from off the loop.
struct Completion {
    token: u64,
    ctx: RequestCtx,
    reply: String,
}

/// The way back to the event loop for a request settled off it (on its
/// pool worker, or on a sweep's driver thread).
#[derive(Clone)]
struct ReplyTx {
    tx: mpsc::Sender<Completion>,
    wake: Arc<WakeFd>,
}

impl ReplyTx {
    fn complete(&self, token: u64, ctx: RequestCtx, reply: String) {
        // Send-then-ring: the message is in the channel before the
        // eventfd wakes the loop, so the drain always finds it.
        let _ = self.tx.send(Completion { token, ctx, reply });
        self.wake.ring();
    }
}

/// Where one request line goes after parsing.
enum Dispatch {
    /// Answered inline on the loop thread (quick ops, errors, hits).
    Reply(String),
    /// A run is on the pool; its worker will complete it.
    Run,
    /// A sweep drives the pool from its own thread.
    Sweep(Vec<RunSpec>),
}

/// The epoll event loop: all connection state lives here, on one
/// thread. Compute never runs on it.
struct EventLoop<'a> {
    state: &'a Arc<State>,
    epoll: Epoll,
    reply_tx: ReplyTx,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel<Timer>,
    next_token: u64,
    /// Runs and sweeps dispatched off the loop whose completions have
    /// not come back yet; the drain waits for zero.
    inflight_dispatches: usize,
    /// Scratch buffer for wheel expiry.
    fired: Vec<Timer>,
}

fn run_event_loop(listener: &TcpListener, state: &Arc<State>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = Arc::new(WakeFd::new()?);
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)?;
    epoll.add(wake.raw(), EPOLLIN, TOK_WAKE)?;
    let (tx, rx) = mpsc::channel::<Completion>();
    let mut el = EventLoop {
        state,
        epoll,
        reply_tx: ReplyTx { tx, wake },
        conns: HashMap::new(),
        wheel: TimerWheel::new(WHEEL_GRANULARITY_MS, WHEEL_SLOTS),
        next_token: TOK_FIRST_CONN,
        inflight_dispatches: 0,
        fired: Vec::new(),
    };
    let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
    let mut listening = true;
    loop {
        if el.state.draining() {
            if listening {
                el.epoll.del(listener.as_raw_fd());
                listening = false;
            }
            if el.conns.is_empty() && el.inflight_dispatches == 0 {
                break;
            }
        }
        let now = el.state.now_ms();
        let timeout = match el.wheel.next_timeout_ms(now) {
            Some(ms) => i32::try_from(ms.min(3_600_000)).unwrap_or(3_600_000),
            // Nothing armed: sleep until an event. While draining, tick
            // periodically as cheap insurance against a missed wakeup.
            None if el.state.draining() => 100,
            None => -1,
        };
        let n = el.epoll.wait(&mut events, timeout)?;
        if n > 0 {
            lock(&el.state.metrics).counter_add("serve_epoll_wakeups_total", 1);
        }
        for ev in &events[..n] {
            let token = ev.data;
            let mask = ev.events;
            match token {
                TOK_LISTENER => {
                    if listening {
                        el.accept_ready(listener);
                    }
                }
                TOK_WAKE => el.reply_tx.wake.drain(),
                _ => el.on_conn_event(token, mask),
            }
        }
        while let Ok(done) = rx.try_recv() {
            el.on_completion(done);
        }
        el.on_timers();
    }
    Ok(())
}

impl EventLoop<'_> {
    /// Accepts until the backlog is dry. Transient accept failures
    /// (aborted handshakes, fd pressure) lose at most that connection.
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("powerchop-serve: accept error: {e}");
                    return;
                }
            }
        }
    }

    /// Admits one accepted socket through the max-connections gate and
    /// into the interest set, or sheds it with one typed 503 line.
    fn admit(&mut self, stream: TcpStream) {
        if self.state.draining() {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let admitted =
            self.state.connections.fetch_add(1, Ordering::SeqCst) < self.state.max_connections;
        if !admitted {
            self.state.connections.fetch_sub(1, Ordering::SeqCst);
            self.state.count("serve_conn_rejected_total");
            let mut stream = stream;
            let e = ReqError::overloaded(self.state.max_connections);
            // Even a shed connection gets a trace id: the 503 line is
            // the only artifact the client has to report. Best effort —
            // the freshly-accepted socket's send buffer is empty, so
            // one line fits without blocking.
            let _ = writeln!(stream, "{}", error_reply(&e, self.state.next_trace()));
            return;
        }
        let fd = stream.as_raw_fd();
        let token = self.next_token;
        self.next_token += 1;
        if self.epoll.add(fd, EPOLLIN, token).is_err() {
            self.state.connections.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.state.count("serve_connections_total");
        let mut conn = Conn::new(stream, fd);
        self.arm_read(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// One readiness report for a connection: flush first (freeing
    /// outbox space), then read, then run the state machine.
    fn on_conn_event(&mut self, token: u64, mask: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut fate = Fate::Keep;
        if mask & EPOLLERR != 0 {
            fate = Fate::Close;
        }
        if fate == Fate::Keep && mask & EPOLLOUT != 0 {
            fate = self.try_flush(token, &mut conn);
        }
        if fate == Fate::Keep && mask & (EPOLLIN | EPOLLHUP) != 0 {
            fate = self.fill_inbuf(&mut conn);
        }
        self.finish(token, conn, fate);
    }

    /// Reads everything currently available. `WouldBlock` here means
    /// exactly "no more data yet" — never a timeout; timeouts are the
    /// wheel's verdict alone.
    fn fill_inbuf(&mut self, conn: &mut Conn) -> Fate {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            // Bounded: once a full oversized line could be framed, stop
            // reading and let the framer reject it.
            if conn.inbuf.len() > self.state.max_request_bytes + READ_CHUNK {
                return Fate::Keep;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    return Fate::Keep;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    // Progress refreshes the read deadline in place; the
                    // wheel entry re-arms itself lazily on expiry.
                    if conn.read_deadline.is_some() && self.state.read_timeout_ms > 0 {
                        conn.read_deadline = Some(
                            self.state
                                .now_ms()
                                .saturating_add(self.state.read_timeout_ms),
                        );
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Fate::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // A reset only loses that client's connection; the
                    // daemon itself never goes down with it.
                    eprintln!("powerchop-serve: connection error: {e}");
                    return Fate::Close;
                }
            }
        }
    }

    /// Runs the state machine after any event: frame and process lines,
    /// flush output, then close or re-register interest.
    fn finish(&mut self, token: u64, mut conn: Conn, fate: Fate) {
        let fate = if fate == Fate::Close {
            Fate::Close
        } else {
            self.drain_lines(token, &mut conn);
            self.try_flush(token, &mut conn)
        };
        if fate == Fate::Close || (conn.eof && conn.idle()) {
            self.close_conn(conn);
            return;
        }
        self.sync_interest(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// Frames complete lines out of `inbuf` and processes each, until
    /// input is exhausted or the connection leaves the reading phase.
    fn drain_lines(&mut self, token: u64, conn: &mut Conn) {
        loop {
            if conn.close_after_flush || matches!(conn.phase, ConnPhase::InFlight) {
                return;
            }
            if matches!(conn.phase, ConnPhase::Http { .. }) {
                if !self.drain_http_line(conn) {
                    return;
                }
                continue;
            }
            match conn.inbuf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    let line: Vec<u8> = conn.inbuf.drain(..=i).collect();
                    let content = &line[..line.len() - 1];
                    if content.len() > self.state.max_request_bytes {
                        self.reject_oversize(conn);
                    } else {
                        self.process_request_line(token, conn, content);
                    }
                }
                None => {
                    if conn.inbuf.len() > self.state.max_request_bytes {
                        self.reject_oversize(conn);
                        continue;
                    }
                    // The peer finished sending with an unterminated
                    // final line: process it as the last request.
                    if conn.eof && !conn.inbuf.is_empty() {
                        let line = std::mem::take(&mut conn.inbuf);
                        self.process_request_line(token, conn, &line);
                        continue;
                    }
                    return;
                }
            }
        }
    }

    /// Consumes one buffered HTTP header line; on the blank terminator
    /// (or the header bounds) enqueues the response and flags the
    /// close. Returns whether the drain loop should keep going.
    fn drain_http_line(&mut self, conn: &mut Conn) -> bool {
        let newline = conn.inbuf.iter().position(|&b| b == b'\n');
        let ConnPhase::Http { lines, .. } = &mut conn.phase else {
            return false;
        };
        let done = match newline {
            Some(i) => {
                let blank = i == 0 || (i == 1 && conn.inbuf[0] == b'\r');
                conn.inbuf.drain(..=i);
                *lines += 1;
                blank || *lines >= HTTP_HEADER_LINES_MAX
            }
            // A header line past the bound is consumed as one line,
            // mirroring the old bounded reader.
            None if conn.inbuf.len() >= HTTP_HEADER_LINE_MAX => {
                conn.inbuf.clear();
                *lines += 1;
                *lines >= HTTP_HEADER_LINES_MAX
            }
            // Peer finished sending without a blank line: answer what
            // we have.
            None if conn.eof => true,
            None => return false,
        };
        if !done {
            return true;
        }
        let phase = std::mem::replace(&mut conn.phase, ConnPhase::Reading);
        let ConnPhase::Http { path, .. } = phase else {
            return false;
        };
        let response = http_response(self.state, &path);
        conn.inbuf.clear();
        conn.read_deadline = None;
        conn.close_after_flush = true;
        self.enqueue_bytes(conn, response.as_bytes(), None);
        false
    }

    /// One framed request line: count it, classify it (HTTP vs JSON),
    /// mint the request context, and dispatch.
    fn process_request_line(&mut self, token: u64, conn: &mut Conn, content: &[u8]) {
        self.state.count("serve_requests_total");
        // An HTTP GET on the JSON port serves /metrics, so curl and
        // Prometheus scrapers work without speaking the protocol.
        // HTTP requests are not protocol requests: no trace, no record.
        if content.starts_with(b"GET ") {
            self.state.count("serve_http_requests_total");
            let path = content
                .split(|&c| c == b' ')
                .nth(1)
                .and_then(|p| std::str::from_utf8(p).ok())
                .unwrap_or("")
                .to_owned();
            conn.phase = ConnPhase::Http { path, lines: 0 };
            return;
        }
        // The request exists from here on: mint its trace id, start
        // its span ledger, and claim the in-flight gauge. Every exit
        // settles all three when its reply flushes (or the conn dies).
        let mut ctx = RequestCtx::new(self.state.next_trace());
        self.state.inflight_requests.fetch_add(1, Ordering::SeqCst);
        ctx.ledger
            .record(Phase::Accept, ns_since(conn.accept_started));
        conn.accept_started = Instant::now();
        let parse_started = Instant::now();
        let Ok(text) = std::str::from_utf8(content) else {
            ctx.ledger.record(Phase::Parse, ns_since(parse_started));
            self.state.count("serve_errors_total");
            let e = ReqError::bad_request("request line is not valid UTF-8");
            ctx.status = e.code;
            let reply = error_reply(&e, ctx.trace);
            self.enqueue_line(conn, &reply, Some(ctx));
            return; // the line boundary was still found; resync is safe
        };
        let line = text.trim();
        ctx.ledger.record(Phase::Parse, ns_since(parse_started));
        if line.is_empty() {
            self.state.count("serve_errors_total");
            let e = ReqError::bad_request("empty request line");
            ctx.status = e.code;
            let reply = error_reply(&e, ctx.trace);
            self.enqueue_line(conn, &reply, Some(ctx));
            return;
        }
        match dispatch_line(self.state, line, &mut ctx, token, &self.reply_tx) {
            Dispatch::Reply(reply) => {
                self.enqueue_line(conn, &reply, Some(ctx));
                return;
            }
            // The run's worker settles its own copy of the context.
            Dispatch::Run => {}
            Dispatch::Sweep(specs) => {
                spawn_sweep_driver(self.state, specs, ctx, token, self.reply_tx.clone());
            }
        }
        conn.phase = ConnPhase::InFlight;
        conn.read_deadline = None;
        self.inflight_dispatches += 1;
    }

    /// A request line (or line fragment) over the size limit: one typed
    /// 400, then close — with no newline inside the limit there is no
    /// way to find the next request boundary.
    fn reject_oversize(&mut self, conn: &mut Conn) {
        self.state.count("serve_requests_total");
        let mut ctx = RequestCtx::new(self.state.next_trace());
        self.state.inflight_requests.fetch_add(1, Ordering::SeqCst);
        ctx.ledger
            .record(Phase::Accept, ns_since(conn.accept_started));
        conn.accept_started = Instant::now();
        self.state.count("serve_errors_total");
        let e = ReqError::bad_request(format!(
            "request line exceeds {} bytes",
            self.state.max_request_bytes
        ));
        ctx.status = e.code;
        let reply = error_reply(&e, ctx.trace);
        conn.inbuf.clear();
        conn.read_deadline = None;
        conn.close_after_flush = true;
        self.enqueue_line(conn, &reply, Some(ctx));
    }

    /// Appends one newline-terminated reply to the outbox.
    fn enqueue_line(&mut self, conn: &mut Conn, reply: &str, ctx: Option<RequestCtx>) {
        let mut bytes = Vec::with_capacity(reply.len() + 1);
        bytes.extend_from_slice(reply.as_bytes());
        bytes.push(b'\n');
        self.enqueue_bytes(conn, &bytes, ctx);
    }

    /// Appends raw bytes to the outbox, enforcing the backpressure cap.
    /// A reply into an empty outbox always fits (the memory bound is
    /// `max(cap, one reply)`); growing an already-backlogged outbox
    /// past the cap trips the slow-consumer policy instead: the reply
    /// is replaced by a short typed 408 and the connection closes once
    /// the backlog drains. Queued lines are never truncated.
    fn enqueue_bytes(&mut self, conn: &mut Conn, bytes: &[u8], ctx: Option<RequestCtx>) {
        let pending = conn.out_pending();
        if pending > 0 && pending + bytes.len() > self.state.max_outbox_bytes {
            self.state.count("serve_backpressure_disconnects_total");
            conn.read_deadline = None;
            conn.close_after_flush = true;
            if let Some(mut ctx) = ctx {
                ctx.status = 408;
                let err = error_reply(
                    &ReqError::backpressure(self.state.max_outbox_bytes),
                    ctx.trace,
                );
                conn.outbox.extend_from_slice(err.as_bytes());
                conn.outbox.push(b'\n');
                conn.total_enqueued += (err.len() + 1) as u64;
                conn.settling.push_back(SettleMark {
                    flush_at: conn.total_enqueued,
                    ctx,
                    respond_started: Instant::now(),
                });
            }
            self.report_outbox(conn);
            return;
        }
        conn.outbox.extend_from_slice(bytes);
        conn.total_enqueued += bytes.len() as u64;
        if let Some(ctx) = ctx {
            conn.settling.push_back(SettleMark {
                flush_at: conn.total_enqueued,
                ctx,
                respond_started: Instant::now(),
            });
        }
        self.report_outbox(conn);
    }

    /// Writes as much of the outbox as the socket accepts. Partial
    /// writes keep their cursor — a reply line is never truncated and
    /// two replies can never interleave, because all output flows
    /// through this single per-connection buffer in enqueue order.
    fn try_flush(&mut self, token: u64, conn: &mut Conn) -> Fate {
        while conn.out_sent < conn.outbox.len() {
            match conn.stream.write(&conn.outbox[conn.out_sent..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.out_sent += n;
                    conn.total_flushed += n as u64;
                    // Flush progress refreshes the write deadline.
                    if conn.write_deadline.is_some() && self.state.write_timeout_ms > 0 {
                        conn.write_deadline = Some(
                            self.state
                                .now_ms()
                                .saturating_add(self.state.write_timeout_ms),
                        );
                    }
                    self.pop_settled(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The kernel buffer is full: hand the rest to
                    // EPOLLOUT and arm the write-stall deadline.
                    self.arm_write(token, conn);
                    self.report_outbox(conn);
                    return Fate::Keep;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        conn.outbox.clear();
        conn.out_sent = 0;
        conn.write_deadline = None;
        self.pop_settled(conn);
        self.report_outbox(conn);
        if conn.close_after_flush {
            return Fate::Close;
        }
        Fate::Keep
    }

    /// Settles every request whose reply has fully flushed: records the
    /// respond span and folds the request into histograms + access log.
    fn pop_settled(&mut self, conn: &mut Conn) {
        while conn
            .settling
            .front()
            .is_some_and(|m| m.flush_at <= conn.total_flushed)
        {
            if let Some(mut mark) = conn.settling.pop_front() {
                mark.ctx
                    .ledger
                    .record(Phase::Respond, ns_since(mark.respond_started));
                self.state.observe_request(&mark.ctx);
            }
        }
    }

    /// Arms (or re-arms) the read deadline for the next request line.
    fn arm_read(&mut self, token: u64, conn: &mut Conn) {
        let ms = self.state.read_timeout_ms;
        if ms == 0 {
            conn.read_deadline = None;
            return;
        }
        let now = self.state.now_ms();
        conn.read_deadline = Some(now.saturating_add(ms));
        if !conn.read_entry_live {
            conn.read_entry_live = true;
            self.wheel.insert(
                now,
                ms,
                Timer {
                    token,
                    kind: TimerKind::Read,
                },
            );
        }
    }

    /// Arms the write-stall deadline while output is pending.
    fn arm_write(&mut self, token: u64, conn: &mut Conn) {
        let ms = self.state.write_timeout_ms;
        if ms == 0 {
            conn.write_deadline = None;
            return;
        }
        let now = self.state.now_ms();
        if conn.write_deadline.is_none() {
            conn.write_deadline = Some(now.saturating_add(ms));
        }
        if !conn.write_entry_live {
            conn.write_entry_live = true;
            self.wheel.insert(
                now,
                ms,
                Timer {
                    token,
                    kind: TimerKind::Write,
                },
            );
        }
    }

    /// Expires due wheel entries. Refreshed deadlines re-arm for the
    /// remainder; disarmed ones are no-ops; genuinely expired ones are
    /// the *only* source of timeout verdicts in the daemon.
    fn on_timers(&mut self) {
        let now = self.state.now_ms();
        let mut fired = std::mem::take(&mut self.fired);
        self.wheel.expire(now, &mut fired);
        for timer in fired.drain(..) {
            let Some(mut conn) = self.conns.remove(&timer.token) else {
                continue;
            };
            let fate = match timer.kind {
                TimerKind::Read => {
                    conn.read_entry_live = false;
                    match conn.read_deadline {
                        None => Fate::Keep,
                        Some(d) if now < d => {
                            // Bytes arrived since arming: re-arm for
                            // the refreshed remainder.
                            conn.read_entry_live = true;
                            self.wheel.insert(now, d - now, timer);
                            Fate::Keep
                        }
                        Some(_) => {
                            // The slow-loris case: no complete request
                            // line within the deadline. One typed 408
                            // (best effort), then close.
                            self.state.count("serve_slow_client_disconnects_total");
                            let err = ReqError::slow_client(self.state.read_timeout_ms);
                            let reply = error_reply(&err, self.state.next_trace());
                            conn.read_deadline = None;
                            conn.close_after_flush = true;
                            self.enqueue_line(&mut conn, &reply, None);
                            self.try_flush(timer.token, &mut conn)
                        }
                    }
                }
                TimerKind::Write => {
                    conn.write_entry_live = false;
                    match conn.write_deadline {
                        None => Fate::Keep,
                        Some(d) if now < d => {
                            conn.write_entry_live = true;
                            self.wheel.insert(now, d - now, timer);
                            Fate::Keep
                        }
                        Some(_) => {
                            if conn.out_pending() > 0 {
                                // No flush progress within the write
                                // deadline: the client cannot absorb
                                // its reply. Shed it.
                                self.state.count("serve_slow_client_disconnects_total");
                                Fate::Close
                            } else {
                                conn.write_deadline = None;
                                Fate::Keep
                            }
                        }
                    }
                }
            };
            self.finish(timer.token, conn, fate);
        }
        self.fired = fired;
    }

    /// A dispatch finished: hand its reply to the connection (or settle
    /// the request anyway if the client vanished mid-run — the work
    /// still landed in the cache and journal).
    fn on_completion(&mut self, done: Completion) {
        self.inflight_dispatches -= 1;
        let Some(mut conn) = self.conns.remove(&done.token) else {
            self.state.observe_request(&done.ctx);
            return;
        };
        conn.phase = ConnPhase::Reading;
        conn.accept_started = Instant::now();
        self.arm_read(done.token, &mut conn);
        self.enqueue_line(&mut conn, &done.reply, Some(done.ctx));
        self.finish(done.token, conn, Fate::Keep);
    }

    /// Registers the interest mask the connection's state implies:
    /// input only while framing, output only while the outbox has
    /// unflushed bytes.
    fn sync_interest(&mut self, token: u64, conn: &mut Conn) {
        let mut want = 0u32;
        let reading = !matches!(conn.phase, ConnPhase::InFlight)
            && !conn.close_after_flush
            && !conn.eof
            && conn.inbuf.len() <= self.state.max_request_bytes + READ_CHUNK;
        if reading {
            want |= EPOLLIN;
        }
        if conn.out_pending() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest && self.epoll.modify(conn.fd, want, token).is_ok() {
            conn.interest = want;
        }
    }

    /// Tears a connection down: settles every still-queued request,
    /// returns its gauge contribution, and releases the gate slot.
    fn close_conn(&mut self, mut conn: Conn) {
        while let Some(mut mark) = conn.settling.pop_front() {
            mark.ctx
                .ledger
                .record(Phase::Respond, ns_since(mark.respond_started));
            self.state.observe_request(&mark.ctx);
        }
        if conn.gauge_reported > 0 {
            self.state
                .outbox_bytes
                .fetch_sub(conn.gauge_reported, Ordering::SeqCst);
            conn.gauge_reported = 0;
        }
        self.epoll.del(conn.fd);
        self.state.connections.fetch_sub(1, Ordering::SeqCst);
        // Dropping the stream closes the fd (and with it any stale
        // epoll registration).
    }

    /// Diff-updates this connection's share of `serve_outbox_bytes`.
    fn report_outbox(&self, conn: &mut Conn) {
        let pending = conn.out_pending() as u64;
        if pending > conn.gauge_reported {
            self.state
                .outbox_bytes
                .fetch_add(pending - conn.gauge_reported, Ordering::SeqCst);
        } else {
            self.state
                .outbox_bytes
                .fetch_sub(conn.gauge_reported - pending, Ordering::SeqCst);
        }
        conn.gauge_reported = pending;
    }
}

/// Routes one request line to its handler, recording the parse span
/// and classifying the request for the access log as it goes. Quick
/// ops answer inline; runs and sweeps dispatch off-loop and complete
/// through `reply_tx` under the connection's `token`.
fn dispatch_line(
    state: &Arc<State>,
    line: &str,
    ctx: &mut RequestCtx,
    token: u64,
    reply_tx: &ReplyTx,
) -> Dispatch {
    let parse_started = Instant::now();
    let parsed = parse_request(line, &state.limits);
    ctx.ledger.record(Phase::Parse, ns_since(parse_started));
    match parsed {
        Err(e) => Dispatch::Reply(refuse(state, &e, ctx)),
        Ok(Request::Status) => {
            ctx.op = "status";
            Dispatch::Reply(status_reply(state, ctx.trace))
        }
        Ok(Request::Health) => {
            ctx.op = "health";
            Dispatch::Reply(health_reply(state, ctx.trace))
        }
        Ok(Request::Metrics) => {
            ctx.op = "metrics";
            Dispatch::Reply(metrics_reply(state, ctx.trace))
        }
        Ok(Request::Shutdown) => {
            ctx.op = "shutdown";
            Dispatch::Reply(shutdown_reply(state, ctx.trace))
        }
        Ok(Request::Run(spec)) => {
            ctx.op = "run";
            ctx.bench = Some(spec.bench.clone());
            match start_run(state, &spec, ctx, token, reply_tx) {
                Ok(RunStart::Cached(report)) => {
                    ctx.cached = true;
                    Dispatch::Reply(run_reply(ctx.trace, true, &report))
                }
                Ok(RunStart::Dispatched) => Dispatch::Run,
                Err(e) => Dispatch::Reply(refuse(state, &e, ctx)),
            }
        }
        Ok(Request::Sweep(specs)) => {
            ctx.op = "sweep";
            Dispatch::Sweep(specs)
        }
    }
}

/// Counts a refusal under the right metric and renders the error reply
/// (the trace id rides along so even a 408/429/503 is attributable).
fn refuse(state: &Arc<State>, e: &ReqError, ctx: &mut RequestCtx) -> String {
    ctx.status = e.code;
    state.count(match e.code {
        429 => "serve_busy_total",
        408 => "serve_deadline_expired_total",
        _ => "serve_errors_total",
    });
    error_reply(e, ctx.trace)
}

/// How the front half of a `run` dispatch ended.
enum RunStart {
    /// Served bit-identically from the cache; no pool involved.
    Cached(String),
    /// Accepted onto the pool; its worker settles it.
    Dispatched,
}

/// The `run` op, on the loop thread: draining check, cache lookup,
/// breaker admission, intent journaling, bounded submission. Refusals
/// (429/503) are immediate. An accepted run settles itself on its
/// worker right after the simulation ends — cache put, intent retire,
/// reply render — and completes through `reply_tx`.
fn start_run(
    state: &Arc<State>,
    spec: &RunSpec,
    ctx: &mut RequestCtx,
    token: u64,
    reply_tx: &ReplyTx,
) -> Result<RunStart, ReqError> {
    if state.draining() {
        return Err(ReqError::draining());
    }
    let (program, cfg, key) = prepare(spec)?;
    let cache_started = Instant::now();
    let hit = state.cache.get(key);
    ctx.ledger.record(Phase::Cache, ns_since(cache_started));
    if let Some(hit) = hit {
        state.count("serve_cache_hits_total");
        return Ok(RunStart::Cached(hit));
    }
    state.breaker_admit()?;
    state.count("serve_cache_misses_total");
    let deadline_ms = spec.deadline_ms;
    // Journal the accepted intent before dispatch. Chaos runs are never
    // journaled: a deliberately-killed worker is a drill, not work the
    // daemon owes anyone after a restart. The intent carries the trace
    // id, so a crash-recovery resume stays attributable to the request
    // that created the obligation.
    let journal_started = Instant::now();
    let plan = match &state.durable {
        Some(d) if !spec.chaos_panic => {
            let id = d.next_intent_id();
            d.journal_intent(id, ctx.trace, std::slice::from_ref(spec));
            Some(SpillPlan {
                durability: Arc::clone(d),
                id,
                spec: spec.clone(),
                resume_from: None,
                recovery: false,
            })
        }
        _ => None,
    };
    ctx.ledger.record(Phase::Journal, ns_since(journal_started));
    let intent = plan.as_ref().map(|p| p.id);
    let job = RunJob {
        prepared: Arc::new((program, cfg)),
        kind: spec.manager,
        deadline_ms,
        charge_queue: true,
        chaos_panic: spec.chaos_panic,
        plan,
        traced: state.traced(),
    };
    let settle_on_worker = {
        let state = Arc::clone(state);
        let reply_tx = reply_tx.clone();
        let mut ctx = ctx.clone();
        let bench = spec.bench.clone();
        move |result| {
            let outcome = settle(&state, key, deadline_ms, result, Some(&mut ctx));
            // Retire the intent however the run ended: the client gets
            // its reply (success or typed error), so the daemon owes
            // nothing after this.
            retire_intent(&state, intent, [bench.as_str()], &mut ctx);
            let reply = match outcome {
                Ok(json) => run_reply(ctx.trace, false, &json),
                Err(e) => refuse(&state, &e, &mut ctx),
            };
            reply_tx.complete(token, ctx, reply);
        }
    };
    match state.pool.submit_then(run_job(job), settle_on_worker) {
        Ok(()) => Ok(RunStart::Dispatched),
        Err(e) => {
            // Shed before dispatch: retire the intent now — the client
            // gets its typed refusal and the daemon owes nothing.
            retire_intent(state, intent, [spec.bench.as_str()], ctx);
            Err(submit_error(e))
        }
    }
}

/// Journals `Done` for a settled intent and deletes its benches' spills,
/// charging the journal span to the request.
fn retire_intent<'b>(
    state: &State,
    intent: Option<u64>,
    benches: impl IntoIterator<Item = &'b str>,
    ctx: &mut RequestCtx,
) {
    let journal_started = Instant::now();
    if let (Some(d), Some(id)) = (&state.durable, intent) {
        d.journal_done(id);
        d.remove_spills(id, benches);
        ctx.ledger.record(Phase::Journal, ns_since(journal_started));
    }
}

/// Drives a whole sweep from its own thread (the sweep path blocks on
/// seeded-jitter Busy retries and roster-order settlement, neither of
/// which may run on the event loop).
fn spawn_sweep_driver(
    state: &Arc<State>,
    specs: Vec<RunSpec>,
    mut ctx: RequestCtx,
    token: u64,
    reply_tx: ReplyTx,
) {
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        let reply = sweep(&state, specs, &mut ctx);
        reply_tx.complete(token, ctx, reply);
    });
}

/// How one dispatched run can fail.
enum RunFail {
    /// The deadline passed before the run finished.
    Deadline,
    /// The simulator returned a typed error.
    Sim(String),
}

impl From<SimError> for RunFail {
    fn from(e: SimError) -> Self {
        RunFail::Sim(e.to_string())
    }
}

/// A completed run plus its span attribution: how long it sat in the
/// queue, how long it computed, and how many flight-recorder events
/// its tracer captured (zero when untraced).
struct RunDone {
    report: RunReport,
    queue_ns: u64,
    compute_ns: u64,
    trace_events: u64,
}

/// Drives one simulation with [`Simulation::drive`] until it finishes
/// or `deadline` passes.
///
/// The optional [`SpillPlan`] adds the durability hooks: it restores
/// the simulation from its spill checkpoint (resume path) and spills a
/// fresh snapshot every `spill_every` retired instructions, journaling
/// each spill *after* its file is durably in place — the journal never
/// promises a checkpoint that is not on disk.
/// With `traced` set an enabled [`Tracer`] is attached to the run via
/// [`Simulation::attach_tracer`], so the flight recorder captures the
/// run's phase spans; tracing never changes simulated state, so traced
/// and untraced runs produce bit-identical reports.
fn run_until(
    program: &Program,
    kind: ManagerKind,
    cfg: &RunConfig,
    deadline: Instant,
    plan: Option<&SpillPlan>,
    traced: bool,
) -> Result<(RunReport, u64), RunFail> {
    let mut sim = restore_or_new(program, kind, cfg, plan)?;
    if traced {
        sim.attach_tracer(Tracer::enabled(TelemetryConfig {
            ring_capacity: 256,
            sample_every_cycles: 0,
        }));
    }
    let spill_every = plan.map_or(u64::MAX, |p| p.durability.spill_every);
    let spill = |sim: &mut Simulation<'_>| -> Result<(), RunFail> {
        if let Some(plan) = plan {
            spill_now(sim, plan);
        }
        Ok(())
    };
    if sim.drive(deadline, spill_every, spill)? == Driven::DeadlinePassed {
        return Err(RunFail::Deadline);
    }
    let (report, tracer) = sim.into_report_with_telemetry();
    let events = tracer
        .recorder()
        .map(|r| r.events().len() as u64)
        .unwrap_or(0);
    Ok((report, events))
}

/// Builds the simulation for a planned run: from its spill checkpoint
/// when resuming (tracking the recovered-vs-redone instruction ledger),
/// fresh otherwise. A lost or unreadable spill degrades to a fresh run
/// — with the re-done instructions honestly counted — never a panic.
fn restore_or_new<'p>(
    program: &'p Program,
    kind: ManagerKind,
    cfg: &RunConfig,
    plan: Option<&SpillPlan>,
) -> Result<Simulation<'p>, RunFail> {
    if let Some(plan) = plan {
        if plan.recovery {
            let promised = plan.resume_from.unwrap_or(0);
            let restored = std::fs::read(plan.path())
                .ok()
                .and_then(|bytes| Simulation::restore(program, kind, cfg, &bytes).ok());
            let ledger = &plan.durability.recovery;
            return match restored {
                Some(sim) => {
                    ledger
                        .resumed_instructions
                        .fetch_add(sim.retired(), Ordering::SeqCst);
                    ledger
                        .redone_instructions
                        .fetch_add(promised.saturating_sub(sim.retired()), Ordering::SeqCst);
                    Ok(sim)
                }
                None => {
                    ledger
                        .redone_instructions
                        .fetch_add(promised, Ordering::SeqCst);
                    Ok(Simulation::new(program, kind, cfg)?)
                }
            };
        }
    }
    Ok(Simulation::new(program, kind, cfg)?)
}

/// Spills one checkpoint: atomic file write first, journal marker
/// second. A failed write skips the marker — better to re-do a chunk on
/// the next boot than to journal a checkpoint that does not exist.
fn spill_now(sim: &mut Simulation<'_>, plan: &SpillPlan) {
    let bytes = sim.snapshot(&plan.meta());
    match powerchop_durable::write_atomic(&plan.path(), &bytes) {
        Ok(()) => plan
            .durability
            .journal_spill(plan.id, &plan.spec.bench, sim.retired()),
        Err(e) => eprintln!("powerchop-serve: checkpoint spill failed: {e}"),
    }
}

/// The program + configuration a validated spec describes, and the
/// cache key that identifies the pair.
fn prepare(spec: &RunSpec) -> Result<(Program, RunConfig, u128), ReqError> {
    // The spec was validated at parse time; a vanished benchmark here
    // would be a roster bug, reported as 500 rather than a panic.
    let b = powerchop_workloads::by_name(&spec.bench)
        .ok_or_else(|| ReqError::internal(format!("benchmark {:?} vanished", spec.bench)))?;
    let mut cfg = RunConfig::for_kind(b.core_kind());
    cfg.max_instructions = spec.budget;
    cfg.faults = fault_config(spec.seed, spec.storm);
    let program = b.program(Scale(spec.scale));
    let key = run_key(
        program.fingerprint(),
        config_fingerprint(spec.manager, &cfg),
    );
    Ok((program, cfg, key))
}

/// Folds a finished run's outcome into the cache and counters. The
/// returned report string is exactly what the cache will replay for the
/// next identical request.
fn settle(
    state: &Arc<State>,
    key: u128,
    deadline_ms: u64,
    result: Result<Result<RunDone, RunFail>, JobPanic>,
    mut ctx: Option<&mut RequestCtx>,
) -> Result<String, ReqError> {
    match result {
        Err(panic) => {
            state.count("serve_panics_total");
            state.breaker_observe(false);
            Err(ReqError::internal(format!(
                "run panicked: {}",
                panic.message
            )))
        }
        // A deadline expiry is the *client's* budget running out, not
        // evidence the run path is sick; it does not feed the breaker.
        Ok(Err(RunFail::Deadline)) => Err(ReqError::deadline(deadline_ms)),
        Ok(Err(RunFail::Sim(message))) => {
            state.breaker_observe(false);
            Err(ReqError::internal(message))
        }
        Ok(Ok(done)) => {
            state.breaker_observe(true);
            // Attribute the worker-side spans back to the request: time
            // queued, time computing (plus the simulated cycles behind
            // it), and whatever the attached tracer captured.
            if let Some(ctx) = ctx.as_deref_mut() {
                ctx.ledger.record(Phase::Queue, done.queue_ns);
                ctx.ledger.record(Phase::Compute, done.compute_ns);
                ctx.ledger.record_cycles(Phase::Compute, done.report.cycles);
                ctx.compute_cycles = ctx.compute_cycles.saturating_add(done.report.cycles);
                ctx.trace_events = ctx.trace_events.saturating_add(done.trace_events);
            }
            let report = done.report;
            // Fold this run's JIT activity into the daemon-wide counters.
            // Deliberately *not* part of the reply JSON: replies stay
            // byte-identical whether the JIT ran or not.
            if let Some(jit) = &report.jit {
                let mut m = lock(&state.metrics);
                m.counter_add("jit_translations_compiled", jit.stats.translations_compiled);
                m.counter_add("jit_exec_hits", jit.stats.exec_hits);
                m.counter_add("jit_fallbacks", jit.stats.fallbacks);
                m.counter_add("jit_code_bytes", jit.stats.code_bytes);
            }
            let json = report_to_json(&report);
            let cache_started = Instant::now();
            let cacheable = state.cache.put(key, json.clone());
            // Write-through persistence: the reply a restarted daemon
            // replays is byte-for-byte the reply cached here.
            if cacheable {
                if let Some(d) = &state.durable {
                    d.record_cache_put(key, &json);
                }
            }
            if let Some(ctx) = ctx {
                ctx.ledger.record(Phase::Cache, ns_since(cache_started));
            }
            state.count("serve_runs_total");
            Ok(json)
        }
    }
}

/// Maps a pool refusal onto its typed reply.
fn submit_error(e: SubmitError) -> ReqError {
    match e {
        SubmitError::Busy { queue_depth } => ReqError::busy(queue_depth),
        SubmitError::Closed => ReqError::draining(),
        SubmitError::Unavailable => ReqError::unavailable(),
    }
}

/// One run's pool job, cheap to clone so a Busy retry can rebuild it.
#[derive(Clone)]
struct RunJob {
    prepared: Arc<(Program, RunConfig)>,
    kind: ManagerKind,
    deadline_ms: u64,
    /// Whether the deadline runs from admission, charging queue wait
    /// (live requests), or from pickup (boot-time resume).
    charge_queue: bool,
    /// Step one chunk, then kill the worker with the [`KillWorker`]
    /// sentinel — the supervision path, on demand.
    chaos_panic: bool,
    plan: Option<SpillPlan>,
    traced: bool,
}

/// Builds the pool job for one run — every `run`, sweep row and resume
/// goes through here. The job's deadline is an absolute instant, so a
/// live request's time waiting for a worker can never buy extra compute
/// time.
fn run_job(job: RunJob) -> impl FnOnce() -> Result<RunDone, RunFail> + Send + 'static {
    let admitted = Instant::now();
    move || {
        // The wait between submission and this closure running *is*
        // the queue span.
        let queue_ns = ns_since(admitted);
        let (program, cfg) = &*job.prepared;
        if job.chaos_panic {
            if let Ok(mut sim) = Simulation::new(program, job.kind, cfg) {
                let _ = sim.step_chunk(STEP_CHUNK);
            }
            std::panic::panic_any(KillWorker);
        }
        let compute_started = Instant::now();
        let clock = if job.charge_queue {
            admitted
        } else {
            compute_started
        };
        let deadline = clock + Duration::from_millis(job.deadline_ms);
        run_until(
            program,
            job.kind,
            cfg,
            deadline,
            job.plan.as_ref(),
            job.traced,
        )
        .map(|(report, trace_events)| RunDone {
            report,
            queue_ns,
            compute_ns: ns_since(compute_started),
            trace_events,
        })
    }
}

/// Submits a sweep row or a resume, riding through `Busy` with seeded-
/// jitter backoff: it is owed work and must not shed itself, but a burst
/// of them must not hammer the queue in lockstep either. The jitter is
/// reproducible for a given request seed and de-synchronized across
/// benchmarks. With `yield_to_drain` set, a drain observed before an
/// attempt abandons the submission as [`SubmitError::Closed`].
fn submit_patiently(
    state: &State,
    spec: &RunSpec,
    job: &RunJob,
    yield_to_drain: bool,
) -> Result<JobHandle<Result<RunDone, RunFail>>, SubmitError> {
    let policy = RetryPolicy::new(1, 50);
    let retry_seed = spec.seed.unwrap_or(crate::protocol::DEFAULT_FAULT_SEED);
    let stream = powerchop_resilience::retry::stream_label(&spec.bench);
    let mut attempt = 0u32;
    loop {
        if yield_to_drain && state.draining() {
            return Err(SubmitError::Closed);
        }
        match state.pool.submit(run_job(job.clone())) {
            Err(SubmitError::Busy { .. }) => {
                attempt = attempt.saturating_add(1);
                state.count("serve_retries_total");
                std::thread::sleep(Duration::from_millis(
                    policy.delay_ms(retry_seed, stream, attempt),
                ));
            }
            submitted => return submitted,
        }
    }
}

/// The `sweep` op: submit every benchmark up front (filling workers and
/// queue), then await them in roster order. The sweep's own submissions
/// ride through Busy ([`submit_patiently`]) — it is one logical request
/// — while concurrent `run` requests observe the full queue and get
/// 429s: exactly the backpressure story.
fn sweep(state: &Arc<State>, specs: Vec<RunSpec>, ctx: &mut RequestCtx) -> String {
    if state.draining() {
        return refuse(state, &ReqError::draining(), ctx);
    }
    enum Pending {
        Cached(String),
        Dispatched(u128, JobHandle<Result<RunDone, RunFail>>),
        Refused(ReqError),
    }
    // One intent covers the whole sweep: it is one logical request, and
    // a restart resumes exactly the rows that were still owed (cached
    // rows are hits again, spilled rows restart from their checkpoint).
    // The sweep's single trace id rides in the intent.
    let journal_started = Instant::now();
    let intent = state.durable.as_ref().map(|d| {
        let id = d.next_intent_id();
        d.journal_intent(id, ctx.trace, &specs);
        id
    });
    ctx.ledger.record(Phase::Journal, ns_since(journal_started));
    let traced = state.traced();
    let mut pending = Vec::with_capacity(specs.len());
    for spec in &specs {
        let outcome = match prepare(spec) {
            Err(e) => Pending::Refused(e),
            Ok((program, cfg, key)) => {
                let cache_started = Instant::now();
                let hit = state.cache.get(key);
                ctx.ledger.record(Phase::Cache, ns_since(cache_started));
                if let Some(hit) = hit {
                    state.count("serve_cache_hits_total");
                    Pending::Cached(hit)
                } else {
                    state.count("serve_cache_misses_total");
                    let job = RunJob {
                        prepared: Arc::new((program, cfg)),
                        kind: spec.manager,
                        deadline_ms: spec.deadline_ms,
                        charge_queue: true,
                        chaos_panic: false,
                        plan: intent.zip(state.durable.as_ref()).map(|(id, d)| SpillPlan {
                            durability: Arc::clone(d),
                            id,
                            spec: spec.clone(),
                            resume_from: None,
                            recovery: false,
                        }),
                        traced,
                    };
                    match submit_patiently(state, spec, &job, false) {
                        Ok(handle) => Pending::Dispatched(key, handle),
                        Err(e) => Pending::Refused(submit_error(e)),
                    }
                }
            }
        };
        pending.push(outcome);
    }
    let rows: Vec<(String, SweepOutcome)> = specs
        .into_iter()
        .zip(pending)
        .map(|(spec, p)| {
            let outcome = match p {
                Pending::Cached(report) => SweepOutcome::Done {
                    cached: true,
                    report,
                },
                Pending::Refused(e) => {
                    state.count("serve_errors_total");
                    SweepOutcome::Failed(e)
                }
                Pending::Dispatched(key, handle) => {
                    match settle(state, key, spec.deadline_ms, handle.wait(), Some(&mut *ctx)) {
                        Ok(report) => SweepOutcome::Done {
                            cached: false,
                            report,
                        },
                        Err(e) => {
                            state.count(match e.code {
                                408 => "serve_deadline_expired_total",
                                _ => "serve_errors_total",
                            });
                            SweepOutcome::Failed(e)
                        }
                    }
                }
            };
            (spec.bench, outcome)
        })
        .collect();
    // Every row has settled and the reply is about to reach the client:
    // retire the intent and garbage-collect its spills.
    retire_intent(
        state,
        intent,
        rows.iter().map(|(bench, _)| bench.as_str()),
        ctx,
    );
    sweep_reply(ctx.trace, &rows)
}

/// Boot-time resume driver: re-dispatches every journaled intent that
/// never got its `Done` record. Cached rows (reloaded from the cache
/// log) are skipped outright; the rest restore from their spill
/// checkpoints and run to completion, landing in the cache so the
/// original requester's retry is a bit-identical hit. Observing a drain
/// abandons the remaining intents — still journaled, they simply wait
/// for the next boot.
fn resume_pending(state: &Arc<State>, pending: Vec<powerchop_durable::PendingIntent>) {
    let Some(d) = state.durable.clone() else {
        return;
    };
    'intents: for intent in pending {
        if state.draining() {
            break;
        }
        let specs: Vec<RunSpec> = intent
            .specs
            .iter()
            .filter_map(|rec| durability::record_to_spec(rec, state.limits.deadline_ms))
            .collect();
        let ledger = &d.recovery;
        let mut resumed_rows = 0u64;
        for spec in &specs {
            if state.draining() {
                break 'intents;
            }
            let resume_from = intent.spilled.get(&spec.bench).copied();
            match resume_one(state, &d, intent.id, spec, resume_from) {
                ResumeOutcome::Cached => {}
                ResumeOutcome::Resumed => resumed_rows += 1,
                ResumeOutcome::Abandoned => break 'intents,
            }
        }
        ledger
            .runs_resumed
            .fetch_add(resumed_rows, Ordering::SeqCst);
        if resumed_rows > 0 && specs.len() > 1 {
            ledger.sweeps_resumed.fetch_add(1, Ordering::SeqCst);
        }
        d.journal_done(intent.id);
        d.remove_spills(intent.id, specs.iter().map(|s| s.bench.as_str()));
        // Crash recovery is attributable: the resumed intent still
        // carries the trace id of the request that created it, and the
        // access log records the resume under that same id.
        if state.access.is_some() {
            let mut w = JsonWriter::object();
            w.field_u64("ts_ms", state.now_ms());
            w.field_str("trace_id", &format_trace_id(intent.trace));
            w.field_str("op", "resume");
            w.field_u64("status", 200);
            w.field_u64("runs_resumed", resumed_rows);
            state.log_access(&w.finish());
        }
    }
    d.recovery.active.store(false, Ordering::SeqCst);
}

/// How one resumed run ended, as far as the resume driver cares.
enum ResumeOutcome {
    /// The reply was already in the (reloaded) cache — nothing owed.
    Cached,
    /// The run was re-dispatched (from its spill when one existed) and
    /// settled into the cache.
    Resumed,
    /// The daemon is draining or the pool is gone; stop resuming.
    Abandoned,
}

/// Resumes one run of a pending intent. Rides through `Busy` like a
/// sweep row — recovery is owed work and must not shed itself — but
/// yields to live traffic by checking the drain flag between attempts.
/// Its deadline clock starts when a worker picks the job up.
fn resume_one(
    state: &Arc<State>,
    d: &Arc<Durability>,
    id: u64,
    spec: &RunSpec,
    resume_from: Option<u64>,
) -> ResumeOutcome {
    let Ok((program, cfg, key)) = prepare(spec) else {
        // The benchmark roster changed under the journal; there is
        // nothing runnable to owe.
        return ResumeOutcome::Cached;
    };
    if state.cache.get(key).is_some() {
        return ResumeOutcome::Cached;
    }
    let deadline_ms = state.limits.deadline_ms;
    let job = RunJob {
        prepared: Arc::new((program, cfg)),
        kind: spec.manager,
        deadline_ms,
        charge_queue: false,
        chaos_panic: false,
        plan: Some(SpillPlan {
            durability: Arc::clone(d),
            id,
            spec: spec.clone(),
            resume_from,
            recovery: true,
        }),
        traced: false,
    };
    let Ok(handle) = submit_patiently(state, spec, &job, true) else {
        return ResumeOutcome::Abandoned;
    };
    // A failed resume (sim error, deadline under the server cap) is
    // logged by settle's counters; the intent still retires — the run
    // was re-attempted, which is all the journal promises.
    let _ = settle(state, key, deadline_ms, handle.wait(), None);
    ResumeOutcome::Resumed
}

fn status_reply(state: &Arc<State>, trace: u64) -> String {
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("op", "status");
    w.field_str("trace_id", &format_trace_id(trace));
    w.field_bool("draining", state.draining());
    w.field_u64("uptime_ms", state.now_ms());
    w.field_u64("workers", state.pool.workers() as u64);
    w.field_u64("queue_depth", state.pool.queue_depth() as u64);
    w.field_u64("queued", state.pool.queued() as u64);
    w.field_u64("inflight", state.pool.inflight() as u64);
    w.field_u64(
        "inflight_requests",
        state.inflight_requests.load(Ordering::SeqCst) as u64,
    );
    w.field_u64("cache_entries", state.cache.len() as u64);
    w.field_u64("cache_capacity", state.cache.capacity() as u64);
    w.finish()
}

/// The `health` op: liveness/readiness in one line. `healthy` is the
/// single bit an orchestrator needs — the daemon is accepting work and
/// nothing has latched a degraded mode; the rest explains why not.
fn health_reply(state: &Arc<State>, trace: u64) -> String {
    let breaker_state = lock(&state.breaker).state(state.now_ms());
    let breaker_trips = lock(&state.breaker).trips();
    let gave_up = state.pool.gave_up();
    let healthy =
        !state.draining() && !gave_up && breaker_state != powerchop_resilience::BreakerState::Open;
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("op", "health");
    w.field_str("trace_id", &format_trace_id(trace));
    w.field_bool("healthy", healthy);
    w.field_bool("draining", state.draining());
    w.field_str("breaker", breaker_state.label());
    w.field_u64("breaker_trips", breaker_trips);
    w.field_u64("workers", state.pool.workers() as u64);
    w.field_u64("workers_alive", state.pool.alive() as u64);
    w.field_u64("worker_respawns", state.pool.respawns());
    w.field_bool("pool_gave_up", gave_up);
    w.field_u64("queued", state.pool.queued() as u64);
    w.field_u64("inflight", state.pool.inflight() as u64);
    w.field_u64(
        "connections",
        state.connections.load(Ordering::SeqCst) as u64,
    );
    w.field_u64("max_connections", state.max_connections as u64);
    // Recovery block: stable shape whether or not durability is on, so
    // orchestrators can always distinguish a clean boot (`clean_boot`
    // true, all counters zero) from a recovered one.
    w.field_bool("durable", state.durable.is_some());
    match &state.durable {
        Some(d) => {
            let r = &d.recovery;
            w.field_bool("clean_boot", r.clean_boot);
            w.field_bool("recovery_active", r.active.load(Ordering::SeqCst));
            w.field_u64("journal_replayed", r.journal_replayed);
            w.field_u64("torn_tails_discarded", r.torn_discards);
            w.field_u64("pending_intents", r.pending_intents);
            w.field_u64("sweeps_resumed", r.sweeps_resumed.load(Ordering::SeqCst));
            w.field_u64("runs_resumed", r.runs_resumed.load(Ordering::SeqCst));
            w.field_u64(
                "resumed_instructions",
                r.resumed_instructions.load(Ordering::SeqCst),
            );
            w.field_u64(
                "redone_instructions",
                r.redone_instructions.load(Ordering::SeqCst),
            );
            w.field_u64("cache_reloaded", r.cache_reloaded);
        }
        None => {
            w.field_bool("clean_boot", true);
            w.field_bool("recovery_active", false);
            w.field_u64("journal_replayed", 0);
            w.field_u64("torn_tails_discarded", 0);
            w.field_u64("pending_intents", 0);
            w.field_u64("sweeps_resumed", 0);
            w.field_u64("runs_resumed", 0);
            w.field_u64("resumed_instructions", 0);
            w.field_u64("redone_instructions", 0);
            w.field_u64("cache_reloaded", 0);
        }
    }
    w.finish()
}

fn metrics_reply(state: &Arc<State>, trace: u64) -> String {
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("op", "metrics");
    w.field_str("trace_id", &format_trace_id(trace));
    w.field_str("text", &state.prometheus_text());
    w.finish()
}

fn shutdown_reply(state: &Arc<State>, trace: u64) -> String {
    // Setting the flag is enough: the shutdown line arrived through the
    // event loop, which re-checks the drain state every iteration — no
    // self-connection wakeup needed anymore.
    state.draining.store(true, Ordering::SeqCst);
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("op", "shutdown");
    w.field_str("trace_id", &format_trace_id(trace));
    w.field_bool("draining", true);
    w.finish()
}

/// Renders one full HTTP response (status line through body). Only
/// `GET /metrics` exists; anything else is a 404. `Connection: close`
/// is honored by the caller flagging the connection to close after the
/// response flushes.
fn http_response(state: &Arc<State>, path: &str) -> String {
    let (status, content_type, body) = if path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.prometheus_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "only GET /metrics is served here\n".to_owned(),
        )
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:7077");
        assert!(cfg.queue_depth >= 1);
        assert!(cfg.cache_entries >= 1);
        assert!(cfg.max_budget >= 1_000_000);
        assert!(cfg.max_outbox_bytes >= 1 << 16);
    }

    #[test]
    fn bind_resolves_port_zero() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::bind(&cfg).expect("bind succeeds");
        assert_ne!(server.local_addr().port(), 0);
    }

    #[test]
    fn deadline_zero_expires_immediately_and_runs_complete_otherwise() {
        let b = powerchop_workloads::by_name("hmmer").expect("hmmer exists");
        let mut cfg = RunConfig::for_kind(b.core_kind());
        cfg.max_instructions = 50_000;
        let program = b.program(Scale(0.05));
        let now = Instant::now();
        match run_until(&program, ManagerKind::PowerChop, &cfg, now, None, false) {
            Err(RunFail::Deadline) => {}
            _ => panic!("zero deadline must trip before any work"),
        }
        let later = now + Duration::from_secs(60);
        let report = run_until(&program, ManagerKind::PowerChop, &cfg, later, None, false);
        assert!(matches!(report, Ok((r, _)) if r.instructions > 0));
    }

    #[test]
    fn traced_runs_are_bit_identical_to_untraced_runs() {
        let b = powerchop_workloads::by_name("hmmer").expect("hmmer exists");
        let mut cfg = RunConfig::for_kind(b.core_kind());
        cfg.max_instructions = 50_000;
        let program = b.program(Scale(0.05));
        let later = Instant::now() + Duration::from_secs(60);
        let plain = run_until(&program, ManagerKind::PowerChop, &cfg, later, None, false)
            .map(|(r, _)| report_to_json(&r))
            .ok();
        let traced = run_until(&program, ManagerKind::PowerChop, &cfg, later, None, true)
            .map(|(r, _)| report_to_json(&r))
            .ok();
        assert!(plain.is_some(), "untraced run completes");
        assert_eq!(
            plain, traced,
            "the attached tracer must not perturb the run"
        );
    }

    #[test]
    fn op_duration_metric_covers_every_dispatchable_op() {
        for op in ["run", "sweep", "status", "health", "metrics", "shutdown"] {
            let key = op_duration_metric(op);
            assert!(key.contains(&format!("op=\"{op}\"")), "{key} labels {op}");
        }
        assert!(op_duration_metric("nonsense").contains("malformed"));
    }
}
