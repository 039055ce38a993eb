//! The `serve_mixed` workload: the release `powerchop-cli serve` daemon
//! driven by a closed loop of one connection per CPU from this process.
//! Most requests repeat a small hot set and are answered from the result
//! cache by the event loop; the rest carry a budget no request used
//! before, so they miss the cache and run on the exec pool.
//!
//! Every program halts well inside the budgets used, so a miss returns
//! the same report as a hit on the same program: every reply, hit or
//! miss, is byte-compared with `report_to_json(run_program(..))`
//! computed in-process before the clock starts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use powerchop::{run_program, ManagerKind, RunConfig};
use powerchop_bt::JitMode;
use powerchop_serve::json::Json;
use powerchop_serve::{report_to_json, strip_trace_id};
use powerchop_workloads::Scale;

use crate::hostspeed::{slowdown, Meter};
use crate::replica::{calibrate, trace_program, Pass};
use crate::stats::{binned_median, median, metric, tail, tail_at, Rng, Tail, Tally};
use crate::{peak_rss_mb, Outcome, ServeLayers, SimLayers};

/// Workload scale of every request (≈25 ms of simulation per miss).
pub const SCALE: f64 = 0.1;
/// Budget of the hot-set requests. Misses use larger, never-repeated
/// budgets; no program reaches either, which [`expected_replies`]
/// checks.
const HOT_BUDGET: u64 = 4_000_000;
/// Distinct programs in the hot set.
const HOT_SET: usize = 8;
/// Request `k` of each client is a miss when `k % MISS_EVERY` is
/// `MISS_EVERY - 1`, so every stretch of the loop carries the same 10%
/// of misses.
const MISS_EVERY: u64 = 10;
/// Extra daemon start-ups timed before the loop, and again after it;
/// `setup_s` is the median of these and the measured daemon's own.
const SETUP_SPAWNS: usize = 20;
/// Misses replayed in-process by the traced run for the simulator's
/// layer numbers.
const REPLAY_MISSES: usize = 8;
/// Length of the windows the loop is cut into; every end-to-end number
/// is the median of its per-window values.
const WINDOW_S: f64 = 5.0;
/// How far the loop's rates and its tail latency, which the misses
/// set, move in log terms per unit the host-speed meter's moves; and
/// how far the hits' latency moves. Over forty 5-second windows of one
/// loop on the 2-CPU x86-64 development host the slopes were 1.4 and
/// 1.0 (correlation 0.56 and 0.72). Misses are simulator work, whose
/// CPU time moves twice as far as the meter's in the eval workloads;
/// the loop shares the CPUs between the daemon, its clients and the
/// meter, so the meter tracks it less closely.
const MISS_ELASTICITY: f64 = 1.5;
const HIT_ELASTICITY: f64 = 1.0;
/// The same for a daemon's start-up time: the slope over 320 start-ups,
/// each just after a meter round, was 0.9 (correlation 0.41), and the
/// medians of eight runs of 40 start-ups rose and fell with the meter's.
const SPAWN_ELASTICITY: f64 = 1.0;
/// Seconds between samples of the host-speed meter during the loop.
const METER_EVERY_S: f64 = 0.5;
/// Longest wait for any single reply before it counts as a timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The expected report of every program, with its retired count.
struct Expected {
    report: String,
    instructions: u64,
}

fn run_config(bench: &powerchop_workloads::Benchmark, budget: u64) -> RunConfig {
    let mut cfg = RunConfig::for_kind(bench.core_kind());
    cfg.max_instructions = budget;
    cfg.jit = JitMode::Auto;
    cfg
}

/// Computes the expected report of every program in-process.
fn expected_replies() -> Result<BTreeMap<&'static str, Expected>, String> {
    let mut out = BTreeMap::new();
    for b in powerchop_workloads::all() {
        let r = run_program(
            &b.program(Scale(SCALE)),
            ManagerKind::PowerChop,
            &run_config(b, HOT_BUDGET),
        )
        .map_err(|e| format!("{}: {e}", b.name()))?;
        if r.instructions >= HOT_BUDGET {
            return Err(format!(
                "{} did not halt within {HOT_BUDGET} instructions, so a miss's \
                 budget would change its report",
                b.name()
            ));
        }
        out.insert(
            b.name(),
            Expected {
                report: report_to_json(&r),
                instructions: r.instructions,
            },
        );
    }
    Ok(out)
}

fn run_line(bench: &str, budget: u64) -> String {
    format!("{{\"op\":\"run\",\"bench\":\"{bench}\",\"budget\":{budget},\"scale\":{SCALE}}}\n")
}

fn expected_reply(cached: bool, report: &str) -> String {
    format!("{{\"ok\":true,\"op\":\"run\",\"cached\":{cached},\"report\":{report}}}")
}

/// Classifies a reply to a run of `bench`: `Some(true)` for a correct
/// cache hit, `Some(false)` for a correct computed reply, `None` for
/// anything else.
fn classify(reply: &str, report: &str) -> Option<bool> {
    let stripped = strip_trace_id(reply.trim_end());
    [true, false]
        .into_iter()
        .find(|&cached| stripped == expected_reply(cached, report))
}

/// A running daemon.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `cli serve` on an ephemeral port and waits for its
    /// `listening on` line.
    fn spawn(
        cli: &Path,
        seed: u64,
        jobs: usize,
        access_log: Option<&Path>,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(cli);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--jobs", &jobs.to_string(), "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            // The daemon runs with its default JIT mode, as the expected
            // replies and the traced replays do.
            .env_remove("POWERCHOP_JIT");
        if let Some(log) = access_log {
            cmd.arg("--access-log").arg(log);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit_once("listening on ")
            .and_then(|(_, a)| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Sends one request line on a fresh connection and returns the
    /// reply line.
    fn request(&self, line: &str) -> Result<String, String> {
        let mut s = self.connect()?;
        s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(s)
            .read_line(&mut reply)
            .map_err(|e| format!("reply to {}: {e}", line.trim()))?;
        Ok(reply)
    }

    /// The daemon's Prometheus counters, from `GET /metrics`.
    fn counters(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut s = self.connect()?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        s.read_to_string(&mut text).map_err(|e| e.to_string())?;
        let body = text
            .split_once("\r\n\r\n")
            .ok_or("metrics reply has no body")?
            .1;
        Ok(body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// Drains the daemon gracefully and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request("{\"op\":\"shutdown\"}\n");
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return reply.map(drop),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a daemon and times it until its first `health` reply.
fn start_timed(
    cli: &Path,
    seed: u64,
    jobs: usize,
    access_log: Option<&Path>,
) -> Result<(f64, Daemon), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(cli, seed, jobs, access_log)?;
    let health = daemon.request("{\"op\":\"health\"}\n")?;
    let elapsed = t0.elapsed().as_secs_f64();
    if !health.contains("\"ok\":true") {
        return Err(format!("health reply: {health}"));
    }
    Ok((elapsed, daemon))
}

/// A meter round (see [`meter_round`]) on a thread of its own, so that
/// the caller stays unpinned.
fn meter_round_apart(meter: &mut Meter) -> Result<f64, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| meter_round(meter, &crate::hostspeed::allowed_cpus()?))
            .join()
            .map_err(|_| "the meter thread panicked".to_owned())?
    })
}

/// Starts a daemon just after a meter round and returns its start-up
/// time (see [`start_timed`]) scaled to the reference host.
fn start_scaled(
    cli: &Path,
    seed: u64,
    jobs: usize,
    meter: &mut Meter,
) -> Result<(f64, Daemon), String> {
    let meter_s = meter_round_apart(meter)?;
    let (t, daemon) = start_timed(cli, seed, jobs, None)?;
    Ok((t / slowdown(meter_s, SPAWN_ELASTICITY), daemon))
}

/// Times `n` daemon start-ups, scaled, shutting each daemon down again.
fn time_starts(
    n: usize,
    cli: &Path,
    seed: u64,
    jobs: usize,
    meter: &mut Meter,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (t, daemon) = start_scaled(cli, seed, jobs, meter)?;
            daemon.shutdown()?;
            Ok(t)
        })
        .collect()
}

/// One completed request.
struct Sample {
    hit: bool,
    ms: f64,
    instructions: u64,
    /// Completion time, in seconds since the loop started.
    at_s: f64,
}

/// What the closed loop measured.
struct LoopResult {
    samples: Vec<Sample>,
    tally: Tally,
    seconds: f64,
    /// Host-speed meter samples: (seconds since the loop started, the
    /// meter's CPU time).
    meter: Vec<(f64, f64)>,
}

/// What every client of one loop shares.
struct Mix<'a> {
    daemon: &'a Daemon,
    clients: u64,
    seed: u64,
    hot: &'a [&'static str],
    expected: &'a BTreeMap<&'static str, Expected>,
    start: Instant,
    deadline: Instant,
}

/// Client `idx`: a connection sending its next request as soon as the
/// previous reply arrives, until the deadline. Hits cycle through the hot
/// set and misses through the whole roster, each in an order seeded per
/// client.
fn client(mix: &Mix<'_>, idx: u64) -> (Vec<Sample>, Tally) {
    let Mix {
        daemon,
        clients,
        seed,
        hot,
        expected,
        start,
        deadline,
    } = *mix;
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 100 + idx);
    let mut hot_order = hot.to_vec();
    rng.shuffle(&mut hot_order);
    let mut miss_order: Vec<&str> = expected.keys().copied().collect();
    rng.shuffle(&mut miss_order);
    let conn = daemon.connect().and_then(|s| {
        let reader = s.try_clone().map_err(|e| e.to_string())?;
        Ok((s, BufReader::new(reader)))
    });
    let Ok((mut writer, mut reader)) = conn else {
        tally.record(false);
        return (samples, tally);
    };
    let (mut sent, mut hits_sent, mut misses_sent) = (0u64, 0usize, 0usize);
    let mut reply = String::new();
    while Instant::now() < deadline {
        sent += 1;
        let (bench, budget) = if sent % MISS_EVERY == 0 {
            let bench = miss_order[misses_sent % miss_order.len()];
            misses_sent += 1;
            // Unique per client and miss, so never in the cache.
            (bench, HOT_BUDGET + 1 + idx + clients * misses_sent as u64)
        } else {
            hits_sent += 1;
            (hot_order[hits_sent % hot_order.len()], HOT_BUDGET)
        };
        let line = run_line(bench, budget);
        reply.clear();
        let t0 = Instant::now();
        let io = writer
            .write_all(line.as_bytes())
            .and_then(|()| reader.read_line(&mut reply));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = io {
            eprintln!("perfbench: client {idx}: {e}");
            tally.record(false);
            break;
        }
        let want = &expected[bench];
        let class = classify(&reply, &want.report);
        // A unique budget must be computed; a hot request may be either.
        let ok = match class {
            Some(true) => budget == HOT_BUDGET,
            Some(false) => true,
            None => false,
        };
        if !ok && tally.failed < 3 {
            eprintln!(
                "perfbench: unexpected reply to {}: {}",
                line.trim(),
                reply.trim()
            );
        }
        tally.record(ok);
        if let (true, Some(hit)) = (ok, class) {
            samples.push(Sample {
                hit,
                ms,
                instructions: if hit { 0 } else { want.instructions },
                at_s: start.elapsed().as_secs_f64(),
            });
        }
    }
    (samples, tally)
}

/// One round of the host-speed meter: a sample on each CPU the process
/// may use, in turn, since the daemon runs on all of them. Returns the
/// samples' geometric mean, in seconds. Pins the calling thread.
fn meter_round(meter: &mut Meter, cpus: &[usize]) -> Result<f64, String> {
    let mut log_sum = 0.0;
    for &cpu in cpus {
        crate::hostspeed::pin_to(cpu)?;
        log_sum += meter.sample()?.ln();
    }
    Ok((log_sum / cpus.len() as f64).exp())
}

/// Runs a meter round every [`METER_EVERY_S`] until the deadline; each
/// costs about 5 ms of each CPU.
fn meter_loop(start: Instant, deadline: Instant) -> Vec<(f64, f64)> {
    let mut meter = Meter::new();
    let mut out = Vec::new();
    let cpus = match crate::hostspeed::allowed_cpus() {
        Ok(cpus) => cpus,
        Err(e) => {
            eprintln!("perfbench: host-speed meter: {e}");
            return out;
        }
    };
    while Instant::now() < deadline {
        let at_s = start.elapsed().as_secs_f64();
        match meter_round(&mut meter, &cpus) {
            Ok(s) => out.push((at_s, s)),
            Err(e) => {
                eprintln!("perfbench: host-speed meter: {e}");
                break;
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_secs_f64(METER_EVERY_S)));
    }
    out
}

/// Sends each hot request once, so the loop finds them cached, then runs
/// one client per connection for `seconds`, with the host-speed meter
/// sampled on a thread of its own.
fn closed_loop(
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    clients: usize,
    hot: &[&'static str],
    expected: &BTreeMap<&'static str, Expected>,
) -> LoopResult {
    let mut tally = Tally::default();
    for bench in hot {
        let ok = daemon
            .request(&run_line(bench, HOT_BUDGET))
            .is_ok_and(|r| classify(&r, &expected[bench].report).is_some());
        tally.record(ok);
    }
    let start = Instant::now();
    let n = clients as u64;
    let mix = Mix {
        daemon,
        clients: n,
        seed,
        hot,
        expected,
        start,
        deadline: start + Duration::from_secs_f64(seconds),
    };
    let (results, meter) = std::thread::scope(|scope| {
        let meter = scope.spawn(|| meter_loop(mix.start, mix.deadline));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let mix = &mix;
                scope.spawn(move || client(mix, i))
            })
            .collect();
        let results: Vec<(Vec<Sample>, Tally)> = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (
            results,
            meter.join().expect("the meter thread does not panic"),
        )
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (s, t) in results {
        samples.extend(s);
        tally.merge(t);
    }
    LoopResult {
        samples,
        tally,
        seconds,
        meter,
    }
}

fn hot_set(seed: u64) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = powerchop_workloads::all()
        .iter()
        .map(|b| b.name())
        .collect();
    Rng::new(seed, 2).shuffle(&mut names);
    names.truncate(HOT_SET);
    names
}

fn latencies(samples: &[Sample], hit: Option<bool>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| hit.is_none_or(|h| s.hit == h))
        .map(|s| s.ms)
        .collect()
}

/// The loop's end-to-end numbers: each is the median, over the loop's
/// full windows of [`WINDOW_S`] seconds, of that window's value scaled
/// to the reference host by the window's host slowdown (see
/// [`crate::hostspeed`]): rates are multiplied by it, latencies divided.
/// Other tenants of a shared host slow the loop in bursts; the median
/// over windows leaves out bursts that cover fewer than half of them.
struct Windowed {
    rps: f64,
    sim_mips: f64,
    p50_ms: f64,
    /// The tail percentile, from the smallest window; its value is the
    /// median over windows, its counts those of the median window.
    tail: Tail,
    windows: usize,
    /// The median of the windows' meter time over its nominal time.
    slowdown: f64,
}

fn windowed(lr: &LoopResult) -> Result<Windowed, String> {
    let n = (lr.seconds / WINDOW_S).floor() as usize;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut instructions = vec![0u64; n];
    for s in &lr.samples {
        let w = (s.at_s / WINDOW_S) as usize;
        if w < n {
            windows[w].push(s.ms);
            instructions[w] += s.instructions;
        }
    }
    // The tail percentile is the highest that every window supports.
    let smallest = windows
        .iter()
        .min_by_key(|w| w.len())
        .ok_or("loop shorter than one window")?;
    let pct = tail(smallest)
        .ok_or("too few requests per window for a tail latency")?
        .pct;
    let per_window = |f: &dyn Fn(usize) -> f64| median(&(0..n).map(f).collect::<Vec<_>>());
    // Each window's host slowdown, from the median meter sample taken
    // in it, or from all samples when it has none.
    let overall = median(&lr.meter.iter().map(|m| m.1).collect::<Vec<_>>());
    let meter_s: Vec<Option<f64>> = (0..n)
        .map(|w| {
            let inside: Vec<f64> = lr
                .meter
                .iter()
                .filter(|m| (m.0 / WINDOW_S) as usize == w)
                .map(|m| m.1)
                .collect();
            median(&inside).or(overall)
        })
        .collect();
    let factor = |elasticity: f64| -> Vec<f64> {
        meter_s
            .iter()
            .map(|m| m.map_or(1.0, |m| slowdown(m, elasticity)))
            .collect()
    };
    let (miss_factor, hit_factor) = (factor(MISS_ELASTICITY), factor(HIT_ELASTICITY));
    let mut tails: Vec<Tail> = windows
        .iter()
        .zip(&miss_factor)
        .filter_map(|(w, f)| {
            tail_at(w, pct).map(|t| Tail {
                value: t.value / f,
                ..t
            })
        })
        .collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    let tail_value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    Ok(Windowed {
        rps: per_window(&|w| windows[w].len() as f64 / WINDOW_S * miss_factor[w]).unwrap_or(0.0),
        sim_mips: per_window(&|w| instructions[w] as f64 / WINDOW_S / 1e6 * miss_factor[w])
            .unwrap_or(0.0),
        p50_ms: per_window(&|w| median(&windows[w]).unwrap_or(0.0) / hit_factor[w]).unwrap_or(0.0),
        tail: Tail {
            value: tail_value.unwrap_or(0.0),
            ..tails[tails.len() / 2]
        },
        windows: n,
        slowdown: median(&factor(1.0)).unwrap_or(1.0),
    })
}

/// Files and knobs a serve run needs from its caller.
pub struct ServeEnv<'a> {
    /// The `powerchop-cli` binary.
    pub cli: &'a Path,
    /// A directory the run may write to.
    pub scratch: &'a Path,
    /// Client connections and daemon workers (the host's CPU count).
    pub clients: usize,
}

/// The untraced run.
///
/// # Errors
///
/// Fails when the daemon cannot be started or an expected report
/// cannot be computed.
pub fn run(env: &ServeEnv<'_>, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let expected = expected_replies()?;
    let hot = hot_set(seed);
    let mut meter = Meter::new();
    let mut starts = time_starts(SETUP_SPAWNS, env.cli, seed, env.clients, &mut meter)?;
    let (start_s, daemon) = start_scaled(env.cli, seed, env.clients, &mut meter)?;
    starts.push(start_s);
    let lr = closed_loop(&daemon, seed, seconds, env.clients, &hot, &expected);
    let rss = peak_rss_mb(&daemon.child.id().to_string());
    let mut tally = lr.tally;
    tally.record(daemon.shutdown().is_ok());
    starts.extend(time_starts(
        SETUP_SPAWNS,
        env.cli,
        seed,
        env.clients,
        &mut meter,
    )?);
    let setup_s = median(&starts).unwrap_or(0.0);

    let w = windowed(&lr)?;
    let hits = lr.samples.iter().filter(|s| s.hit).count();
    let mut out = Outcome::new(tally);
    out.note("clients", env.clients.to_string());
    out.note("loop", "closed".to_owned());
    out.note("requests", lr.samples.len().to_string());
    out.note("hits", hits.to_string());
    out.note("misses", (lr.samples.len() - hits).to_string());
    out.note("windows", w.windows.to_string());
    out.note("meter_samples", lr.meter.len().to_string());
    out.note("host_slowdown_p50", format!("{:.4}", w.slowdown));
    out.note("tail_percentile", w.tail.pct.to_string());
    out.note("tail_window_samples", w.tail.count.to_string());
    out.note("tail_samples_beyond", w.tail.beyond.to_string());
    out.metrics = vec![
        metric("setup_s", "s", setup_s),
        metric("sim_mips", "MIPS", w.sim_mips),
        metric("rps", "1/s", w.rps),
        metric("p50_ms", "ms", w.p50_ms),
        metric("tail_ms", "ms", w.tail.value),
        metric("peak_rss_mb", "MB", rss?),
    ];
    Ok(out)
}

/// Per-phase medians from the daemon's access log, over the loop's run
/// requests (the warm-up's first [`HOT_SET`] records are skipped). The
/// log truncates spans to whole microseconds, so the medians are
/// interpolated within their microsecond.
fn access_log_phases(path: &Path, serve: &mut ServeLayers) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut queue, mut compute, mut respond) = (Vec::new(), Vec::new(), Vec::new());
    let runs = text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|r| r.get("op").and_then(Json::as_str) == Some("run"))
        .skip(HOT_SET);
    for r in runs {
        let span = |k: &str| {
            r.get("spans")
                .and_then(|s| s.get(k))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("access-log record without spans.{k}"))
        };
        if r.get("cached").and_then(Json::as_bool) == Some(false) {
            queue.push(span("queue_us")?);
            compute.push(span("compute_us")?);
        }
        respond.push(span("respond_us")?);
    }
    serve.queue_wait_us_p50 = binned_median(&queue).unwrap_or(0.0);
    serve.compute_us_p50 = binned_median(&compute).unwrap_or(0.0);
    serve.respond_us_p50 = binned_median(&respond).unwrap_or(0.0);
    Ok(())
}

/// The daemon's layer numbers: the loop run for `seconds` with the
/// daemon's access log on and its counters scraped around it. Returns
/// them with the loop's tally and request count.
fn serve_layers(
    env: &ServeEnv<'_>,
    seed: u64,
    seconds: f64,
    expected: &BTreeMap<&'static str, Expected>,
) -> Result<(ServeLayers, Tally, usize), String> {
    let hot = hot_set(seed);
    let log: PathBuf = env
        .scratch
        .join(format!("access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (_, daemon) = start_timed(env.cli, seed, env.clients, Some(&log))?;
    let before = daemon.counters()?;
    let lr = closed_loop(&daemon, seed, seconds, env.clients, &hot, expected);
    let after = daemon.counters()?;
    let mut tally = lr.tally;
    tally.record(daemon.shutdown().is_ok());

    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let (hits, misses) = (
        delta("serve_cache_hits_total"),
        delta("serve_cache_misses_total"),
    );
    let mut serve = ServeLayers {
        cache_hit_ratio: crate::stats::ratio(hits, hits + misses),
        epoll_wakeups_per_req: crate::stats::ratio(
            delta("serve_epoll_wakeups_total"),
            lr.samples.len() as f64,
        ),
        hit_p50_ms: median(&latencies(&lr.samples, Some(true))).unwrap_or(0.0),
        miss_p50_ms: median(&latencies(&lr.samples, Some(false))).unwrap_or(0.0),
        ..ServeLayers::default()
    };
    let phases = access_log_phases(&log, &mut serve);
    let _ = std::fs::remove_file(&log);
    phases?;
    Ok((serve, tally, lr.samples.len()))
}

/// The serve layers on the `serve_mixed` traffic for `seconds`, for the
/// traced run of a workload that starts no daemon of its own, so that
/// every traced run reports every layer.
///
/// # Errors
///
/// As [`traced`].
pub fn probe_layers(
    env: &ServeEnv<'_>,
    seed: u64,
    seconds: f64,
) -> Result<(ServeLayers, Tally), String> {
    let expected = expected_replies()?;
    let (serve, tally, _) = serve_layers(env, seed, seconds, &expected)?;
    Ok((serve, tally))
}

/// The traced run: the loop with the daemon's access log on and its
/// counters scraped around it, then a seeded sample of misses replayed
/// in-process through the timed replica and the interpreter-only replay.
///
/// # Errors
///
/// As [`run`], plus an unreadable access log.
pub fn traced(env: &ServeEnv<'_>, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let expected = expected_replies()?;
    let (serve, mut tally, requests) = serve_layers(env, seed, seconds, &expected)?;

    // The simulator's layers, on programs drawn as the misses are.
    let calib_ns = calibrate();
    let mut sampler = Rng::new(seed, 1);
    let mut pick = Rng::new(seed, 3);
    let names: Vec<&'static str> = expected.keys().copied().collect();
    let mut pass = Pass::default();
    let mut clean = true;
    for _ in 0..REPLAY_MISSES {
        let name = names[pick.below(names.len())];
        let b = powerchop_workloads::by_name(name).expect("roster names resolve");
        let cfg = run_config(b, HOT_BUDGET);
        let t0 = Instant::now();
        let program = black_box(b.program(Scale(SCALE)));
        pass.probes.program_build.record(t0.elapsed());
        // The replica's own check against `run_program` is the test.
        let ok = match trace_program(
            &program,
            ManagerKind::PowerChop,
            &cfg,
            &mut sampler,
            &mut pass,
        ) {
            Ok(_) => true,
            Err(err) => {
                eprintln!("perfbench: {name}: {err}");
                false
            }
        };
        tally.record(ok);
        clean &= ok;
    }
    let mut layers = SimLayers {
        calib_ns,
        ..SimLayers::default()
    };
    if clean {
        layers.add_pass(&pass);
    }
    let mut out = Outcome::new(tally);
    out.note("clients", env.clients.to_string());
    out.note("requests", requests.to_string());
    out.note("replayed_misses", REPLAY_MISSES.to_string());
    out.note("calibration_ns", format!("{calib_ns:.1}"));
    out.metrics = layers.metrics(&serve);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_classify_by_their_cached_flag_and_exact_report_bytes() {
        let report = r#"{"program":"hmmer","instructions":5}"#;
        let hit = r#"{"ok":true,"op":"run","cached":true,"trace_id":"00ab","report":{"program":"hmmer","instructions":5}}"#;
        let miss = hit.replace("\"cached\":true", "\"cached\":false");
        assert_eq!(classify(&format!("{hit}\n"), report), Some(true));
        assert_eq!(classify(&miss, report), Some(false));
        assert_eq!(
            classify(&hit.replace('5', "6"), report),
            None,
            "wrong report"
        );
        assert_eq!(
            classify(r#"{"ok":false,"code":429,"error":"busy"}"#, report),
            None,
            "a refusal is a failure"
        );
    }

    #[test]
    fn each_metric_is_the_median_over_full_windows() {
        // Window 0: 1000 hits at 2 ms; window 1: 1000 hits at 1 ms and 20
        // misses; window 2: 1200 hits at 1.5 ms and 10 misses. The
        // partial fourth window is ignored.
        let sample = |at_s: f64, ms: f64, instructions: u64| Sample {
            hit: instructions == 0,
            ms,
            instructions,
            at_s,
        };
        let spread = |w: f64, n: u32, ms: f64, instructions: u64| {
            (0..n)
                .map(move |i| sample(w * WINDOW_S + f64::from(i) / f64::from(n), ms, instructions))
        };
        let samples: Vec<Sample> = spread(0.0, 1000, 2.0, 0)
            .chain(spread(1.0, 1000, 1.0, 0))
            .chain(spread(1.0, 20, 30.0, 3_000_000))
            .chain(spread(2.0, 1200, 1.5, 0))
            .chain(spread(2.0, 10, 40.0, 3_000_000))
            .chain(spread(3.0, 5, 0.5, 0))
            .collect();
        let lr = LoopResult {
            samples,
            tally: Tally::default(),
            seconds: 3.2 * WINDOW_S,
            meter: Vec::new(),
        };
        let w = windowed(&lr).expect("three full windows");
        assert_eq!(w.windows, 3);
        assert_eq!(w.rps, 1020.0 / WINDOW_S);
        assert_eq!(w.sim_mips, 30.0 / WINDOW_S);
        assert_eq!(w.p50_ms, 1.5);
        // The smallest window's 1000 samples support p99 (10 beyond). The
        // windows' p99s are 2, 30 and 1.5 ms; the median is window 0's.
        assert_eq!(w.tail.pct, 99.0);
        assert_eq!((w.tail.value, w.tail.count, w.tail.beyond), (2.0, 1000, 10));
    }

    #[test]
    fn window_values_are_scaled_by_the_window_host_slowdown() {
        // Three windows of 1000 hits; window 0 ran at 2 ms while the
        // meter read twice its nominal time, the others at 1 and 1.5 ms
        // at nominal speed. Window 2 has no meter sample of its own, so
        // it takes the median of all of them (nominal). Window 0's p50
        // is scaled down to 2 / 2 ms and its p99 to 2 / 2^1.5 ms.
        let nominal = crate::hostspeed::NOMINAL_S;
        let samples: Vec<Sample> = [2.0, 1.0, 1.5]
            .iter()
            .enumerate()
            .flat_map(|(w, &ms)| {
                (0..1000).map(move |i| Sample {
                    hit: true,
                    ms,
                    instructions: 0,
                    at_s: (w as f64 + f64::from(i) / 1000.0) * WINDOW_S,
                })
            })
            .collect();
        let lr = LoopResult {
            samples,
            tally: Tally::default(),
            seconds: 3.0 * WINDOW_S,
            meter: vec![(1.0, 2.0 * nominal), (6.0, nominal), (7.0, nominal)],
        };
        let w = windowed(&lr).expect("three full windows");
        assert_eq!(w.p50_ms, 1.0, "window 0 reads 2 ms / 2");
        assert_eq!(w.tail.value, 1.0);
        assert_eq!(w.rps, 1000.0 / WINDOW_S, "window 0's rate is scaled up");
        assert_eq!(w.slowdown, 1.0);
    }

    #[test]
    fn hot_sets_are_distinct_programs_fixed_by_the_seed() {
        let a = hot_set(5);
        assert_eq!(a, hot_set(5));
        assert_ne!(a, hot_set(6));
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), HOT_SET);
    }

    #[test]
    fn run_lines_carry_the_scale_the_expected_reports_use() {
        let line = run_line("hmmer", HOT_BUDGET);
        assert!(line.ends_with('\n'));
        let v = Json::parse(line.trim()).expect("valid JSON");
        assert_eq!(v.get("scale").and_then(Json::as_f64), Some(SCALE));
        assert_eq!(v.get("budget").and_then(Json::as_u64), Some(HOT_BUDGET));
    }
}
