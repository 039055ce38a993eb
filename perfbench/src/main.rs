//! `perfbench`: the repository's benchmark. One invocation runs one
//! workload for a fixed time and prints, as its last stdout line, a JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`), every one checked against the
//! names and units declared in `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload eval_chop --seed 1 --seconds 20 --trace 0 \
//!           --cli <powerchop-cli> --scratch <dir>
//! perfbench expect eval_chop    # print the expected-digest file
//! ```
//!
//! `perfbench/run.py` builds both binaries and supplies `--cli` and
//! `--scratch`; see `perfbench/README.md`.

mod eval;
mod hostspeed;
mod replica;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use powerchop_serve::json::Json;

use replica::Pass;
use stats::{metric, ratio, valid_name, Metric, Tally};

/// What one run measured, with the run context it reports beside it.
pub struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    fn new(tally: Tally) -> Self {
        Outcome {
            tally,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }
}

/// The simulator's layer numbers of a traced run, summed over its clean
/// passes.
#[derive(Debug, Default)]
pub struct SimLayers {
    /// Cost of one empty timed call, subtracted from every `*_ns`.
    pub calib_ns: f64,
    /// Passes whose replicas all matched.
    pub passes: u64,
    total: Pass,
}

impl SimLayers {
    /// Adds one clean pass.
    pub fn add_pass(&mut self, pass: &Pass) {
        self.total.merge(pass);
        self.passes += 1;
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    fn metrics(&self, serve: &ServeLayers) -> Vec<Metric> {
        let (p, c, k) = (&self.total.probes, &self.total.counts, self.calib_ns);
        let per_pass = |n: u64| ratio(n as f64, self.passes as f64);
        let frac = |a: u64, b: u64| ratio(a as f64, b as f64);
        let (untraced_ns, traced_ns) = (self.total.untraced_ns, self.total.traced_ns);
        let overhead = if untraced_ns == 0.0 {
            0.0
        } else {
            traced_ns / untraced_ns - 1.0
        };
        vec![
            metric("bt.step_ns", "ns", p.bt_step.mean_ns(k)),
            metric(
                "bt.ns_per_instr",
                "ns",
                ratio(p.bt_step.total_ns(k), c.retired as f64),
            ),
            metric("bt.dispatches", "count", per_pass(p.bt_step.calls)),
            metric(
                "bt.jit_native_share",
                "frac",
                frac(c.jit_native, c.translation_executions),
            ),
            metric("bt.translated_share", "frac", frac(c.translated, c.retired)),
            metric(
                "bt.translations_built",
                "count",
                per_pass(c.translations_built),
            ),
            metric("gisa.step_ns", "ns", p.gisa_step.mean_ns(k)),
            metric("uarch.on_step_ns", "ns", p.uarch_on_step.mean_ns(k)),
            metric(
                "uarch.mlc_hit_ratio",
                "frac",
                frac(c.mlc_hits, c.mlc_accesses),
            ),
            metric(
                "uarch.mispredict_ratio",
                "frac",
                frac(c.mispredicts, c.branches),
            ),
            metric(
                "powerchop.on_translation_ns",
                "ns",
                p.on_translation.mean_ns(k),
            ),
            metric(
                "powerchop.share",
                "frac",
                ratio(p.on_translation.total_ns(k), untraced_ns),
            ),
            metric(
                "powerchop.pvt_hit_ratio",
                "frac",
                frac(c.pvt_hits, c.pvt_lookups),
            ),
            metric("powerchop.switches", "count", per_pass(c.switches)),
            metric(
                "workloads.program_build_ms",
                "ms",
                p.program_build.mean_ns(k) / 1e6,
            ),
            metric("serve.cache_hit_ratio", "frac", serve.cache_hit_ratio),
            metric(
                "serve.epoll_wakeups_per_req",
                "count",
                serve.epoll_wakeups_per_req,
            ),
            metric("exec.queue_wait_us_p50", "us", serve.queue_wait_us_p50),
            metric("serve.compute_us_p50", "us", serve.compute_us_p50),
            metric("serve.respond_us_p50", "us", serve.respond_us_p50),
            metric("serve.hit_p50_ms", "ms", serve.hit_p50_ms),
            metric("serve.miss_p50_ms", "ms", serve.miss_p50_ms),
            metric("trace.overhead_frac", "frac", overhead),
        ]
    }
}

/// The daemon's layer numbers of a traced run.
#[derive(Debug, Default)]
pub struct ServeLayers {
    /// Result-cache hits over lookups during the loop.
    pub cache_hit_ratio: f64,
    /// Event-loop wakeups per completed request.
    pub epoll_wakeups_per_req: f64,
    /// Median exec-pool queue wait of computed runs (access log).
    pub queue_wait_us_p50: f64,
    /// Median compute span of computed runs (access log).
    pub compute_us_p50: f64,
    /// Median respond span of all runs (access log).
    pub respond_us_p50: f64,
    /// Median client latency of cache hits.
    pub hit_p50_ms: f64,
    /// Median client latency of computed replies.
    pub miss_p50_ms: f64,
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
///
/// # Errors
///
/// Fails where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Nanoseconds the calling thread has spent running on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the thread spent waiting for a CPU
/// is not counted, so other tenants of a loaded host slow this clock far
/// less than they slow the wall clock.
///
/// # Errors
///
/// Fails where the clock is unavailable.
pub fn thread_cpu_ns() -> Result<u64, String> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed".to_owned());
    }
    Ok(ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// Runs `f` and returns its result with the thread CPU time it took, in
/// seconds.
///
/// # Errors
///
/// As [`thread_cpu_ns`].
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> Result<(T, f64), String> {
    let t0 = thread_cpu_ns()?;
    let value = f();
    let t1 = thread_cpu_ns()?;
    Ok((value, t1.saturating_sub(t0) as f64 / 1e9))
}

const WORKLOADS: [&str; 3] = ["eval_chop", "eval_base_interp", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    scratch: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: None,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--cli" => args.cli = Some(PathBuf::from(value)),
            "--scratch" => args.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `section`.
fn declared(spec: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Arr(items)) = spec.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a {section} entry lacks a name or unit"))
        })
        .collect()
}

/// Checks that `metrics` are exactly the ones `BENCHMARK.json` declares
/// for this mode, by name, unit and order, and that every name is
/// valid.
fn check_declared(metrics: &[Metric], spec: &Json, trace: bool) -> Result<(), String> {
    let want = declared(spec, if trace { "per_layer" } else { "end_to_end" })?;
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    if let Some(bad) = metrics.iter().find(|m| !valid_name(m.name)) {
        return Err(format!("invalid metric name {:?}", bad.name));
    }
    if got != want {
        return Err(format!(
            "metrics {got:?} differ from those BENCHMARK.json declares: {want:?}"
        ));
    }
    Ok(())
}

/// The final result line.
fn result_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(",")
    ))
}

/// FNV-1a-64 over the simulator's sources (every crate's manifest and
/// `src/` tree, plus the lock file), identifying the code measured when
/// no git metadata is at hand.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            files.push(c.path().join("Cargo.toml"));
            walk(&c.path().join("src"), &mut files);
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(content) = std::fs::read(&f) {
            bytes.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend_from_slice(&content);
        }
    }
    powerchop_checkpoint::fnv1a64(&bytes)
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The run-context line printed before the result.
fn context_line(args: &Args, out: &Outcome, clients: usize) -> String {
    let mut w = powerchop_telemetry::export::JsonWriter::object();
    w.field_str("workload", &args.workload);
    w.field_u64("seed", args.seed);
    w.field_f64("seconds", args.seconds, 3);
    w.field_bool("trace", args.trace);
    w.field_u64("nproc", clients as u64);
    w.field_str("arch", std::env::consts::ARCH);
    w.field_bool("jit_native", powerchop_bt::JitEngine::supported());
    w.field_str("commit", &commit());
    w.field_str(
        "source_fnv",
        &format!("{:016x}", source_digest(Path::new("."))),
    );
    w.field_f64("failed_frac", out.tally.failed_frac(), 6);
    for (k, v) in &out.notes {
        w.field_str(k, v);
    }
    format!("{{\"context\":{}}}", w.finish())
}

fn run(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("expect") {
        let spec = match argv.get(1).map(String::as_str) {
            Some("eval_chop") => eval::CHOP,
            Some("eval_base_interp") => eval::BASE_INTERP,
            other => return Err(format!("expect {other:?}: expected an eval workload")),
        };
        print!("{}", eval::expected_text(&spec)?);
        return Ok(());
    }
    let args = parse_args(argv)?;
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let clients = std::thread::available_parallelism().map_or(1, usize::from);
    let (seed, secs) = (args.seed, args.seconds);
    let cli = args
        .cli
        .as_deref()
        .ok_or("--cli <powerchop-cli> is required")?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    let env = serve::ServeEnv {
        cli,
        scratch: &args.scratch,
        clients,
    };
    let out = match (args.workload.as_str(), args.trace) {
        ("eval_chop", false) => eval::run(&eval::CHOP, seed, secs)?,
        ("eval_chop", true) => eval::traced(&eval::CHOP, &env, seed, secs)?,
        ("eval_base_interp", false) => eval::run(&eval::BASE_INTERP, seed, secs)?,
        ("eval_base_interp", true) => eval::traced(&eval::BASE_INTERP, &env, seed, secs)?,
        (_, false) => serve::run(&env, seed, secs)?,
        (_, true) => serve::traced(&env, seed, secs)?,
    };
    check_declared(&out.metrics, &spec, args.trace)?;
    let line = result_line(&out)?;
    for m in &out.metrics {
        eprintln!("{:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", context_line(&args, &out, clients));
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_declared_name_is_valid_and_used_once() {
        let spec = spec();
        let mut names: Vec<String> = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for (name, unit) in declared(&spec, section).expect("section parses") {
                assert!(valid_name(&name), "{name}");
                assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
                names.push(name);
            }
        }
        let Some(Json::Arr(workloads)) = spec.get("workloads") else {
            panic!("workloads list")
        };
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            assert!(WORKLOADS.contains(&name), "{name} is runnable");
            names.push(name.to_owned());
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names are unique");
    }

    #[test]
    fn traced_metrics_match_the_declared_per_layer_list() {
        let metrics = SimLayers::default().metrics(&ServeLayers::default());
        check_declared(&metrics, &spec(), true).expect("per-layer list matches");
        assert!(check_declared(&metrics, &spec(), false).is_err());
        let mut renamed = metrics.clone();
        renamed[0].name = "bt step";
        assert!(check_declared(&renamed, &spec(), true).is_err());
    }

    #[test]
    fn result_line_counts_failures_and_rejects_non_finite_values() {
        let mut out = Outcome::new(Tally {
            attempted: 4,
            failed: 1,
        });
        out.metrics = vec![metric("setup_s", "s", 0.25)];
        let line = result_line(&out).expect("finite values render");
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":4,"failed":1,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        Json::parse(&line).expect("the result line is JSON");
        out.metrics[0].value = f64::NAN;
        assert!(result_line(&out).is_err());
    }

    #[test]
    fn thread_cpu_time_counts_work_but_not_sleep() {
        let ((), slept) =
            cpu_timed(|| std::thread::sleep(std::time::Duration::from_millis(100))).expect("clock");
        assert!(slept < 0.05, "sleeping used {slept} s of CPU");
        let (_, worked) = cpu_timed(|| {
            (0..5_000_000u64).fold(0u64, |acc, i| std::hint::black_box(acc.wrapping_add(i)))
        })
        .expect("clock");
        assert!(worked > 0.0);
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_values() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("parses");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload eval_chop --trace 2")).is_err());
        assert!(parse_args(&argv("--workload eval_chop --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload eval_chop --seed")).is_err());
    }
}
