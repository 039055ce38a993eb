//! The evaluation workloads: all 29 programs of the paper's roster,
//! simulated in-process one after another at the scale and budget of
//! the figure harness (`crates/bench`), as the runs behind Figs 12-14
//! are. `eval_chop` runs them under PowerChop with the JIT on
//! auto; `eval_base_interp` under the full-power baseline with the JIT
//! off, which leaves the interpreter and the timing model nearly all
//! the work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use powerchop::{run_program, ManagerKind, RunConfig, Simulation};
use powerchop_bt::JitMode;
use powerchop_gisa::Program;
use powerchop_workloads::{Benchmark, Scale};

use crate::hostspeed::{slowdown, Meter};
use crate::replica::{calibrate, trace_program, Pass, SimResult};
use crate::serve::ServeEnv;
use crate::stats::{median, metric, tail, Rng, Tally};
use crate::{peak_rss_mb, Outcome, SimLayers};

/// Workload scale of every program: the figure harness's default.
pub const SCALE: f64 = 1.0;
/// Instruction budget of every run: the figure harness's default
/// (`powerchop::system::default_budget` without `POWERCHOP_BUDGET`).
pub const BUDGET: u64 = 12_000_000;
/// Set-ups timed before the first pass; one more follows every pass.
const SETUP_REPS: usize = 40;
/// How far a program run's CPU time moves, in log terms, per unit the
/// host-speed meter's moves. On the 2-CPU x86-64 development host, over
/// 1,800 program runs each between two meter samples, grouped six to a
/// process, the slope was 1.9–2.0 under full power with the JIT off
/// and 1.8 under PowerChop with the JIT on (correlation 0.88–0.95).
const ELASTICITY: f64 = 2.0;
/// Seconds of `serve_mixed` traffic a traced run spends on the serve
/// layers, which the eval workloads do not exercise.
const SERVE_PROBE_S: f64 = 5.0;

/// One evaluation workload.
#[derive(Debug, Clone, Copy)]
pub struct EvalSpec {
    /// Power manager of every run.
    pub manager: ManagerKind,
    /// JIT mode of every run.
    pub jit: JitMode,
    /// Expected digests, one `name digest canonical...` line per
    /// program.
    pub expected: &'static str,
}

/// PowerChop, JIT auto.
pub const CHOP: EvalSpec = EvalSpec {
    manager: ManagerKind::PowerChop,
    jit: JitMode::Auto,
    expected: include_str!("../expected/eval_chop.digests"),
};

/// Full power, JIT off.
pub const BASE_INTERP: EvalSpec = EvalSpec {
    manager: ManagerKind::FullPower,
    jit: JitMode::Off,
    expected: include_str!("../expected/eval_base_interp.digests"),
};

/// One program of the suite with its run configuration.
struct Entry {
    bench: &'static Benchmark,
    program: Program,
    cfg: RunConfig,
}

fn build(jit: JitMode) -> Vec<Entry> {
    powerchop_workloads::all()
        .iter()
        .map(|bench| {
            let mut cfg = RunConfig::for_kind(bench.core_kind());
            cfg.max_instructions = BUDGET;
            cfg.jit = jit;
            Entry {
                bench,
                program: bench.program(Scale(SCALE)),
                cfg,
            }
        })
        .collect()
}

/// Parses expected digests: `name hex-digest [canonical...]` per line,
/// `#` comments and blank lines ignored.
///
/// # Errors
///
/// Names the first malformed line.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let parsed = words.next().zip(words.next()).and_then(|(name, hex)| {
            u64::from_str_radix(hex, 16)
                .ok()
                .map(|d| (name.to_owned(), d))
        });
        let (name, digest) = parsed.ok_or_else(|| format!("digest line {}: {line:?}", n + 1))?;
        if out.insert(name.clone(), digest).is_some() {
            return Err(format!("digest line {}: {name} listed twice", n + 1));
        }
    }
    Ok(out)
}

/// Whether `result` matches the expected digest of `name`; a program
/// without an expected digest never matches. Mismatches are explained
/// on stderr.
pub fn matches(expected: &BTreeMap<String, u64>, name: &str, result: &SimResult) -> bool {
    let ok = expected.get(name) == Some(&result.digest());
    if !ok {
        eprintln!(
            "perfbench: {name}: digest {:016x} ({}) differs from the expected {}",
            result.digest(),
            result.canonical(),
            expected
                .get(name)
                .map_or_else(|| "(none)".to_owned(), |d| format!("{d:016x}"))
        );
    }
    ok
}

/// The expected-digest file for `spec`, computed with the *other* JIT
/// mode, so that a check against it also checks that the JIT does not
/// change simulated results.
///
/// # Errors
///
/// Reports a failed run.
pub fn expected_text(spec: &EvalSpec) -> Result<String, String> {
    let jit = if spec.jit == JitMode::Off {
        JitMode::Auto
    } else {
        JitMode::Off
    };
    let mut out = format!(
        "# program digest | instructions cycles energy-bits gated(vpu bpu mlc-half \
         mlc-quarter mlc-one total) switches(vpu bpu mlc)\n# {:?}, jit {jit}, scale {SCALE}, \
         budget {BUDGET}\n",
        spec.manager
    );
    for e in build(jit) {
        let r = run_program(&e.program, spec.manager, &e.cfg).map_err(|err| err.to_string())?;
        let s = SimResult::of_report(&r);
        out.push_str(&format!(
            "{} {:016x} {}\n",
            e.bench.name(),
            s.digest(),
            s.canonical()
        ));
    }
    Ok(out)
}

/// Builds the suite and constructs every simulation between two meter
/// samples; returns the thread CPU time taken, scaled to the reference
/// host, and the suite.
fn setup(spec: &EvalSpec, meter: &mut Meter) -> Result<(f64, Vec<Entry>), String> {
    let (suite, cpu_s, meter_s) = meter.around(|| -> Result<Vec<Entry>, String> {
        let suite = build(spec.jit);
        for e in &suite {
            let sim =
                Simulation::new(&e.program, spec.manager, &e.cfg).map_err(|err| err.to_string())?;
            black_box(sim);
        }
        Ok(suite)
    })?;
    Ok((cpu_s / slowdown(meter_s, ELASTICITY), suite?))
}

/// The untraced run: passes over the suite, each in a seeded order,
/// until `seconds` have passed; the last pass stops at the deadline, but
/// the first always completes.
///
/// Every program run is timed by the thread's CPU time, which leaves
/// out time spent waiting for a CPU, and scaled to the reference host by
/// the host-speed meter sampled around it (see [`crate::hostspeed`]):
/// other tenants of a shared host also slow the CPU itself, by up to
/// 1.9 times between 20-second spans on a 2-CPU host, and CPU time
/// counts that in full. Each program's cost is the median of its scaled
/// runs. The unscaled median pass and the median slowdown are on the
/// context line.
///
/// # Errors
///
/// Fails on a malformed digest file or set-up error.
pub fn run(spec: &EvalSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let expected = parse_digests(spec.expected)?;
    let mut meter = Meter::new();
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        setup_s.push(setup(spec, &mut meter)?.0);
    }
    let (last_setup_s, suite) = setup(spec, &mut meter)?;
    setup_s.push(last_setup_s);
    let mut rng = Rng::new(seed, 0);
    let mut order: Vec<usize> = (0..suite.len()).collect();
    let mut tally = Tally::default();
    let mut cost_s: Vec<Vec<f64>> = vec![Vec::new(); suite.len()];
    let mut raw_s: Vec<Vec<f64>> = vec![Vec::new(); suite.len()];
    let mut slowdowns = Vec::new();
    let mut retired = vec![0; suite.len()];
    let mut passes = 0;
    let start = Instant::now();
    'passes: loop {
        rng.shuffle(&mut order);
        for &i in &order {
            if passes > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let e = &suite[i];
            let (result, s, meter_s) =
                meter.around(|| run_program(&e.program, spec.manager, &e.cfg))?;
            let factor = slowdown(meter_s, ELASTICITY);
            cost_s[i].push(s / factor);
            raw_s[i].push(s);
            slowdowns.push(factor);
            let ok = match result {
                Ok(r) => {
                    retired[i] = r.instructions;
                    matches(&expected, e.bench.name(), &SimResult::of_report(&r))
                }
                Err(err) => {
                    eprintln!("perfbench: {}: {err}", e.bench.name());
                    false
                }
            };
            tally.record(ok);
        }
        passes += 1;
        // One more set-up between passes, so that `setup_s` samples the
        // host over the whole run rather than only its first moments.
        setup_s.push(setup(spec, &mut meter)?.0);
    }
    let latency_ms: Vec<f64> = cost_s
        .iter()
        .map(|runs| median(runs).unwrap_or(0.0) * 1e3)
        .collect();
    let pass_s = latency_ms.iter().sum::<f64>() / 1e3;
    let raw_pass_s: f64 = raw_s.iter().filter_map(|runs| median(runs)).sum();
    let t = tail(&latency_ms).ok_or("too few programs for a tail latency")?;
    let mut out = Outcome::new(tally);
    out.note("passes", passes.to_string());
    out.note("wall_s", format!("{:.3}", start.elapsed().as_secs_f64()));
    out.note("pass_cpu_s", format!("{pass_s:.4}"));
    out.note("unscaled_pass_cpu_s", format!("{raw_pass_s:.4}"));
    out.note(
        "host_slowdown_p50",
        format!("{:.4}", median(&slowdowns).unwrap_or(0.0)),
    );
    out.note("setup_samples", setup_s.len().to_string());
    out.note("latency_samples", t.count.to_string());
    out.note("tail_percentile", t.pct.to_string());
    out.note("tail_samples_beyond", t.beyond.to_string());
    out.metrics = vec![
        metric("setup_s", "s", median(&setup_s).unwrap_or(0.0)),
        metric(
            "sim_mips",
            "MIPS",
            retired.iter().sum::<u64>() as f64 / pass_s / 1e6,
        ),
        metric("rps", "1/s", suite.len() as f64 / pass_s),
        metric("p50_ms", "ms", median(&latency_ms).unwrap_or(0.0)),
        metric("tail_ms", "ms", t.value),
        metric("peak_rss_mb", "MB", peak_rss_mb("self")?),
    ];
    Ok(out)
}

/// The traced run: a short `serve_mixed` probe for the serve layers,
/// then passes that run each program untraced, then through the timed
/// replica (compared with the untraced report), then through the
/// interpreter-only replay. A pass starts only while the time left fits
/// one more pass as long as the last; the first always runs. A pass with
/// any mismatch is left out of the layer numbers.
///
/// # Errors
///
/// Fails on a malformed digest file.
pub fn traced(
    spec: &EvalSpec,
    env: &ServeEnv<'_>,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let expected = parse_digests(spec.expected)?;
    let (serve, mut tally) = crate::serve::probe_layers(env, seed, SERVE_PROBE_S)?;
    let calib_ns = calibrate();
    let suite = build(spec.jit);
    let mut sampler = Rng::new(seed, 1);
    let mut layers = SimLayers {
        calib_ns,
        ..SimLayers::default()
    };
    let (mut attempts, mut voided, mut last_pass_s) = (0, 0, 0.0);
    while attempts == 0 || start.elapsed().as_secs_f64() + last_pass_s <= seconds {
        attempts += 1;
        let pass_start = Instant::now();
        let mut pass = Pass::default();
        let mut clean = true;
        for e in &suite {
            let t0 = Instant::now();
            black_box(e.bench.program(Scale(SCALE)));
            pass.probes.program_build.record(t0.elapsed());

            let ok = match trace_program(&e.program, spec.manager, &e.cfg, &mut sampler, &mut pass)
            {
                Ok(report) => matches(&expected, e.bench.name(), &SimResult::of_report(&report)),
                Err(err) => {
                    eprintln!("perfbench: {}: {err}", e.bench.name());
                    false
                }
            };
            tally.record(ok);
            clean &= ok;
        }
        if clean {
            layers.add_pass(&pass);
        } else {
            voided += 1;
        }
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    let mut out = Outcome::new(tally);
    out.note("passes", layers.passes.to_string());
    out.note("voided_passes", voided.to_string());
    out.note("calibration_ns", format!("{calib_ns:.1}"));
    out.note("serve_probe_s", SERVE_PROBE_S.to_string());
    out.metrics = layers.metrics(&serve);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_files_parse_and_cover_the_whole_roster() {
        for spec in [CHOP, BASE_INTERP] {
            let digests = parse_digests(spec.expected).expect("committed digests parse");
            let names: Vec<&str> = powerchop_workloads::all()
                .iter()
                .map(|b| b.name())
                .collect();
            assert_eq!(digests.len(), names.len());
            for name in names {
                assert!(digests.contains_key(name), "{name} has an expected digest");
            }
        }
    }

    #[test]
    fn the_budget_is_the_figure_harness_default() {
        if std::env::var_os("POWERCHOP_BUDGET").is_none() {
            assert_eq!(BUDGET, powerchop::system::default_budget());
        }
    }

    #[test]
    fn malformed_or_duplicate_digest_lines_are_rejected() {
        assert!(parse_digests("# only a comment\n\n")
            .expect("parses")
            .is_empty());
        assert!(parse_digests("hmmer").is_err(), "digest missing");
        assert!(parse_digests("hmmer xyz").is_err(), "not hex");
        assert!(parse_digests("hmmer 1f\nhmmer 1f").is_err(), "duplicate");
        let d = parse_digests("hmmer 00000000000000ff 1 2 3").expect("parses");
        assert_eq!(d.get("hmmer"), Some(&0xff));
    }

    #[test]
    fn a_result_matches_only_its_own_digest() {
        let b = powerchop_workloads::by_name("msn").expect("known benchmark");
        let mut cfg = RunConfig::for_kind(b.core_kind());
        cfg.max_instructions = 200_000;
        let r = run_program(&b.program(Scale(0.05)), ManagerKind::PowerChop, &cfg)
            .expect("run completes");
        let sim = SimResult::of_report(&r);
        let expected = parse_digests(&format!("msn {:016x}", sim.digest())).expect("parses");
        assert!(matches(&expected, "msn", &sim));
        assert!(!matches(&expected, "hmmer", &sim), "no digest for the name");
        let mut other = sim;
        other.switches.vpu += 1;
        assert!(!matches(&expected, "msn", &other), "one switch more");
    }
}
