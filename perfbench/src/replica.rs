//! The traced run's instruments: a replica of `run_program`'s driver
//! loop built from the simulator's public layers, an interpreter-only
//! replay, and the sampled call timers that wrap each layer's entry
//! point from outside.
//!
//! The replica must reproduce `run_program` exactly (retired count,
//! cycles, energy bits, gated cycles and switches); [`SimResult`] is the
//! shape both sides are compared in.

use std::hint::black_box;
use std::time::{Duration, Instant};

use powerchop::managers::{FullPowerManager, ManagerCtx, PowerChopManager, PowerManager};
use powerchop::{
    run_program, GatedCycles, GatingController, ManagerKind, RunConfig, RunReport, SimError,
    SwitchCounts,
};
use powerchop_bt::nucleus::Nucleus;
use powerchop_bt::{Machine, MachineEvent};
use powerchop_gisa::{Cpu, GisaError, Memory, Program};
use powerchop_power::EnergyLedger;
use powerchop_telemetry::Tracer;
use powerchop_uarch::config::CoreConfig;
use powerchop_uarch::core::{CoreModel, ExecMode};

use crate::cpu_timed;
use crate::stats::{median, Rng};

/// One call in this many is timed; the rest only counted.
pub const SAMPLE_EVERY: u64 = 8;

/// The simulated results a run is judged by. Equal values mean the same
/// simulation, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResult {
    /// Guest instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Total energy, as its IEEE-754 bits.
    pub energy_bits: u64,
    /// Cycles each unit spent gated.
    pub gated: GatedCycles,
    /// Gating switches per unit.
    pub switches: SwitchCounts,
}

impl SimResult {
    /// The results recorded in a run report.
    #[must_use]
    pub fn of_report(r: &RunReport) -> Self {
        SimResult {
            instructions: r.instructions,
            cycles: r.cycles,
            energy_bits: r.energy.total_j.to_bits(),
            gated: r.gated,
            switches: r.switches,
        }
    }

    /// The canonical text the digest is taken over.
    #[must_use]
    pub fn canonical(&self) -> String {
        let g = &self.gated;
        let s = &self.switches;
        format!(
            "{} {} {:016x} {} {} {} {} {} {} {} {} {}",
            self.instructions,
            self.cycles,
            self.energy_bits,
            g.vpu_off,
            g.bpu_off,
            g.mlc_half,
            g.mlc_quarter,
            g.mlc_one,
            g.total,
            s.vpu,
            s.bpu,
            s.mlc
        )
    }

    /// FNV-1a-64 of [`SimResult::canonical`].
    #[must_use]
    pub fn digest(&self) -> u64 {
        powerchop_checkpoint::fnv1a64(self.canonical().as_bytes())
    }
}

/// A timed call site: calls counted, a seeded 1-in-[`SAMPLE_EVERY`]
/// sample of them timed.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Total time of the timed calls, timer cost included.
    pub sampled_ns: u64,
}

impl Probe {
    /// Adds another probe's counts.
    pub fn merge(&mut self, other: &Probe) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Mean time per call with the timer's own cost `calib_ns`
    /// subtracted (0 when nothing was timed). A call cheaper than the
    /// timer's measured cost, such as full power's empty
    /// `on_translation`, reads 0 rather than a negative time.
    #[must_use]
    pub fn mean_ns(&self, calib_ns: f64) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            (self.sampled_ns as f64 / self.sampled as f64 - calib_ns).max(0.0)
        }
    }

    /// Estimated total time of all calls, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self, calib_ns: f64) -> f64 {
        self.mean_ns(calib_ns) * self.calls as f64
    }

    /// Counts one call that the caller timed itself.
    pub fn record(&mut self, d: Duration) {
        self.calls += 1;
        self.sampled += 1;
        self.sampled_ns += duration_ns(d);
    }

    /// Runs `f`, timing it when the sampler picks this call.
    #[inline]
    fn call<T>(&mut self, sampler: &mut Rng, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if !sampler.next_u64().is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.sampled_ns += duration_ns(t0.elapsed());
        self.sampled += 1;
        out
    }
}

/// Nanoseconds in `d`, saturating.
#[must_use]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The cost of one timed empty call through [`Probe`]'s timing path:
/// the median of many `Instant` pairs around nothing, in nanoseconds.
#[must_use]
pub fn calibrate() -> f64 {
    let pairs: Vec<f64> = (0..20_000)
        .map(|_| {
            let t0 = Instant::now();
            black_box(());
            duration_ns(t0.elapsed()) as f64
        })
        .collect();
    median(&pairs).unwrap_or(0.0)
}

/// The timed call sites of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `Machine::step` (BT dispatch, including the timing model it
    /// drives).
    pub bt_step: Probe,
    /// `PowerManager::on_translation` (HTB/PVT/CDE and the power
    /// ledger it charges).
    pub on_translation: Probe,
    /// `Cpu::step` in the interpreter-only replay.
    pub gisa_step: Probe,
    /// `CoreModel::on_step` in the interpreter-only replay.
    pub uarch_on_step: Probe,
    /// `Benchmark::program` builds.
    pub program_build: Probe,
}

impl Probes {
    /// Adds another pass's probes.
    pub fn merge(&mut self, o: &Probes) {
        self.bt_step.merge(&o.bt_step);
        self.on_translation.merge(&o.on_translation);
        self.gisa_step.merge(&o.gisa_step);
        self.uarch_on_step.merge(&o.uarch_on_step);
        self.program_build.merge(&o.program_build);
    }
}

/// Exact layer counters of replica runs, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Guest instructions retired.
    pub retired: u64,
    /// Instructions run from translations.
    pub translated: u64,
    /// Translations built.
    pub translations_built: u64,
    /// Translation dispatches.
    pub translation_executions: u64,
    /// Translation dispatches that ran native JIT code.
    pub jit_native: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Demand accesses reaching the MLC.
    pub mlc_accesses: u64,
    /// MLC hits.
    pub mlc_hits: u64,
    /// PVT lookups.
    pub pvt_lookups: u64,
    /// PVT hits.
    pub pvt_hits: u64,
    /// Gating switches, all units.
    pub switches: u64,
}

impl Counts {
    /// Adds another run's counters.
    pub fn merge(&mut self, o: &Counts) {
        self.retired += o.retired;
        self.translated += o.translated;
        self.translations_built += o.translations_built;
        self.translation_executions += o.translation_executions;
        self.jit_native += o.jit_native;
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
        self.mlc_accesses += o.mlc_accesses;
        self.mlc_hits += o.mlc_hits;
        self.pvt_lookups += o.pvt_lookups;
        self.pvt_hits += o.pvt_hits;
        self.switches += o.switches;
    }
}

fn manager_for(kind: ManagerKind, cfg: &RunConfig) -> Box<dyn PowerManager> {
    match kind {
        ManagerKind::PowerChop => Box::new(PowerChopManager::new(cfg.chop.clone(), false)),
        ManagerKind::FullPower => Box::new(FullPowerManager),
        other => unreachable!("the benchmark runs no {other:?} workload"),
    }
}

/// Runs `program` the way `run_program` does (clean, untraced), timing
/// `Machine::step` and `PowerManager::on_translation` from outside, and
/// returns the simulated results with the run's layer counters.
///
/// # Errors
///
/// Propagates a guest fault, which the caller counts as a failure.
pub fn replica(
    program: &Program,
    kind: ManagerKind,
    cfg: &RunConfig,
    sampler: &mut Rng,
    probes: &mut Probes,
) -> Result<(SimResult, Counts), SimError> {
    cfg.validate()?;
    let mut core = CoreModel::new(&cfg.core);
    let mut ledger = EnergyLedger::new(cfg.power.clone());
    let mut controller = GatingController::new(&cfg.core, true);
    let mut nucleus = Nucleus::new();
    let mut tracer = Tracer::disabled();
    let mut machine = Machine::new(program, cfg.bt);
    machine.set_jit_mode(cfg.jit);
    let mut manager = manager_for(kind, cfg);
    manager.init(&mut ManagerCtx {
        core: &mut core,
        ledger: &mut ledger,
        controller: &mut controller,
        nucleus: &mut nucleus,
        trace: &mut tracer,
    });
    while machine.retired() < cfg.max_instructions {
        let event = probes
            .bt_step
            .call(sampler, || machine.step(&mut core))
            .map_err(SimError::from)?;
        match event {
            MachineEvent::Halted => break,
            MachineEvent::Translation { id, instructions } => {
                let mut ctx = ManagerCtx {
                    core: &mut core,
                    ledger: &mut ledger,
                    controller: &mut controller,
                    nucleus: &mut nucleus,
                    trace: &mut tracer,
                };
                probes.on_translation.call(sampler, || {
                    manager.on_translation(id, instructions, &mut ctx);
                });
            }
            _ => {}
        }
    }
    controller.sync(&core, &mut ledger);

    let (bt, jit, cs) = (machine.stats(), machine.jit_stats(), core.stats());
    let pvt = manager.pvt_stats().unwrap_or_default();
    let counts = Counts {
        retired: machine.retired(),
        translated: bt.translated_instructions,
        translations_built: bt.translations_built,
        translation_executions: bt.translation_executions,
        jit_native: jit.exec_hits,
        branches: cs.branches,
        mispredicts: cs.mispredicts,
        mlc_accesses: cs.mlc_accesses,
        mlc_hits: cs.mlc_hits,
        pvt_lookups: pvt.lookups,
        pvt_hits: pvt.hits,
        switches: controller.switches().total(),
    };
    let result = SimResult {
        instructions: machine.retired(),
        cycles: core.cycles(),
        energy_bits: ledger.report().total_j.to_bits(),
        gated: controller.gated_cycles(),
        switches: controller.switches(),
    };
    Ok((result, counts))
}

/// Interprets `program` on a bare `Cpu` feeding a full-power
/// `CoreModel`, up to `budget` instructions, timing `Cpu::step` and
/// `CoreModel::on_step` separately.
///
/// # Errors
///
/// Propagates a guest fault.
pub fn interp_replay(
    program: &Program,
    core_cfg: &CoreConfig,
    budget: u64,
    sampler: &mut Rng,
    probes: &mut Probes,
) -> Result<(), GisaError> {
    let mut cpu = Cpu::new(program);
    let mut mem = Memory::new();
    program.init_memory(&mut mem);
    let mut core = CoreModel::new(core_cfg);
    while !cpu.halted() && cpu.retired() < budget {
        let info = probes
            .gisa_step
            .call(sampler, || cpu.step(program, &mut mem))?;
        probes
            .uarch_on_step
            .call(sampler, || core.on_step(&info, ExecMode::Interpreted));
    }
    black_box(core.cycles());
    Ok(())
}

/// What a traced pass accumulates over its programs.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The timed call sites.
    pub probes: Probes,
    /// The replicas' layer counters.
    pub counts: Counts,
    /// Thread CPU time of the untraced runs, in nanoseconds.
    pub untraced_ns: f64,
    /// Thread CPU time of the timed replicas, in nanoseconds.
    pub traced_ns: f64,
}

impl Pass {
    /// Adds another pass.
    pub fn merge(&mut self, o: &Pass) {
        self.probes.merge(&o.probes);
        self.counts.merge(&o.counts);
        self.untraced_ns += o.untraced_ns;
        self.traced_ns += o.traced_ns;
    }
}

/// Takes one program through a traced pass: `run_program` untraced, the
/// timed replica, and the interpreter-only replay, adding to `pass`.
/// Returns the untraced report, which the replica reproduced.
///
/// # Errors
///
/// Describes a failed run or replay, or a replica that diverged from
/// `run_program`.
pub fn trace_program(
    program: &Program,
    kind: ManagerKind,
    cfg: &RunConfig,
    sampler: &mut Rng,
    pass: &mut Pass,
) -> Result<RunReport, String> {
    let (report, cpu_s) = cpu_timed(|| run_program(program, kind, cfg))?;
    let report = report.map_err(|e| format!("run: {e}"))?;
    pass.untraced_ns += cpu_s * 1e9;
    let (replayed, cpu_s) = cpu_timed(|| replica(program, kind, cfg, sampler, &mut pass.probes))?;
    let (sim, counts) = replayed.map_err(|e| format!("replica: {e}"))?;
    pass.traced_ns += cpu_s * 1e9;
    pass.counts.merge(&counts);
    if sim != SimResult::of_report(&report) {
        return Err(format!(
            "replica diverged from run_program: {} vs {}",
            sim.canonical(),
            SimResult::of_report(&report).canonical()
        ));
    }
    interp_replay(
        program,
        &cfg.core,
        cfg.max_instructions,
        sampler,
        &mut pass.probes,
    )
    .map_err(|e| format!("interpreter replay: {e}"))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_bt::JitMode;
    use powerchop_workloads::Scale;

    fn cfg_for(name: &str, jit: JitMode) -> (Program, RunConfig) {
        let b = powerchop_workloads::by_name(name).expect("known benchmark");
        let mut cfg = RunConfig::for_kind(b.core_kind());
        cfg.max_instructions = 300_000;
        cfg.jit = jit;
        (b.program(Scale(0.05)), cfg)
    }

    #[test]
    fn replica_reproduces_run_program_under_both_managers_and_jit_modes() {
        for name in ["hmmer", "namd", "msn"] {
            for kind in [ManagerKind::PowerChop, ManagerKind::FullPower] {
                for jit in [JitMode::Off, JitMode::Auto] {
                    let (program, cfg) = cfg_for(name, jit);
                    let expected = run_program(&program, kind, &cfg).expect("run completes");
                    let mut probes = Probes::default();
                    let (got, counts) =
                        replica(&program, kind, &cfg, &mut Rng::new(1, 0), &mut probes)
                            .expect("replica completes");
                    assert_eq!(
                        got,
                        SimResult::of_report(&expected),
                        "{name} {kind:?} {jit}"
                    );
                    assert_eq!(counts.retired, expected.instructions);
                    assert_eq!(counts.translated, expected.bt.translated_instructions);
                    assert_eq!(counts.mlc_hits, expected.stats.mlc_hits);
                    assert_eq!(counts.pvt_lookups, expected.pvt.map_or(0, |p| p.lookups));
                    assert!(probes.bt_step.calls > 0 && probes.bt_step.sampled > 0);
                }
            }
        }
    }

    #[test]
    fn a_changed_result_changes_the_digest() {
        let (program, cfg) = cfg_for("hmmer", JitMode::Off);
        let r = run_program(&program, ManagerKind::PowerChop, &cfg).expect("run completes");
        let base = SimResult::of_report(&r);
        let mut off_by_one = base;
        off_by_one.cycles += 1;
        assert_ne!(base.digest(), off_by_one.digest());
        let mut energy = base;
        energy.energy_bits ^= 1;
        assert_ne!(base.digest(), energy.digest());
    }

    #[test]
    fn interp_replay_times_both_layers_once_per_instruction() {
        let (program, cfg) = cfg_for("hmmer", JitMode::Off);
        let mut probes = Probes::default();
        interp_replay(
            &program,
            &cfg.core,
            50_000,
            &mut Rng::new(2, 0),
            &mut probes,
        )
        .expect("replay completes");
        assert_eq!(probes.gisa_step.calls, 50_000);
        assert_eq!(probes.uarch_on_step.calls, 50_000);
        assert!(probes.gisa_step.sampled > 0);
    }

    #[test]
    fn probe_subtracts_calibration_from_the_mean() {
        let p = Probe {
            calls: 80,
            sampled: 10,
            sampled_ns: 1_000,
        };
        assert_eq!(p.mean_ns(40.0), 60.0);
        assert_eq!(p.total_ns(40.0), 4_800.0);
        assert_eq!(Probe::default().mean_ns(40.0), 0.0);
        assert_eq!(p.mean_ns(120.0), 0.0, "never below zero");
    }
}
