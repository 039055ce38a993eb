use powerchop_gisa::{Cpu, GisaError, Memory, Program};
use powerchop_uarch::core::{CoreModel, ExecMode};

use crate::jit::{JitEngine, JitMode, JitReport, JitStats};
use crate::region_cache::{RegionCache, TranslationId};
use crate::translator;

/// Tuning parameters of the BT layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtConfig {
    /// Dynamic executions of a region head before the translator runs.
    pub hot_threshold: u32,
    /// Maximum guest instructions per translation trace.
    pub max_trace_len: usize,
    /// Region-cache capacity in translations.
    pub region_cache_capacity: usize,
    /// One-time translation cost, in cycles per translated guest
    /// instruction (charged as a stall when the translator runs).
    pub translate_cycles_per_inst: u64,
    /// Form superblock traces through strongly-biased conditional
    /// branches, using the branch statistics the interpreter collects
    /// (Transmeta-style speculative trace formation). Mis-speculation
    /// side-exits at run time.
    pub superblocks: bool,
}

impl Default for BtConfig {
    fn default() -> Self {
        BtConfig {
            hot_threshold: 16,
            max_trace_len: 64,
            region_cache_capacity: 4096,
            translate_cycles_per_inst: 1500,
            superblocks: false,
        }
    }
}

/// Cumulative BT-layer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BtStats {
    /// Instructions executed by the interpreter.
    pub interpreted_instructions: u64,
    /// Instructions executed from translations in the region cache.
    pub translated_instructions: u64,
    /// Translations built by the translator.
    pub translations_built: u64,
    /// Translation executions (region-cache dispatches that hit).
    pub translation_executions: u64,
    /// Translation executions that left the trace early because control
    /// flow diverged from the recorded path.
    pub side_exits: u64,
    /// Context switches observed (profiling state flushed each time).
    pub context_switches: u64,
    /// Translations dropped by region-cache invalidation events.
    pub invalidated_translations: u64,
}

impl powerchop_telemetry::MetricSource for BtStats {
    fn sample_metrics(&self, reg: &mut powerchop_telemetry::MetricsRegistry) {
        reg.counter_set(
            "bt_interpreted_instructions_total",
            self.interpreted_instructions,
        );
        reg.counter_set(
            "bt_translated_instructions_total",
            self.translated_instructions,
        );
        reg.counter_set("bt_translations_built_total", self.translations_built);
        reg.counter_set(
            "bt_translation_executions_total",
            self.translation_executions,
        );
        reg.counter_set("bt_side_exits_total", self.side_exits);
        reg.counter_set("bt_context_switches_total", self.context_switches);
        reg.counter_set(
            "bt_invalidated_translations_total",
            self.invalidated_translations,
        );
    }
}

/// One scheduling unit of hybrid execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MachineEvent {
    /// A translation executed from the region cache.
    ///
    /// This is the event the HTB observes: the translation's ID and the
    /// number of dynamic guest instructions it executed.
    Translation {
        /// ID of the executed translation.
        id: TranslationId,
        /// Dynamic guest instructions executed before the trace ended.
        instructions: u64,
    },
    /// One instruction was interpreted (cold code).
    Interpreted,
    /// The translator built and installed a new translation; no guest
    /// instruction executed during this event.
    Installed {
        /// ID of the new translation.
        id: TranslationId,
        /// Static guest instructions in its trace.
        guest_len: usize,
    },
    /// The guest program has halted.
    Halted,
}

/// The hybrid machine: guest CPU + memory + BT layer, driving a core
/// timing model.
///
/// Call [`Machine::step`] in a loop; each call executes one unit (a whole
/// translation, one interpreted instruction, or one translator run) and
/// reports what happened, which is exactly the granularity PowerChop's
/// hardware structures observe.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    cpu: Cpu,
    mem: Memory,
    region_cache: RegionCache,
    /// Interpreter hotness counters, directly indexed by PC (guest PCs
    /// are indices into the program, so a flat table replaces the hash
    /// map the interpreter used to hit on every block head). Zero means
    /// "not counted", matching the old map's absent entries.
    hotness: Vec<u32>,
    /// Per-branch (taken, total) counts collected by the interpreter,
    /// directly indexed by PC like `hotness`.
    branch_bias: Vec<(u32, u32)>,
    /// One bit per PC: whether the region cache holds a translation with
    /// that head. Lets the dispatch loop skip the region-cache hash
    /// lookup for the (overwhelmingly common) cold PCs; kept in lock
    /// step with every region-cache mutation.
    translated: Vec<bool>,
    config: BtConfig,
    at_block_head: bool,
    stats: BtStats,
    /// The native trace JIT. Compiled code is derived state: cloning
    /// yields a cold engine, snapshots never carry code bytes, and
    /// restore/invalidate drop it for recompile-on-demand.
    jit: JitEngine,
    /// Scratch buffer for invalidation storms, so the fault path does
    /// not allocate per event.
    invalidate_scratch: Vec<TranslationId>,
}

impl<'p> Machine<'p> {
    /// Creates a machine at the program entry with an initialized memory
    /// image and an empty region cache.
    #[must_use]
    pub fn new(program: &'p Program, config: BtConfig) -> Self {
        let mut mem = Memory::new();
        program.init_memory(&mut mem);
        Machine {
            program,
            cpu: Cpu::new(program),
            mem,
            region_cache: RegionCache::new(config.region_cache_capacity),
            hotness: vec![0; program.len()],
            branch_bias: vec![(0, 0); program.len()],
            translated: vec![false; program.len()],
            config,
            at_block_head: true,
            stats: BtStats::default(),
            jit: JitEngine::new(JitMode::Off),
            invalidate_scratch: Vec::new(),
        }
    }

    /// Replaces the JIT engine with a fresh one in `mode`. Resident
    /// translations compile on demand at their next dispatch.
    pub fn set_jit_mode(&mut self, mode: JitMode) {
        self.jit = JitEngine::new(mode);
    }

    /// Cumulative JIT counters.
    #[must_use]
    pub fn jit_stats(&self) -> JitStats {
        self.jit.stats()
    }

    /// The JIT report for run artifacts' sidecar (`None` when off).
    #[must_use]
    pub fn jit_report(&self) -> Option<JitReport> {
        self.jit.report()
    }

    /// Native code size compiled for translation `id`, if any.
    #[must_use]
    pub fn jit_code_len(&self, id: TranslationId) -> Option<usize> {
        self.jit.code_len(id)
    }

    /// The guest CPU state (for inspecting results).
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The guest memory (for inspecting results).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Whether the guest program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.cpu.halted()
    }

    /// Total guest instructions retired (interpreted + translated).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.cpu.retired()
    }

    /// Cumulative BT statistics.
    #[must_use]
    pub fn stats(&self) -> BtStats {
        self.stats
    }

    /// The region cache (for inspection).
    #[must_use]
    pub fn region_cache(&self) -> &RegionCache {
        &self.region_cache
    }

    /// Executes one unit of hybrid execution, feeding the timing model.
    ///
    /// # Errors
    ///
    /// Propagates guest execution faults ([`GisaError`]); these indicate a
    /// bug in the guest program, not in the BT layer.
    pub fn step(&mut self, core: &mut CoreModel) -> Result<MachineEvent, GisaError> {
        if self.cpu.halted() {
            return Ok(MachineEvent::Halted);
        }

        let pc = self.cpu.pc();
        // The presence bitmap makes the translated/cold decision a flat
        // load; only PCs that really head a translation pay the region
        // cache's hash lookup.
        if self.translated.get(pc.0 as usize).copied().unwrap_or(false) {
            let head_id = TranslationId(pc.0);
            if let Some(translation) = self.region_cache.get(head_id) {
                // Translations are immutable and Arc-backed: dispatching
                // is a refcount bump, not a trace copy.
                let trace = translation.trace_arc();
                let insts = translation.insts_arc();
                if let Some(outcome) =
                    self.jit
                        .execute(head_id, &trace, &insts, &mut self.cpu, &mut self.mem, core)
                {
                    // Propagate guest faults before touching stats — the
                    // interpreter loop's `?` has the same ordering.
                    let outcome = outcome?;
                    self.stats.translation_executions += 1;
                    self.stats.translated_instructions += outcome.executed;
                    if outcome.side_exit {
                        self.stats.side_exits += 1;
                    }
                    self.at_block_head = true;
                    return Ok(MachineEvent::Translation {
                        id: head_id,
                        instructions: outcome.executed,
                    });
                }
                return self.execute_translation(head_id, &trace, &insts, core);
            }
        }

        // Slow path: interpret, counting hotness at block heads.
        if self.at_block_head {
            let count = self
                .hotness
                .get_mut(pc.0 as usize)
                .map(|counter| {
                    *counter += 1;
                    *counter
                })
                .unwrap_or(0);
            if count >= self.config.hot_threshold && count > 0 {
                self.hotness[pc.0 as usize] = 0;
                let built = if self.config.superblocks {
                    let bias = &self.branch_bias;
                    translator::translate_with_bias(
                        self.program,
                        pc,
                        self.config.max_trace_len,
                        |branch_pc| {
                            let (taken, total) = bias.get(branch_pc.0 as usize)?;
                            if *total < 8 {
                                return None;
                            }
                            let rate = f64::from(*taken) / f64::from(*total);
                            if rate >= 0.9 {
                                Some(true)
                            } else if rate <= 0.1 {
                                Some(false)
                            } else {
                                None
                            }
                        },
                    )
                } else {
                    translator::translate(self.program, pc, self.config.max_trace_len)
                };
                if let Some(t) = built {
                    let id = t.id();
                    let guest_len = t.len();
                    core.add_stall(self.config.translate_cycles_per_inst * guest_len as u64);
                    self.install_translation(t);
                    self.stats.translations_built += 1;
                    return Ok(MachineEvent::Installed { id, guest_len });
                }
            }
        }

        let info = self.cpu.step(self.program, &mut self.mem)?;
        core.on_step(&info, ExecMode::Interpreted);
        self.stats.interpreted_instructions += 1;
        if let Some(branch) = info.branch {
            if let Some((taken, total)) = self.branch_bias.get_mut(info.pc.0 as usize) {
                *taken += u32::from(branch.taken);
                *total += 1;
            }
        }
        self.at_block_head = info.inst.ends_block();
        Ok(MachineEvent::Interpreted)
    }

    /// Installs a translation and keeps the presence bitmap in lock step
    /// with the region cache (including the eviction it may cause).
    fn install_translation(&mut self, t: translator::Translation) {
        let id = t.id();
        self.jit.on_install(&t);
        if let Some(victim) = self.region_cache.install(t) {
            if let Some(bit) = self.translated.get_mut(victim.0 as usize) {
                *bit = false;
            }
            self.jit.remove(victim);
        }
        if let Some(bit) = self.translated.get_mut(id.0 as usize) {
            *bit = true;
        }
    }

    /// Executes a translation's trace. `insts` is the decoded-instruction
    /// cache (trace-length when hydrated, empty right after a restore, in
    /// which case each step falls back to fetching).
    fn execute_translation(
        &mut self,
        id: TranslationId,
        trace: &[powerchop_gisa::Pc],
        insts: &[powerchop_gisa::Inst],
        core: &mut CoreModel,
    ) -> Result<MachineEvent, GisaError> {
        let mut executed = 0u64;
        let mut side_exit = false;
        let decoded = insts.len() == trace.len();
        for (i, expected) in trace.iter().enumerate() {
            if self.cpu.pc() != *expected {
                side_exit = true;
                break;
            }
            let info = if decoded {
                self.cpu.step_prefetched(insts[i], &mut self.mem)?
            } else {
                self.cpu.step(self.program, &mut self.mem)?
            };
            core.on_step(&info, ExecMode::Translated);
            executed += 1;
            if self.cpu.halted() {
                break;
            }
        }
        self.stats.translation_executions += 1;
        self.stats.translated_instructions += executed;
        if side_exit {
            self.stats.side_exits += 1;
        }
        // A translation exit is a dispatch point: the next PC is a block
        // head for hotness purposes.
        self.at_block_head = true;
        Ok(MachineEvent::Translation {
            id,
            instructions: executed,
        })
    }

    /// Serializes the complete machine state: guest CPU and memory, the
    /// region cache, interpreter profiling state (hotness counters and
    /// branch-bias history, encoded as nonzero entries in PC order), and
    /// BT statistics. The program itself is not serialized — only its
    /// fingerprint, which restore verifies. The decoded-instruction
    /// caches and the head-presence bitmap are derived state and are
    /// rebuilt on restore.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        w.put_u64(self.program.fingerprint());
        self.cpu.snapshot_to(w);
        self.mem.snapshot_to(w);
        self.region_cache.snapshot_to(w);
        // Flat tables serialize as their nonzero entries in PC order —
        // byte-identical to the sorted encoding of the hash maps they
        // replaced (absent map entries are zero table entries).
        let hot: Vec<(u32, u32)> = self
            .hotness
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(pc, count)| (pc as u32, *count))
            .collect();
        w.put_usize(hot.len());
        for (pc, count) in hot {
            w.put_u32(pc);
            w.put_u32(count);
        }
        let bias: Vec<(u32, (u32, u32))> = self
            .branch_bias
            .iter()
            .enumerate()
            .filter(|(_, (_, total))| *total > 0)
            .map(|(pc, counts)| (pc as u32, *counts))
            .collect();
        w.put_usize(bias.len());
        for (pc, (taken, total)) in bias {
            w.put_u32(pc);
            w.put_u32(taken);
            w.put_u32(total);
        }
        w.put_bool(self.at_block_head);
        for v in [
            self.stats.interpreted_instructions,
            self.stats.translated_instructions,
            self.stats.translations_built,
            self.stats.translation_executions,
            self.stats.side_exits,
            self.stats.context_switches,
            self.stats.invalidated_translations,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores state written by [`Machine::snapshot_to`] into a machine
    /// freshly built over the *same program* with the same [`BtConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated, malformed, or was captured from a different
    /// program (fingerprint mismatch).
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        let fingerprint = r.take_u64()?;
        if fingerprint != self.program.fingerprint() {
            return Err(powerchop_checkpoint::CheckpointError::Malformed {
                what: "snapshot was captured from a different guest program",
            });
        }
        self.cpu.restore_from(r)?;
        self.mem.restore_from(r)?;
        self.region_cache.restore_from(r)?;
        // Snapshots carry trace PCs but not decoded instructions; rebuild
        // the decode cache and the head-presence bitmap from the restored
        // region cache.
        self.region_cache.rehydrate(self.program);
        // Native code is never snapshotted; drop any compiled traces and
        // let the restored translations recompile on demand.
        self.jit.clear();
        self.translated.fill(false);
        let heads: Vec<u32> = self.region_cache.iter().map(|t| t.id().0).collect();
        for head in heads {
            if let Some(bit) = self.translated.get_mut(head as usize) {
                *bit = true;
            }
        }
        let hot_count = r.take_usize()?;
        self.hotness.fill(0);
        for _ in 0..hot_count {
            let pc = r.take_u32()?;
            let count = r.take_u32()?;
            if let Some(slot) = self.hotness.get_mut(pc as usize) {
                *slot = count;
            }
        }
        let bias_count = r.take_usize()?;
        self.branch_bias.fill((0, 0));
        for _ in 0..bias_count {
            let pc = r.take_u32()?;
            let taken = r.take_u32()?;
            let total = r.take_u32()?;
            if let Some(slot) = self.branch_bias.get_mut(pc as usize) {
                *slot = (taken, total);
            }
        }
        self.at_block_head = r.take_bool()?;
        self.stats.interpreted_instructions = r.take_u64()?;
        self.stats.translated_instructions = r.take_u64()?;
        self.stats.translations_built = r.take_u64()?;
        self.stats.translation_executions = r.take_u64()?;
        self.stats.side_exits = r.take_u64()?;
        self.stats.context_switches = r.take_u64()?;
        self.stats.invalidated_translations = r.take_u64()?;
        Ok(())
    }

    /// Fault hook: a context switch. The guest's architectural state is
    /// saved and restored by the OS, but the BT layer's warm profiling
    /// state — interpreter hotness counters and branch-bias history —
    /// belongs to the time slice and is flushed, so hot regions must
    /// re-prove themselves. Installed translations survive (the region
    /// cache is per-process software state).
    pub fn on_context_switch(&mut self) {
        self.hotness.fill(0);
        self.branch_bias.fill((0, 0));
        self.at_block_head = true;
        self.stats.context_switches += 1;
    }

    /// Fault hook: a region-cache invalidation storm dropping roughly
    /// `fraction` of resident translations (selected deterministically
    /// from `selector`). Returns how many were dropped; execution falls
    /// back to interpretation until the regions re-heat.
    pub fn invalidate_regions(&mut self, fraction: f64, selector: u64) -> usize {
        // Reuse a scratch buffer: invalidation storms fire repeatedly on
        // the fault path and must not allocate per event.
        let mut dropped = std::mem::take(&mut self.invalidate_scratch);
        self.region_cache
            .invalidate_fraction_into(fraction, selector, &mut dropped);
        for id in &dropped {
            if let Some(bit) = self.translated.get_mut(id.0 as usize) {
                *bit = false;
            }
            self.jit.remove(*id);
        }
        self.stats.invalidated_translations += dropped.len() as u64;
        let count = dropped.len();
        self.invalidate_scratch = dropped;
        count
    }

    /// Runs until the guest halts or `max_instructions` have retired,
    /// discarding events. Convenience for tests and examples that only
    /// care about final state; PowerChop itself consumes events via
    /// [`Machine::step`].
    ///
    /// # Errors
    ///
    /// Propagates guest execution faults.
    pub fn run(&mut self, core: &mut CoreModel, max_instructions: u64) -> Result<(), GisaError> {
        while !self.cpu.halted() && self.cpu.retired() < max_instructions {
            self.step(core)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_gisa::{ProgramBuilder, Reg};
    use powerchop_uarch::config::CoreConfig;

    fn r(i: u8) -> Reg {
        Reg::new(i).expect("register index in range")
    }

    /// A program that loops `n` times over a small body.
    fn loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(r(0), 0).li(r(1), n);
        let top = b.bind_label();
        b.addi(r(0), r(0), 1);
        b.addi(r(2), r(2), 3);
        b.blt(r(0), r(1), top);
        b.halt();
        b.build().expect("test program is well-formed")
    }

    fn new_core() -> CoreModel {
        CoreModel::new(&CoreConfig::server())
    }

    #[test]
    fn hot_loop_gets_translated_and_dominates() {
        let p = loop_program(10_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, u64::MAX).unwrap();
        assert!(m.halted());
        let s = m.stats();
        assert!(s.translations_built >= 1);
        assert!(
            s.translated_instructions > 50 * s.interpreted_instructions,
            "translated {} vs interpreted {}",
            s.translated_instructions,
            s.interpreted_instructions
        );
        // Architectural result identical to pure interpretation.
        assert_eq!(m.cpu().int_reg(r(0)), 10_000);
        assert_eq!(m.cpu().int_reg(r(2)), 30_000);
    }

    #[test]
    fn architectural_state_matches_pure_interpretation() {
        let p = loop_program(500);
        // Hybrid run.
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, u64::MAX).unwrap();
        // Pure interpreter run (threshold too high to ever translate).
        let mut core2 = new_core();
        let mut m2 = Machine::new(
            &p,
            BtConfig {
                hot_threshold: u32::MAX,
                ..BtConfig::default()
            },
        );
        m2.run(&mut core2, u64::MAX).unwrap();
        assert_eq!(m.cpu(), m2.cpu());
        assert_eq!(m2.stats().translations_built, 0);
    }

    #[test]
    fn translation_events_report_dynamic_instructions() {
        let p = loop_program(10_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        let mut translated_insts = 0;
        let mut events = 0;
        loop {
            match m.step(&mut core).expect("test program executes cleanly") {
                MachineEvent::Halted => break,
                MachineEvent::Translation { instructions, .. } => {
                    translated_insts += instructions;
                    events += 1;
                }
                _ => {}
            }
        }
        assert_eq!(translated_insts, m.stats().translated_instructions);
        assert_eq!(events, m.stats().translation_executions);
        assert!(events > 1000);
    }

    #[test]
    fn translation_charges_one_time_cost() {
        let p = loop_program(1000);
        let cfg = BtConfig {
            translate_cycles_per_inst: 10_000,
            ..BtConfig::default()
        };
        let mut expensive = new_core();
        Machine::new(&p, cfg).run(&mut expensive, u64::MAX).unwrap();
        let mut cheap = new_core();
        Machine::new(
            &p,
            BtConfig {
                translate_cycles_per_inst: 0,
                ..BtConfig::default()
            },
        )
        .run(&mut cheap, u64::MAX)
        .unwrap();
        assert!(expensive.cycles() > cheap.cycles() + 9_000);
    }

    #[test]
    fn interpreting_forever_is_slower_than_translating() {
        let p = loop_program(20_000);
        let mut hybrid_core = new_core();
        Machine::new(&p, BtConfig::default())
            .run(&mut hybrid_core, u64::MAX)
            .unwrap();
        let mut interp_core = new_core();
        Machine::new(
            &p,
            BtConfig {
                hot_threshold: u32::MAX,
                ..BtConfig::default()
            },
        )
        .run(&mut interp_core, u64::MAX)
        .unwrap();
        assert!(interp_core.cycles() > 2 * hybrid_core.cycles());
    }

    #[test]
    fn run_respects_instruction_budget() {
        let p = loop_program(1_000_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, 5_000).unwrap();
        assert!(!m.halted());
        // Budget is checked between units, so overshoot is at most one
        // translation length.
        assert!(m.retired() >= 5_000);
        assert!(m.retired() < 5_000 + 100);
    }

    #[test]
    fn superblocks_form_longer_traces_and_side_exit_on_misspeculation() {
        // A loop with a 15-of-16-biased forward branch: superblocks trace
        // through it, so the rare direction side-exits.
        let mut b = ProgramBuilder::new("superblock");
        b.li(r(0), 0).li(r(1), 30_000).li(r(2), 16).li(r(3), 15);
        let top = b.bind_label();
        let rare = b.label();
        let join = b.label();
        b.rem(r(4), r(0), r(2));
        b.beq(r(4), r(3), rare); // taken 1/16 of iterations
        b.addi(r(5), r(5), 1);
        b.jmp(join);
        b.bind(rare).unwrap();
        b.addi(r(6), r(6), 1);
        b.bind(join).unwrap();
        b.addi(r(0), r(0), 1);
        b.blt(r(0), r(1), top);
        b.halt();
        let p = b.build().expect("test program is well-formed");

        let run = |superblocks: bool| {
            let mut core = new_core();
            let mut m = Machine::new(
                &p,
                BtConfig {
                    superblocks,
                    ..BtConfig::default()
                },
            );
            m.run(&mut core, u64::MAX).unwrap();
            assert_eq!(m.cpu().int_reg(r(6)), 30_000 / 16, "semantics preserved");
            m.stats()
        };
        let plain = run(false);
        let superblock = run(true);
        assert!(
            superblock.translation_executions < plain.translation_executions,
            "longer traces mean fewer dispatches: {} vs {}",
            superblock.translation_executions,
            plain.translation_executions
        );
        assert!(superblock.side_exits > 0, "rare direction must side-exit");
        // Roughly 1 side exit per 16 iterations.
        assert!(superblock.side_exits as i64 >= 30_000 / 16 - 16);
    }

    #[test]
    fn context_switch_flushes_profiling_but_preserves_semantics() {
        let p = loop_program(10_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        let mut steps = 0u64;
        while !m.halted() {
            m.step(&mut core).expect("test program executes cleanly");
            steps += 1;
            if steps.is_multiple_of(500) {
                m.on_context_switch();
            }
        }
        assert_eq!(m.stats().context_switches, steps / 500);
        // Architectural result identical to an undisturbed run.
        assert_eq!(m.cpu().int_reg(r(0)), 10_000);
        assert_eq!(m.cpu().int_reg(r(2)), 30_000);
    }

    #[test]
    fn region_invalidation_forces_retranslation_without_changing_results() {
        let p = loop_program(20_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        let mut invalidated = 0usize;
        let mut steps = 0u64;
        while !m.halted() {
            m.step(&mut core).expect("test program executes cleanly");
            steps += 1;
            if steps.is_multiple_of(2_000) {
                invalidated += m.invalidate_regions(1.0, steps);
            }
        }
        assert!(
            invalidated > 0,
            "the hot loop should have been dropped at least once"
        );
        assert_eq!(m.stats().invalidated_translations, invalidated as u64);
        assert!(
            m.stats().translations_built > 1,
            "dropped regions must re-heat and retranslate"
        );
        assert_eq!(m.cpu().int_reg(r(0)), 20_000);
    }

    #[test]
    fn side_exits_are_counted() {
        // A branch that is taken during warm-up (so the trace records the
        // fall-through... actually records up to the branch) — build a
        // two-sided branch whose direction flips after translation.
        let mut b = ProgramBuilder::new("flip");
        // r0 counts iterations; r1 = 50_000 limit; r3 selects a path every
        // other iteration.
        let top_l;
        {
            b.li(r(0), 0).li(r(1), 50_000);
            top_l = b.bind_label();
            let odd = b.label();
            let join = b.label();
            b.rem(r(3), r(0), r(2)); // r2 = 0 -> rem = 0 always; keep simple
            b.bne(r(3), r(4), odd); // never taken (both 0) — till r4 changes
            b.addi(r(5), r(5), 1);
            b.jmp(join);
            b.bind(odd).unwrap();
            b.addi(r(6), r(6), 1);
            b.bind(join).unwrap();
            b.addi(r(0), r(0), 1);
            b.blt(r(0), r(1), top_l);
            b.halt();
        }
        let p = b.build().expect("test program is well-formed");
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, u64::MAX).unwrap();
        // All iterations take the same path here; side exits may be zero.
        // The counter must never exceed executions.
        assert!(m.stats().side_exits <= m.stats().translation_executions);
    }
}
