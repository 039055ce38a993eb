//! The Criticality Decision Engine (CDE), paper §IV-C and Algorithm 1.
//!
//! The CDE is the software half of PowerChop, implemented inside the BT
//! subsystem and invoked through the nucleus on PVT misses. It profiles
//! newly-seen phases with hardware performance counters, scores unit
//! criticality, assigns gating policies, and manages the PVT's backing
//! store in memory (re-registering evicted phases on capacity misses).
//!
//! Criticality scoring (paper §IV-C2):
//!
//! - **VPU**: `Criticality_VPU = Phase_SIMD / Phase_TotInsn` from one
//!   profiling window; gate off below `Threshold_VPU`.
//! - **BPU**: `Criticality_BPU = MisPred_Small − MisPred_Large` from two
//!   profiling windows (one per predictor); gate off below
//!   `Threshold_BPU`.
//! - **MLC**: `Criticality_MLC = Phase_L2Hit / Phase_TotInsn` from one
//!   window; all ways above `Threshold_MLC1`, one way below
//!   `Threshold_MLC2`, half the ways otherwise.

use std::collections::HashMap;

use powerchop_uarch::cache::MlcWayState;
use powerchop_uarch::core::CoreStats;

use crate::phase::PhaseSignature;
use crate::policy::GatingPolicy;

/// Criticality thresholds (paper §V-A; the literal values are elided in
/// the paper text, so these defaults are this reproduction's calibration —
/// see `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// `Threshold_VPU`: minimum SIMD-instruction fraction to keep the VPU
    /// powered.
    pub vpu: f64,
    /// `Threshold_BPU`: minimum misprediction-rate improvement (small −
    /// large) to keep the large predictor powered.
    pub bpu: f64,
    /// `Threshold_MLC1`: L2-hits-per-instruction above which all ways stay
    /// active.
    pub mlc_high: f64,
    /// `Threshold_MLC2`: L2-hits-per-instruction below which a single way
    /// suffices.
    pub mlc_low: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            vpu: 0.01,
            bpu: 0.005,
            mlc_high: 0.01,
            mlc_low: 0.001,
        }
    }
}

impl Thresholds {
    /// An aggressive, energy-minimizing preset (paper §V-A: "more
    /// aggressive policies using higher thresholds that target energy
    /// minimization"): units must earn substantially more performance to
    /// stay powered.
    #[must_use]
    pub fn aggressive() -> Self {
        Thresholds {
            vpu: 0.05,
            bpu: 0.02,
            mlc_high: 0.05,
            mlc_low: 0.005,
        }
    }
}

/// Performance-counter deltas measured over one profiling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowProfile {
    /// Instructions committed in the window.
    pub instructions: u64,
    /// Vector operations (by architectural intent).
    pub vec_ops: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Branch mispredictions (under whichever predictor was active).
    pub mispredicts: u64,
    /// MLC (L2) demand accesses.
    pub mlc_accesses: u64,
    /// MLC (L2) hits.
    pub mlc_hits: u64,
}

impl WindowProfile {
    /// Computes the deltas between two cumulative core-stats snapshots.
    #[must_use]
    pub fn from_delta(now: &CoreStats, earlier: &CoreStats) -> Self {
        WindowProfile {
            instructions: now.instructions - earlier.instructions,
            vec_ops: now.vec_ops - earlier.vec_ops,
            branches: now.branches - earlier.branches,
            mispredicts: now.mispredicts - earlier.mispredicts,
            mlc_accesses: now.mlc_accesses - earlier.mlc_accesses,
            mlc_hits: now.mlc_hits - earlier.mlc_hits,
        }
    }

    /// Misprediction rate per branch (0 when the window had no branches).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// What the CDE knows about one phase signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseRecord {
    /// Seen; discarding `left` more windows so gated-state history (cold
    /// caches, cold predictors) stops polluting the measurement — the
    /// paper's "insufficient information, keep collecting" arm of
    /// Algorithm 1.
    Warming {
        /// Warm-up windows still to discard.
        left: u32,
    },
    /// Warmed up, awaiting the first (large-BPU) profiling window.
    ProfilingLarge,
    /// First window measured; awaiting the small-BPU window.
    ProfilingSmall(WindowProfile),
    /// Fully characterized.
    Decided(GatingPolicy),
}

/// Cumulative CDE activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CdeStats {
    /// Phases seen for the first time (compulsory PVT misses).
    pub new_phases: u64,
    /// Phases fully characterized and registered.
    pub decided: u64,
    /// Capacity misses: evicted phases re-registered from memory.
    pub reregistered: u64,
    /// Profiling windows discarded because the phase changed mid-profile.
    pub profiles_discarded: u64,
}

impl powerchop_telemetry::MetricSource for CdeStats {
    fn sample_metrics(&self, reg: &mut powerchop_telemetry::MetricsRegistry) {
        reg.counter_set("cde_new_phases_total", self.new_phases);
        reg.counter_set("cde_decided_total", self.decided);
        reg.counter_set("cde_reregistered_total", self.reregistered);
        reg.counter_set("cde_profiles_discarded_total", self.profiles_discarded);
    }
}

/// The Criticality Decision Engine.
#[derive(Debug, Clone)]
pub struct Cde {
    thresholds: Thresholds,
    warmup_windows: u32,
    max_profile_attempts: u32,
    extended_mlc: bool,
    phases: HashMap<PhaseSignature, PhaseRecord>,
    attempts: HashMap<PhaseSignature, u32>,
    stats: CdeStats,
}

impl Cde {
    /// Creates a CDE with the given thresholds, one warm-up window, and
    /// at most 4 profiling attempts per phase.
    #[must_use]
    pub fn new(thresholds: Thresholds) -> Self {
        Cde::with_config(thresholds, 1, 4)
    }

    /// Creates a CDE with explicit profiling parameters.
    ///
    /// `warmup_windows` windows are discarded before measurement so a
    /// previously-gated configuration does not pollute the profile.
    /// Phases whose profiling is interrupted `max_profile_attempts` times
    /// (they never persist long enough to measure) are conservatively
    /// decided fully-powered so they stop oscillating the units.
    #[must_use]
    pub fn with_config(
        thresholds: Thresholds,
        warmup_windows: u32,
        max_profile_attempts: u32,
    ) -> Self {
        Cde {
            thresholds,
            warmup_windows,
            max_profile_attempts: max_profile_attempts.max(1),
            extended_mlc: false,
            phases: HashMap::new(),
            attempts: HashMap::new(),
            stats: CdeStats::default(),
        }
    }

    /// Enables the 4-state MLC policy extension (paper §IV-B3: the 2-bit
    /// policy field has room for a fourth state): phases in the lower
    /// part of the Half band are given a quarter of the ways instead.
    #[must_use]
    pub fn with_extended_mlc_states(mut self, enabled: bool) -> Self {
        self.extended_mlc = enabled;
        self
    }

    /// The thresholds in use.
    #[must_use]
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CdeStats {
        self.stats
    }

    /// The record for `signature`, if any.
    #[must_use]
    pub fn record(&self, signature: PhaseSignature) -> Option<PhaseRecord> {
        self.phases.get(&signature).copied()
    }

    /// Degradation hook: erases everything known about `signature`, so
    /// its next occurrence re-enters profiling from scratch (including a
    /// fresh interrupted-attempt budget).
    pub fn forget(&mut self, signature: PhaseSignature) {
        self.phases.remove(&signature);
        self.attempts.remove(&signature);
    }

    /// Handles a PVT miss for `signature` (Algorithm 1): returns the
    /// decided policy if this is a capacity miss, or `None` if the phase
    /// needs (more) profiling — in which case the caller must arm a
    /// profiling window.
    ///
    /// `needs_warmup` says whether cache warm-up windows are required
    /// before measurement; phases with no MLC traffic in the missing
    /// window skip warm-up, shortening profiling so short phases can
    /// still complete it.
    pub fn on_pvt_miss(
        &mut self,
        signature: PhaseSignature,
        needs_warmup: bool,
    ) -> Option<GatingPolicy> {
        match self.phases.get(&signature) {
            Some(PhaseRecord::Decided(policy)) => {
                self.stats.reregistered += 1;
                Some(*policy)
            }
            Some(_) => None,
            None => {
                self.stats.new_phases += 1;
                self.phases
                    .insert(signature, self.fresh_profiling_record(needs_warmup));
                None
            }
        }
    }

    fn fresh_profiling_record(&self, needs_warmup: bool) -> PhaseRecord {
        if needs_warmup && self.warmup_windows > 0 {
            PhaseRecord::Warming {
                left: self.warmup_windows,
            }
        } else {
            PhaseRecord::ProfilingLarge
        }
    }

    /// Feeds the measurement of one completed profiling window for
    /// `signature`. Returns the decided policy once profiling completes
    /// (after the second window).
    pub fn on_profile_window(
        &mut self,
        signature: PhaseSignature,
        profile: WindowProfile,
    ) -> Option<GatingPolicy> {
        match self.phases.get(&signature) {
            Some(PhaseRecord::Warming { left }) if *left > 1 => {
                self.phases
                    .insert(signature, PhaseRecord::Warming { left: left - 1 });
                None
            }
            Some(PhaseRecord::Warming { .. }) => {
                self.phases.insert(signature, PhaseRecord::ProfilingLarge);
                None
            }
            Some(PhaseRecord::ProfilingLarge) => {
                self.phases
                    .insert(signature, PhaseRecord::ProfilingSmall(profile));
                None
            }
            Some(PhaseRecord::ProfilingSmall(first)) => {
                let policy = self.decide(first, &profile);
                self.phases.insert(signature, PhaseRecord::Decided(policy));
                self.stats.decided += 1;
                Some(policy)
            }
            _ => None,
        }
    }

    /// Notes that a profiling window was polluted by a phase change and
    /// its measurement discarded. The phase re-enters profiling from
    /// scratch the next time it recurs — unless it has been interrupted
    /// too many times (a transient/boundary phase), in which case it is
    /// decided as `fallback`: the policy that was in force when its
    /// profiling began, so boundary windows between stable phases stop
    /// toggling units.
    pub fn discard_profile(&mut self, signature: PhaseSignature, fallback: GatingPolicy) {
        self.stats.profiles_discarded += 1;
        if !matches!(
            self.phases.get(&signature),
            Some(
                PhaseRecord::Warming { .. }
                    | PhaseRecord::ProfilingLarge
                    | PhaseRecord::ProfilingSmall(_)
            )
        ) {
            return;
        }
        let attempts = self.attempts.entry(signature).or_insert(0);
        *attempts += 1;
        if *attempts >= self.max_profile_attempts {
            // If the first (large-BPU) window was measured, its VPU and
            // MLC criticalities are valid — decide from the partial data,
            // conservatively keeping the large BPU as `fallback` has it.
            let policy = match self.phases.get(&signature) {
                Some(PhaseRecord::ProfilingSmall(first)) => {
                    let partial = self.decide(first, first);
                    GatingPolicy {
                        bpu_on: fallback.bpu_on,
                        ..partial
                    }
                }
                _ => fallback,
            };
            self.phases.insert(signature, PhaseRecord::Decided(policy));
            self.stats.decided += 1;
        } else {
            self.phases
                .insert(signature, self.fresh_profiling_record(true));
        }
    }

    /// Serializes the CDE's memory-backed phase store: per-phase records
    /// and interrupted-attempt counts (both sorted by signature for a
    /// deterministic encoding) plus statistics. Thresholds and profiling
    /// parameters are config-derived and not written.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        let mut phases: Vec<(&PhaseSignature, &PhaseRecord)> = self.phases.iter().collect();
        phases.sort_unstable_by_key(|(sig, _)| **sig);
        w.put_usize(phases.len());
        for (sig, record) in phases {
            sig.snapshot_to(w);
            match record {
                PhaseRecord::Warming { left } => {
                    w.put_u8(0);
                    w.put_u32(*left);
                }
                PhaseRecord::ProfilingLarge => w.put_u8(1),
                PhaseRecord::ProfilingSmall(p) => {
                    w.put_u8(2);
                    for v in [
                        p.instructions,
                        p.vec_ops,
                        p.branches,
                        p.mispredicts,
                        p.mlc_accesses,
                        p.mlc_hits,
                    ] {
                        w.put_u64(v);
                    }
                }
                PhaseRecord::Decided(policy) => {
                    w.put_u8(3);
                    w.put_u8(policy.bits());
                }
            }
        }
        let mut attempts: Vec<(&PhaseSignature, &u32)> = self.attempts.iter().collect();
        attempts.sort_unstable_by_key(|(sig, _)| **sig);
        w.put_usize(attempts.len());
        for (sig, count) in attempts {
            sig.snapshot_to(w);
            w.put_u32(*count);
        }
        w.put_u64(self.stats.new_phases);
        w.put_u64(self.stats.decided);
        w.put_u64(self.stats.reregistered);
        w.put_u64(self.stats.profiles_discarded);
    }

    /// Restores state written by [`Cde::snapshot_to`] in place.
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated or a phase record has an unknown tag.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        let phase_count = r.take_usize()?;
        self.phases.clear();
        for _ in 0..phase_count {
            let sig = PhaseSignature::restore_from(r)?;
            let record = match r.take_u8()? {
                0 => PhaseRecord::Warming {
                    left: r.take_u32()?,
                },
                1 => PhaseRecord::ProfilingLarge,
                2 => PhaseRecord::ProfilingSmall(WindowProfile {
                    instructions: r.take_u64()?,
                    vec_ops: r.take_u64()?,
                    branches: r.take_u64()?,
                    mispredicts: r.take_u64()?,
                    mlc_accesses: r.take_u64()?,
                    mlc_hits: r.take_u64()?,
                }),
                3 => PhaseRecord::Decided(GatingPolicy::from_bits(r.take_u8()?)),
                _ => {
                    return Err(powerchop_checkpoint::CheckpointError::Malformed {
                        what: "unknown CDE phase record tag",
                    })
                }
            };
            self.phases.insert(sig, record);
        }
        let attempt_count = r.take_usize()?;
        self.attempts.clear();
        for _ in 0..attempt_count {
            let sig = PhaseSignature::restore_from(r)?;
            let count = r.take_u32()?;
            self.attempts.insert(sig, count);
        }
        self.stats.new_phases = r.take_u64()?;
        self.stats.decided = r.take_u64()?;
        self.stats.reregistered = r.take_u64()?;
        self.stats.profiles_discarded = r.take_u64()?;
        Ok(())
    }

    /// Scores unit criticality and assigns the phase's gating policy
    /// (paper §IV-C2). `first` was measured with everything fully powered
    /// (large BPU); `second` with the small BPU active.
    #[must_use]
    pub fn decide(&self, first: &WindowProfile, second: &WindowProfile) -> GatingPolicy {
        let t = &self.thresholds;
        let insts = first.instructions.max(1) as f64;

        let criticality_vpu = first.vec_ops as f64 / insts;
        let vpu_on = criticality_vpu > t.vpu;

        let criticality_bpu = second.mispredict_rate() - first.mispredict_rate();
        let bpu_on = criticality_bpu > t.bpu;

        let criticality_mlc = first.mlc_hits as f64 / insts;
        let mlc = if criticality_mlc > t.mlc_high {
            MlcWayState::Full
        } else if criticality_mlc <= t.mlc_low {
            MlcWayState::One
        } else if self.extended_mlc && criticality_mlc <= (t.mlc_high * t.mlc_low).sqrt() {
            // Extended 4th state: the lower part of the intermediate
            // band keeps a quarter of the ways.
            MlcWayState::Quarter
        } else {
            MlcWayState::Half
        };

        GatingPolicy {
            vpu_on,
            bpu_on,
            mlc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_bt::TranslationId;

    fn sig(i: u32) -> PhaseSignature {
        PhaseSignature::new(&[TranslationId(i)])
    }

    fn profile(insts: u64, vec: u64, branches: u64, misp: u64, hits: u64) -> WindowProfile {
        WindowProfile {
            instructions: insts,
            vec_ops: vec,
            branches,
            mispredicts: misp,
            mlc_accesses: hits,
            mlc_hits: hits,
        }
    }

    #[test]
    fn vector_dense_phase_keeps_vpu() {
        let cde = Cde::new(Thresholds::default());
        let dense = profile(10_000, 3_000, 100, 1, 0);
        let p = cde.decide(&dense, &dense);
        assert!(p.vpu_on);
    }

    #[test]
    fn sparse_vector_phase_gates_vpu() {
        let cde = Cde::new(Thresholds::default());
        // 5 vector ops in 10k instructions: below the 1% threshold but
        // non-zero — exactly the case timeouts cannot exploit.
        let sparse = profile(10_000, 5, 100, 1, 0);
        assert!(!cde.decide(&sparse, &sparse).vpu_on);
    }

    #[test]
    fn bpu_gated_when_small_predictor_is_as_good() {
        let cde = Cde::new(Thresholds::default());
        let large = profile(10_000, 0, 1_000, 20, 0); // 2% mispredicts
        let small = profile(10_000, 0, 1_000, 24, 0); // 2.4%: only +0.4pp
        assert!(!cde.decide(&large, &small).bpu_on);
    }

    #[test]
    fn bpu_kept_when_large_predictor_wins() {
        let cde = Cde::new(Thresholds::default());
        let large = profile(10_000, 0, 1_000, 50, 0); // 5%
        let small = profile(10_000, 0, 1_000, 450, 0); // 45%
        assert!(cde.decide(&large, &small).bpu_on);
    }

    #[test]
    fn mlc_three_way_decision() {
        let cde = Cde::new(Thresholds::default());
        let hot = profile(10_000, 0, 0, 0, 1_000); // 10% hit density
        let warm = profile(10_000, 0, 0, 0, 50); // 0.5%
        let cold = profile(10_000, 0, 0, 0, 2); // 0.02%
        assert_eq!(cde.decide(&hot, &hot).mlc, MlcWayState::Full);
        assert_eq!(cde.decide(&warm, &warm).mlc, MlcWayState::Half);
        assert_eq!(cde.decide(&cold, &cold).mlc, MlcWayState::One);
    }

    #[test]
    fn extended_mlc_states_split_the_middle_band() {
        let base = Cde::new(Thresholds::default());
        let ext = Cde::new(Thresholds::default()).with_extended_mlc_states(true);
        // Low-middle band: 0.2% hit density (between 0.1% and sqrt(0.1%*1%)).
        let low_mid = profile(10_000, 0, 0, 0, 20);
        assert_eq!(base.decide(&low_mid, &low_mid).mlc, MlcWayState::Half);
        assert_eq!(ext.decide(&low_mid, &low_mid).mlc, MlcWayState::Quarter);
        // High-middle band: 0.5% stays Half in both.
        let high_mid = profile(10_000, 0, 0, 0, 50);
        assert_eq!(base.decide(&high_mid, &high_mid).mlc, MlcWayState::Half);
        assert_eq!(ext.decide(&high_mid, &high_mid).mlc, MlcWayState::Half);
        // Extremes unchanged.
        let hot = profile(10_000, 0, 0, 0, 1_000);
        assert_eq!(ext.decide(&hot, &hot).mlc, MlcWayState::Full);
        let cold = profile(10_000, 0, 0, 0, 2);
        assert_eq!(ext.decide(&cold, &cold).mlc, MlcWayState::One);
    }

    #[test]
    fn aggressive_thresholds_gate_more() {
        let default = Cde::new(Thresholds::default());
        let aggressive = Cde::new(Thresholds::aggressive());
        // 3% SIMD density: critical under defaults, gated aggressively.
        let w = profile(10_000, 300, 1_000, 100, 300);
        assert!(default.decide(&w, &w).vpu_on);
        assert!(!aggressive.decide(&w, &w).vpu_on);
    }

    #[test]
    fn algorithm1_new_phase_flow() {
        // No warm-up: the strict two-window flow of the paper.
        let mut cde = Cde::with_config(Thresholds::default(), 0, 4);
        // New phase: PVT miss starts profiling.
        assert!(cde.on_pvt_miss(sig(1), true).is_none());
        assert_eq!(cde.record(sig(1)), Some(PhaseRecord::ProfilingLarge));
        // First window measured: still no policy.
        let w = profile(10_000, 5_000, 100, 1, 500);
        assert!(cde.on_profile_window(sig(1), w).is_none());
        // Second window: decided.
        let policy = cde.on_profile_window(sig(1), w).expect("decided");
        assert!(policy.vpu_on);
        assert_eq!(cde.record(sig(1)), Some(PhaseRecord::Decided(policy)));
        assert_eq!(cde.stats().new_phases, 1);
        assert_eq!(cde.stats().decided, 1);
    }

    #[test]
    fn warmup_windows_are_discarded_before_measurement() {
        let mut cde = Cde::with_config(Thresholds::default(), 2, 4);
        cde.on_pvt_miss(sig(9), true);
        assert_eq!(cde.record(sig(9)), Some(PhaseRecord::Warming { left: 2 }));
        // Two cold windows with zero hits are discarded...
        let cold = profile(10_000, 0, 0, 0, 0);
        assert!(cde.on_profile_window(sig(9), cold).is_none());
        assert!(cde.on_profile_window(sig(9), cold).is_none());
        assert_eq!(cde.record(sig(9)), Some(PhaseRecord::ProfilingLarge));
        // ...then two warm windows decide the policy from warm data.
        let warm = profile(10_000, 0, 0, 0, 500);
        assert!(cde.on_profile_window(sig(9), warm).is_none());
        let policy = cde.on_profile_window(sig(9), warm).unwrap();
        assert_eq!(policy.mlc, MlcWayState::Full);
    }

    #[test]
    fn algorithm1_evicted_phase_reregisters() {
        let mut cde = Cde::with_config(Thresholds::default(), 0, 4);
        cde.on_pvt_miss(sig(2), true);
        let w = profile(10_000, 0, 0, 0, 0);
        cde.on_profile_window(sig(2), w);
        let policy = cde.on_profile_window(sig(2), w).unwrap();
        // Later, after PVT eviction, the same signature misses again:
        assert_eq!(cde.on_pvt_miss(sig(2), true), Some(policy));
        assert_eq!(cde.stats().reregistered, 1);
        assert_eq!(cde.stats().new_phases, 1, "not a new phase");
    }

    #[test]
    fn discarded_profiles_restart() {
        let mut cde = Cde::with_config(Thresholds::default(), 0, 4);
        cde.on_pvt_miss(sig(3), true);
        cde.on_profile_window(sig(3), profile(10, 0, 0, 0, 0));
        assert!(matches!(
            cde.record(sig(3)),
            Some(PhaseRecord::ProfilingSmall(_))
        ));
        cde.discard_profile(sig(3), GatingPolicy::FULL);
        assert_eq!(cde.record(sig(3)), Some(PhaseRecord::ProfilingLarge));
        assert_eq!(cde.stats().profiles_discarded, 1);
    }

    #[test]
    fn transient_phases_are_capped_to_full_power() {
        let mut cde = Cde::with_config(Thresholds::default(), 0, 3);
        cde.on_pvt_miss(sig(4), true);
        for _ in 0..3 {
            cde.discard_profile(sig(4), GatingPolicy::MINIMAL);
        }
        assert_eq!(
            cde.record(sig(4)),
            Some(PhaseRecord::Decided(GatingPolicy::MINIMAL))
        );
        assert_eq!(cde.stats().profiles_discarded, 3);
        // Further misses re-register the fallback policy.
        assert_eq!(cde.on_pvt_miss(sig(4), true), Some(GatingPolicy::MINIMAL));
    }

    #[test]
    fn zero_branch_windows_do_not_divide_by_zero() {
        let w = profile(100, 0, 0, 0, 0);
        assert_eq!(w.mispredict_rate(), 0.0);
        let cde = Cde::new(Thresholds::default());
        let p = cde.decide(&w, &w);
        assert!(!p.bpu_on);
    }
}
