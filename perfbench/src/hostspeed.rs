//! A host-speed meter: a fixed miniature interpreter whose CPU time
//! tracks how fast the shared host currently runs code like the
//! simulator's.
//!
//! Other tenants of a shared host slow the CPU itself, through shared
//! cores, caches and clock frequency, in stretches of seconds to
//! minutes, and thread CPU time counts that slowdown in full. The meter
//! runs the same fixed work beside each timed operation, and
//! [`slowdown`] turns its time into the factor by which the host ran the
//! operation slower than a reference host, one that runs the meter in
//! exactly [`NOMINAL_S`]. A time divided by that factor, or a rate
//! multiplied by it, is what the reference host would have measured.
//!
//! Work is not slowed as much as the meter is, but by a power of it,
//! its elasticity, which each workload measured for itself: the slope
//! of the log of its times over the log of the meter's. The meter is
//! this package's own code, so a change to the simulator cannot move
//! it.

use std::hint::black_box;

use crate::cpu_timed;

/// The meter's CPU time, in seconds, on the reference host: about its
/// median on the development host when that host was quiet.
pub const NOMINAL_S: f64 = 0.005;
/// Bytecode length, table size (in `u64`s) and instructions per sample.
const CODE: usize = 4096;
const TABLE: usize = 1 << 18;
const STEPS: usize = 300_000;

/// The meter's fixed program and data.
pub struct Meter {
    code: Vec<(u8, u8, u8)>,
    table: Vec<u64>,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    /// The meter, with a bytecode fixed by a constant seed so that its
    /// work is the same in every run.
    #[must_use]
    pub fn new() -> Self {
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let code = (0..CODE)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as u8, (s >> 8) as u8, (s >> 16) as u8)
            })
            .collect();
        Meter {
            code,
            table: vec![0; TABLE],
        }
    }

    /// Interprets `STEPS` instructions of the bytecode: register
    /// arithmetic, loads and stores into a 2 MiB table and
    /// data-dependent branches, dispatched through a `match`. The table
    /// starts zeroed, so every call does the same work.
    fn work(&mut self) -> u64 {
        self.table.fill(0);
        let mut r = [1u64; 16];
        let mask = self.table.len() - 1;
        let mut pc = 0;
        for _ in 0..STEPS {
            let (op, a, b) = self.code[pc];
            let (a, b) = (usize::from(a) & 15, usize::from(b) & 15);
            match op % 8 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_mul(r[b] | 1),
                2 => r[a] = self.table[(r[b] as usize) & mask],
                3 => self.table[(r[a] as usize) & mask] = r[b],
                4 => r[a] ^= r[b] >> 3,
                5 => {
                    if r[a] & 1 == 0 {
                        pc = (pc + b) % self.code.len();
                    }
                }
                6 => r[a] = r[a].rotate_left(b as u32),
                _ => r[a] = r[a].wrapping_sub(r[b]).wrapping_add(0x9e37),
            }
            pc += 1;
            if pc == self.code.len() {
                pc = 0;
            }
        }
        r.iter().fold(0, |acc, x| acc ^ x)
    }

    /// One sample: the meter's thread CPU time, in seconds.
    ///
    /// # Errors
    ///
    /// As [`crate::thread_cpu_ns`].
    pub fn sample(&mut self) -> Result<f64, String> {
        let (v, s) = cpu_timed(|| self.work())?;
        black_box(v);
        Ok(s)
    }

    /// Runs `f` between two samples of the meter. Returns its result,
    /// its thread CPU time and the geometric mean of the two samples,
    /// in seconds.
    ///
    /// # Errors
    ///
    /// As [`crate::thread_cpu_ns`].
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> Result<(T, f64, f64), String> {
        let before = self.sample()?;
        let (value, s) = cpu_timed(f)?;
        let after = self.sample()?;
        Ok((value, s, (before * after).sqrt()))
    }
}

/// A CPU set as `sched_getaffinity` and `sched_setaffinity` take it:
/// room for 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in increasing order.
///
/// # Errors
///
/// Fails where the affinity mask cannot be read.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable mask of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err("sched_getaffinity failed".to_owned());
    }
    Ok((0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread to `cpu`.
///
/// # Errors
///
/// Fails where the thread may not run on `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    *set.get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is out of range"))? |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid mask of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}

/// The factor by which the host ran work of the given `elasticity`
/// slower than the reference host, given a meter sample of `meter_s`
/// seconds.
#[must_use]
pub fn slowdown(meter_s: f64, elasticity: f64) -> f64 {
    (meter_s / NOMINAL_S).powf(elasticity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_meter_does_the_same_work_every_time() {
        let (mut a, mut b) = (Meter::new(), Meter::new());
        let first = a.work();
        assert_eq!(a.work(), first, "a second call repeats the first");
        assert_eq!(b.work(), first, "another meter repeats it too");
        assert!(a.sample().expect("clock") > 0.0);
    }

    #[test]
    fn slowdown_is_one_at_nominal_and_grows_with_the_elasticity() {
        assert!((slowdown(NOMINAL_S, 2.0) - 1.0).abs() < 1e-12);
        assert!((slowdown(2.0 * NOMINAL_S, 1.0) - 2.0).abs() < 1e-12);
        assert!((slowdown(2.0 * NOMINAL_S, 2.0) - 4.0).abs() < 1e-12);
        assert!(slowdown(NOMINAL_S / 2.0, 2.0) < 1.0);
    }

    #[test]
    fn a_thread_can_be_pinned_to_each_allowed_cpu() {
        std::thread::spawn(|| {
            let cpus = allowed_cpus().expect("affinity mask");
            assert!(!cpus.is_empty());
            for &cpu in &cpus {
                pin_to(cpu).expect("pin");
                assert_eq!(allowed_cpus().expect("affinity mask"), vec![cpu]);
            }
        })
        .join()
        .expect("pinned thread");
    }
}
