//! A seeded socket-level chaos injector.
//!
//! The serve-layer analogue of `crates/faults`: where fault schedules
//! corrupt the *simulation*, this module corrupts the *transport*. A
//! [`ChaosSchedule`] samples one [`ChaosPlan`] per outgoing frame from a
//! SplitMix64 stream — delay it, split it across two writes, flip a byte
//! in it, drop the connection mid-frame, or reset before writing at all
//! — and a [`ChaosStream`] applies those plans to any `Read + Write`
//! transport. Because every decision comes from one `u64` seed, an
//! entire hostile-client storm replays bit-for-bit, which is what lets
//! `tests/chaos_soak.rs` assert exact invariants instead of "it usually
//! survives".
//!
//! The decision logic ([`ChaosSchedule::plan`]) is pure and socket-free,
//! so the action distribution is unit-testable without any I/O.

use std::io::{self, Read, Write};
use std::time::Duration;

use powerchop_faults::SimRng;

/// Per-frame hostility probabilities and bounds.
///
/// The action probabilities (`split_p`, `corrupt_p`, `truncate_p`,
/// `reset_p`) are evaluated as a cumulative roll, so their sum should
/// stay at or below 1.0; whatever is left over delivers the frame
/// intact. `delay_p` is rolled independently and composes with any
/// action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability of sleeping before the frame is written.
    pub delay_p: f64,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Probability of splitting the frame across two writes.
    pub split_p: f64,
    /// Probability of XOR-corrupting one byte of the frame.
    pub corrupt_p: f64,
    /// Probability of dropping the connection mid-frame.
    pub truncate_p: f64,
    /// Probability of resetting before writing anything.
    pub reset_p: f64,
}

impl ChaosConfig {
    /// No hostility at all: every frame delivers intact, immediately.
    #[must_use]
    pub fn honest() -> Self {
        ChaosConfig {
            delay_p: 0.0,
            max_delay_ms: 0,
            split_p: 0.0,
            corrupt_p: 0.0,
            truncate_p: 0.0,
            reset_p: 0.0,
        }
    }

    /// Frequent interference, bounded delays: the soak-test default.
    #[must_use]
    pub fn hostile() -> Self {
        ChaosConfig {
            delay_p: 0.5,
            max_delay_ms: 40,
            split_p: 0.30,
            corrupt_p: 0.20,
            truncate_p: 0.10,
            reset_p: 0.05,
        }
    }
}

/// What happens to one frame (beyond an optional leading delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hostility {
    /// The frame is written intact in one call.
    Deliver,
    /// The frame is written in two pieces with a pause between them.
    SplitWrite {
        /// Byte index of the split point (`0 < at < len`).
        at: usize,
        /// Pause between the two writes, in milliseconds.
        pause_ms: u64,
    },
    /// One byte of the frame is XORed with a non-zero mask.
    Corrupt {
        /// Byte index that is corrupted.
        offset: usize,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
    /// Only a strict prefix is written, then the connection is dropped.
    Truncate {
        /// Bytes written before the drop (`keep < len`).
        keep: usize,
    },
    /// The connection is dropped before anything is written.
    Reset,
}

/// The full decision for one frame: an optional leading delay plus the
/// action applied to the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Milliseconds to sleep before touching the transport.
    pub pre_delay_ms: u64,
    /// What happens to the frame itself.
    pub action: Hostility,
}

/// Counts of every hostility actually applied by a [`ChaosStream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames submitted through the stream.
    pub frames: u64,
    /// Frames preceded by an injected delay.
    pub delays: u64,
    /// Frames written in two pieces.
    pub splits: u64,
    /// Frames with one byte corrupted.
    pub corruptions: u64,
    /// Frames cut off mid-write (connection dropped).
    pub truncations: u64,
    /// Connections reset before the frame was written.
    pub resets: u64,
}

/// A deterministic per-frame plan generator.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    config: ChaosConfig,
    rng: SimRng,
}

impl ChaosSchedule {
    /// A schedule drawing from `seed` under `config`. Equal seeds and
    /// configs yield identical plan sequences on every platform.
    #[must_use]
    pub fn new(config: ChaosConfig, seed: u64) -> Self {
        ChaosSchedule {
            config,
            rng: SimRng::new(seed).fork(0x43_48_41_4f_53), // "CHAOS"
        }
    }

    /// Samples the plan for the next frame of `frame_len` bytes.
    ///
    /// The draw order (delay roll, delay amount, action roll, action
    /// parameters) is fixed; changing it would silently re-seed every
    /// soak test, so it is pinned by `plans_are_reproducible` below.
    pub fn plan(&mut self, frame_len: usize) -> ChaosPlan {
        let pre_delay_ms = if self.rng.gen_bool(self.config.delay_p) {
            1 + self.rng.gen_range(self.config.max_delay_ms.max(1))
        } else {
            0
        };
        let roll = self.rng.gen_f64();
        let c = &self.config;
        let action = if frame_len < 2 {
            // Too short to split, truncate or meaningfully corrupt.
            Hostility::Deliver
        } else if roll < c.reset_p {
            Hostility::Reset
        } else if roll < c.reset_p + c.truncate_p {
            Hostility::Truncate {
                keep: self.rng.gen_range(frame_len as u64 - 1) as usize,
            }
        } else if roll < c.reset_p + c.truncate_p + c.corrupt_p {
            Hostility::Corrupt {
                offset: self.rng.gen_range(frame_len as u64) as usize,
                mask: (1 + self.rng.gen_range(255)) as u8,
            }
        } else if roll < c.reset_p + c.truncate_p + c.corrupt_p + c.split_p {
            Hostility::SplitWrite {
                at: 1 + self.rng.gen_range(frame_len as u64 - 1) as usize,
                pause_ms: 1 + self.rng.gen_range(5),
            }
        } else {
            Hostility::Deliver
        };
        ChaosPlan {
            pre_delay_ms,
            action,
        }
    }
}

/// A `Read + Write` transport with a chaos schedule applied to every
/// outgoing frame. Reads pass through untouched — the daemon's replies
/// are the thing under test, so the injector never masks them.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: Option<S>,
    schedule: ChaosSchedule,
    stats: ChaosStats,
}

impl<S: Read + Write> ChaosStream<S> {
    /// Wraps `inner` with `schedule`.
    #[must_use]
    pub fn new(inner: S, schedule: ChaosSchedule) -> Self {
        ChaosStream {
            inner: Some(inner),
            schedule,
            stats: ChaosStats::default(),
        }
    }

    /// Whether chaos has dropped the connection yet.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.inner.is_some()
    }

    /// The hostilities applied so far.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Unwraps the transport, if chaos has not already dropped it.
    pub fn into_inner(self) -> Option<S> {
        self.inner
    }

    /// Sends one frame through the next chaos plan and returns the
    /// action that was applied.
    ///
    /// After [`Hostility::Truncate`] or [`Hostility::Reset`] the
    /// underlying transport is dropped (closing a `TcpStream`), and
    /// every later call fails with [`io::ErrorKind::NotConnected`].
    pub fn send_frame(&mut self, frame: &[u8]) -> io::Result<Hostility> {
        let plan = self.schedule.plan(frame.len());
        self.stats.frames += 1;
        if plan.pre_delay_ms > 0 {
            self.stats.delays += 1;
            std::thread::sleep(Duration::from_millis(plan.pre_delay_ms));
        }
        let Some(inner) = self.inner.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection already dropped by chaos",
            ));
        };
        match plan.action {
            Hostility::Deliver => {
                inner.write_all(frame)?;
                inner.flush()?;
            }
            Hostility::SplitWrite { at, pause_ms } => {
                self.stats.splits += 1;
                inner.write_all(&frame[..at])?;
                inner.flush()?;
                std::thread::sleep(Duration::from_millis(pause_ms));
                inner.write_all(&frame[at..])?;
                inner.flush()?;
            }
            Hostility::Corrupt { offset, mask } => {
                self.stats.corruptions += 1;
                let mut bytes = frame.to_vec();
                bytes[offset] ^= mask;
                inner.write_all(&bytes)?;
                inner.flush()?;
            }
            Hostility::Truncate { keep } => {
                self.stats.truncations += 1;
                inner.write_all(&frame[..keep])?;
                inner.flush()?;
                self.inner = None;
            }
            Hostility::Reset => {
                self.stats.resets += 1;
                self.inner = None;
            }
        }
        Ok(plan.action)
    }
}

impl<S: Read + Write> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.inner.as_mut() {
            Some(inner) => inner.read(buf),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection already dropped by chaos",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actions(seed: u64, frames: usize) -> Vec<ChaosPlan> {
        let mut sched = ChaosSchedule::new(ChaosConfig::hostile(), seed);
        (0..frames).map(|_| sched.plan(64)).collect()
    }

    #[test]
    fn plans_are_reproducible() {
        assert_eq!(actions(7, 200), actions(7, 200));
        assert_ne!(actions(7, 200), actions(8, 200));
    }

    #[test]
    fn hostile_config_exercises_every_action() {
        let plans = actions(1234, 500);
        let mut seen = [false; 5];
        for p in &plans {
            match p.action {
                Hostility::Deliver => seen[0] = true,
                Hostility::SplitWrite { at, .. } => {
                    assert!(at > 0 && at < 64);
                    seen[1] = true;
                }
                Hostility::Corrupt { offset, mask } => {
                    assert!(offset < 64);
                    assert_ne!(mask, 0);
                    seen[2] = true;
                }
                Hostility::Truncate { keep } => {
                    assert!(keep < 64);
                    seen[3] = true;
                }
                Hostility::Reset => seen[4] = true,
            }
        }
        assert!(seen.iter().all(|&s| s), "missing action in {plans:?}");
        assert!(plans.iter().any(|p| p.pre_delay_ms > 0));
        assert!(plans
            .iter()
            .all(|p| p.pre_delay_ms <= ChaosConfig::hostile().max_delay_ms));
    }

    #[test]
    fn honest_config_always_delivers() {
        let mut sched = ChaosSchedule::new(ChaosConfig::honest(), 99);
        for _ in 0..200 {
            let plan = sched.plan(64);
            assert_eq!(plan.action, Hostility::Deliver);
            assert_eq!(plan.pre_delay_ms, 0);
        }
    }

    #[test]
    fn short_frames_are_delivered_not_mangled() {
        let mut sched = ChaosSchedule::new(ChaosConfig::hostile(), 5);
        for _ in 0..100 {
            assert_eq!(sched.plan(1).action, Hostility::Deliver);
        }
    }

    /// An in-memory transport: writes accumulate, reads drain a canned
    /// reply. Lets the stream wrapper be tested without sockets.
    struct MemPipe {
        written: Vec<u8>,
    }

    impl Read for MemPipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            buf[0] = b'!';
            Ok(1)
        }
    }

    impl Write for MemPipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_applies_plans_and_dies_on_drop_actions() {
        // A config that always resets: first frame kills the transport.
        let cfg = ChaosConfig {
            reset_p: 1.0,
            ..ChaosConfig::honest()
        };
        let mut s = ChaosStream::new(
            MemPipe {
                written: Vec::new(),
            },
            ChaosSchedule::new(cfg, 1),
        );
        assert!(s.alive());
        assert_eq!(
            s.send_frame(b"{\"op\":\"status\"}\n").expect("send"),
            Hostility::Reset
        );
        assert!(!s.alive());
        assert_eq!(s.stats().resets, 1);
        let err = s.send_frame(b"again\n").expect_err("dead transport");
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        let mut buf = [0u8; 4];
        assert!(s.read(&mut buf).is_err());
        assert!(s.into_inner().is_none());
    }

    #[test]
    fn corruption_changes_exactly_one_byte() {
        let cfg = ChaosConfig {
            corrupt_p: 1.0,
            ..ChaosConfig::honest()
        };
        let frame = b"{\"op\":\"status\"}\n";
        let mut s = ChaosStream::new(
            MemPipe {
                written: Vec::new(),
            },
            ChaosSchedule::new(cfg, 3),
        );
        match s.send_frame(frame).expect("send") {
            Hostility::Corrupt { offset, mask } => {
                let pipe = s.into_inner().expect("alive");
                assert_eq!(pipe.written.len(), frame.len());
                let diffs: Vec<usize> = (0..frame.len())
                    .filter(|&i| pipe.written[i] != frame[i])
                    .collect();
                assert_eq!(diffs, vec![offset]);
                assert_eq!(pipe.written[offset], frame[offset] ^ mask);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_writes_a_strict_prefix_then_drops() {
        let cfg = ChaosConfig {
            truncate_p: 1.0,
            ..ChaosConfig::honest()
        };
        let frame = b"{\"op\":\"status\"}\n";
        let mut s = ChaosStream::new(
            MemPipe {
                written: Vec::new(),
            },
            ChaosSchedule::new(cfg, 4),
        );
        match s.send_frame(frame).expect("send") {
            Hostility::Truncate { keep } => {
                assert!(keep < frame.len());
                assert!(!s.alive());
                assert_eq!(s.stats().truncations, 1);
            }
            other => panic!("expected Truncate, got {other:?}"),
        }
    }
}
