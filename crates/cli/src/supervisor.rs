//! The `serve --supervised` self-healing loop.
//!
//! A crash-consistent daemon is only half a durability story: someone
//! has to restart it. This module is that someone — a parent process
//! that respawns the daemon after crashes at a bounded rate, using
//! [`powerchop_resilience::RestartTracker`]'s sliding-window policy,
//! and gives up (latched, loudly) on a crash storm instead of melting
//! the host with a respawn loop. Paired with `--journal-dir`, every
//! respawn replays the journal and resumes interrupted work, so the
//! crash-restart cycle converges instead of re-doing the same runs
//! forever.
//!
//! The loop itself is pure control flow over two injected closures
//! (spawn a child, read a clock), so the storm/give-up policy is unit
//! tested without ever forking a process; the production entry point
//! re-invokes the current executable with the parent's own `serve`
//! argv minus the supervision flags, as recorded by the argument
//! parser ([`Supervision::child_argv`]).

use std::time::Instant;

use powerchop_resilience::{RestartPolicy, RestartTracker, RestartVerdict, RetryPolicy};

use crate::CliError;

/// How `serve --supervised` respawns its daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervision {
    /// Crashes tolerated inside the restart window before the
    /// supervisor latches a storm verdict (`--max-restarts`).
    pub max_restarts: u32,
    /// Restart-rate window in milliseconds (`--restart-window-ms`).
    pub restart_window_ms: u64,
    /// Every child generation's argv: the parent's `serve` argv with
    /// `--supervised`, `--max-restarts N` and `--restart-window-ms N`
    /// removed (the child must serve, not supervise).
    pub child_argv: Vec<String>,
}

/// How one supervised child generation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildOutcome {
    /// The daemon exited successfully (in-protocol shutdown drained it).
    Drained,
    /// The daemon died: killed by a signal or exited nonzero. The
    /// string is a human-readable status for the log line.
    Crashed(String),
}

/// How a supervision session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// The daemon drained cleanly after `respawns` crash recoveries.
    Drained {
        /// Crashes survived before the clean exit.
        respawns: u64,
    },
    /// The restart-rate cap latched: the daemon is crashing faster than
    /// the policy tolerates and respawning it would be a fork bomb.
    GaveUp {
        /// Crashes recorded, the last one included.
        crashes: u64,
    },
}

/// The supervision loop, decoupled from process spawning: `spawn` runs
/// one child generation to its end, `now_ms` is the restart-rate clock,
/// `backoff` sleeps between a crash and its respawn (attempt-numbered
/// for seeded jitter). Only `spawn`'s own errors (the binary cannot
/// even be launched) propagate as `Err`.
///
/// # Errors
///
/// Propagates spawn failures verbatim.
pub fn supervise_loop(
    policy: RestartPolicy,
    mut spawn: impl FnMut() -> Result<ChildOutcome, CliError>,
    mut now_ms: impl FnMut() -> u64,
    mut backoff: impl FnMut(u32),
) -> Result<SupervisorVerdict, CliError> {
    let mut tracker = RestartTracker::new(policy);
    let mut attempt = 0u32;
    loop {
        match spawn()? {
            ChildOutcome::Drained => {
                return Ok(SupervisorVerdict::Drained {
                    respawns: tracker.total(),
                });
            }
            ChildOutcome::Crashed(status) => {
                let verdict = tracker.record(now_ms());
                eprintln!(
                    "powerchop-serve[supervisor]: daemon died ({status}); {} crash(es) in window",
                    tracker.in_window()
                );
                if verdict == RestartVerdict::Storm {
                    eprintln!(
                        "powerchop-serve[supervisor]: crash storm — giving up after {} crashes",
                        tracker.total()
                    );
                    return Ok(SupervisorVerdict::GaveUp {
                        crashes: tracker.total(),
                    });
                }
                attempt = attempt.saturating_add(1);
                backoff(attempt);
            }
        }
    }
}

/// The production `serve --supervised` entry point: respawn the real
/// daemon (this very executable, re-invoked) until it drains cleanly or
/// the crash-rate policy gives up.
///
/// # Errors
///
/// Fails when the executable cannot be re-invoked or when supervision
/// ends in a latched give-up.
pub fn serve_supervised(addr: &str, sup: &Supervision) -> Result<(), CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError(format!("--supervised: cannot locate own executable: {e}")))?;
    let policy = RestartPolicy::new(sup.restart_window_ms, sup.max_restarts);
    // Seeded-jitter backoff between respawns: enough to let a transient
    // cause (port teardown, filesystem pressure) clear, deterministic
    // for a given address.
    let retry = RetryPolicy::new(50, 2_000);
    let stream = powerchop_resilience::retry::stream_label(addr);
    let epoch = Instant::now();
    let verdict = supervise_loop(
        policy,
        || {
            let status = std::process::Command::new(&exe)
                .args(&sup.child_argv)
                .status()
                .map_err(|e| CliError(format!("--supervised: cannot spawn daemon: {e}")))?;
            if status.success() {
                Ok(ChildOutcome::Drained)
            } else {
                Ok(ChildOutcome::Crashed(status.to_string()))
            }
        },
        || u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX),
        |attempt| {
            std::thread::sleep(std::time::Duration::from_millis(
                retry.delay_ms(0xD1CE, stream, attempt),
            ));
        },
    )?;
    match verdict {
        SupervisorVerdict::Drained { respawns } => {
            if respawns > 0 {
                println!("powerchop-serve supervisor: drained cleanly after {respawns} respawn(s)");
            }
            Ok(())
        }
        SupervisorVerdict::GaveUp { crashes } => Err(CliError(format!(
            "--supervised: daemon crashed {crashes} time(s), exceeding {} per {}ms; giving up",
            sup.max_restarts, sup.restart_window_ms
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, Command};
    use powerchop_serve::ServerConfig;

    fn policy() -> RestartPolicy {
        RestartPolicy::new(1_000, 2)
    }

    #[test]
    fn clean_exit_ends_supervision_immediately() {
        let mut spawns = 0;
        let verdict = supervise_loop(
            policy(),
            || {
                spawns += 1;
                Ok(ChildOutcome::Drained)
            },
            || 0,
            |_| {},
        )
        .expect("no spawn errors");
        assert_eq!(spawns, 1);
        assert_eq!(verdict, SupervisorVerdict::Drained { respawns: 0 });
    }

    #[test]
    fn crashes_under_the_rate_cap_are_respawned() {
        let mut spawns = 0;
        let mut backoffs = Vec::new();
        let verdict = supervise_loop(
            policy(),
            || {
                spawns += 1;
                Ok(if spawns <= 2 {
                    ChildOutcome::Crashed("signal: 9".into())
                } else {
                    ChildOutcome::Drained
                })
            },
            // Spread the crashes over time so the window never fills.
            {
                let mut clock = 0;
                move || {
                    clock += 10_000;
                    clock
                }
            },
            |attempt| backoffs.push(attempt),
        )
        .expect("no spawn errors");
        assert_eq!(spawns, 3, "two crashes, then the clean generation");
        assert_eq!(verdict, SupervisorVerdict::Drained { respawns: 2 });
        assert_eq!(backoffs, vec![1, 2], "attempt-numbered backoff");
    }

    #[test]
    fn a_crash_storm_latches_give_up() {
        let mut spawns = 0;
        let verdict = supervise_loop(
            policy(),
            || {
                spawns += 1;
                Ok(ChildOutcome::Crashed("exit status: 101".into()))
            },
            || 0, // every crash inside one window
            |_| {},
        )
        .expect("no spawn errors");
        // max_restarts = 2: the third crash inside the window is the storm.
        assert_eq!(verdict, SupervisorVerdict::GaveUp { crashes: 3 });
        assert_eq!(spawns, 3, "no respawn after the storm verdict");
    }

    #[test]
    fn spawn_errors_propagate() {
        let err = supervise_loop(
            policy(),
            || Err(CliError("no such binary".into())),
            || 0,
            |_| {},
        )
        .expect_err("spawn failure is fatal");
        assert!(err.0.contains("no such binary"));
    }

    #[test]
    fn child_argv_strips_supervision_and_keeps_durability() {
        // Every serve flag, each away from its default, with the
        // supervision flags interleaved among them.
        let parent: Vec<String> = "serve --supervised --addr 127.0.0.1:0 --jobs 2 \
             --queue-depth 3 --cache-entries 5 --max-restarts 3 --deadline-ms 9000 \
             --max-request-bytes 4096 --max-budget 500000 --max-connections 7 \
             --read-timeout-ms 1500 --write-timeout-ms 900 --max-outbox-bytes 65536 \
             --chaos-ops --restart-window-ms 5000 --journal-dir wal --cache-dir cache \
             --spill-every 50000 --access-log access.jsonl --slow-ms 250 --seed 42"
            .split_whitespace()
            .map(str::to_owned)
            .collect();
        let Command::Serve {
            cfg,
            supervise: Some(sup),
        } = parse(&parent).expect("parent argv parses")
        else {
            panic!("--supervised must yield a supervised serve command");
        };
        assert_eq!(sup.max_restarts, 3);
        assert_eq!(sup.restart_window_ms, 5_000);
        // Destructured without `..` so that a new config field fails to
        // compile here until this test sets its flag too.
        let d = ServerConfig::default();
        let ServerConfig {
            addr,
            jobs,
            queue_depth,
            cache_entries,
            deadline_ms,
            max_request_bytes,
            max_budget,
            max_connections,
            read_timeout_ms,
            write_timeout_ms,
            max_outbox_bytes,
            chaos_ops,
            journal_dir,
            cache_dir,
            spill_every,
            access_log,
            slow_ms,
            seed,
        } = &cfg;
        let changed = [
            *addr != d.addr,
            *jobs != d.jobs,
            *queue_depth != d.queue_depth,
            *cache_entries != d.cache_entries,
            *deadline_ms != d.deadline_ms,
            *max_request_bytes != d.max_request_bytes,
            *max_budget != d.max_budget,
            *max_connections != d.max_connections,
            *read_timeout_ms != d.read_timeout_ms,
            *write_timeout_ms != d.write_timeout_ms,
            *max_outbox_bytes != d.max_outbox_bytes,
            *chaos_ops != d.chaos_ops,
            *journal_dir != d.journal_dir,
            *cache_dir != d.cache_dir,
            *spill_every != d.spill_every,
            *access_log != d.access_log,
            *slow_ms != d.slow_ms,
            *seed != d.seed,
        ];
        assert!(changed.iter().all(|&c| c), "unset fields: {changed:?}");

        let argv = &sup.child_argv;
        assert_eq!(argv[0], "serve");
        for flag in ["--supervised", "--max-restarts", "--restart-window-ms"] {
            assert!(!argv.iter().any(|a| a == flag), "{flag} in {argv:?}");
        }
        // The child argv must re-parse to the parent's config, unsupervised.
        match parse(argv).expect("child argv parses") {
            Command::Serve {
                cfg: reparsed,
                supervise,
            } => {
                assert_eq!(reparsed, cfg);
                assert_eq!(supervise, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
