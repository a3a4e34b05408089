//! Edge-case tests for the token-passing runtime: thread limits,
//! truncation, yields, deep spawn chains, nested explorations, harness
//! reuse across explorations, the validating config path, and the
//! resilience layer (watchdog, deadlines, checkpoint/resume).

use std::time::Duration;

use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{mc_assert, Atomic, Config};

/// Exceeding `max_threads` is a reported bug, not a hang.
#[test]
fn max_threads_is_enforced() {
    let config = Config {
        max_threads: 3,
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let mut handles = Vec::new();
        for _ in 0..5 {
            handles.push(mc::thread::spawn(|| {}));
        }
        for h in handles {
            h.join();
        }
    });
    assert!(stats.buggy());
    assert!(stats.bugs[0].bug.to_string().contains("max_threads"));
}

/// `max_executions` truncates and says so. (`workers: 1`: the parallel
/// engine may overshoot the cap by in-flight executions, so the exact
/// count here is a sequential-engine guarantee.)
#[test]
fn truncation_is_reported() {
    // rf-equivalence pruning collapses this program to 3 executions, so
    // the cap sits at 2 to still fire mid-tree.
    let config = Config {
        max_executions: 2,
        workers: 1,
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || x.store(1, Relaxed));
        let _ = x.load(Relaxed);
        let _ = x.load(Relaxed);
        t.join();
    });
    assert!(stats.truncated());
    assert_eq!(stats.stop, mc::StopReason::ExecutionCap);
    assert_eq!(stats.executions, 2);
    assert!(
        !stats.shard_frontiers.is_empty(),
        "a capped run must be resumable"
    );
}

/// `yield_now` is a scheduling point with no memory effect.
#[test]
fn yield_now_works() {
    let stats = mc::explore(Config::validating(), || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            mc::yield_now();
            x.store(1, Relaxed);
        });
        mc::yield_now();
        let _ = x.load(Relaxed);
        t.join();
    });
    assert!(!stats.buggy());
    assert!(stats.feasible >= 2, "yield must create interleavings");
}

/// Deep spawn chains (each thread spawns the next) work and synchronize.
#[test]
fn deep_spawn_chain() {
    mc::model(|| {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            let inner = mc::thread::spawn(move || {
                let inner2 = mc::thread::spawn(move || {
                    x.store(3, Release);
                });
                inner2.join();
            });
            inner.join();
        });
        t.join();
        mc_assert!(x.load(Acquire) == 3);
    });
}

/// A thread that is never joined still finishes and its effects are
/// explorable (the execution completes when all threads finish).
#[test]
fn unjoined_threads_complete() {
    let stats = mc::explore(Config::validating(), || {
        let x = Atomic::new(0i64);
        let h = mc::thread::spawn(move || {
            x.store(1, Relaxed);
        });
        // Deliberately do not join: the handle is consumed via drop.
        let _ = h.tid();
        #[allow(clippy::mem_forget)]
        drop(h);
        let _ = x.load(Relaxed);
    });
    assert!(!stats.buggy());
    assert!(
        stats.feasible >= 2,
        "store may land before or after the load"
    );
}

/// The same process can run many explorations back-to-back (pooled fiber
/// stacks and panic hooks don't leak state across runs).
#[test]
fn repeated_explorations_are_independent() {
    for round in 0..5 {
        let stats = mc::explore(Config::default(), move || {
            let x = Atomic::new(round as i64);
            mc_assert!(x.load(Relaxed) == round as i64);
        });
        assert_eq!(stats.executions, 1);
        assert!(!stats.buggy());
    }
}

/// Two explorations in parallel from different OS threads don't interfere
/// (thread-local contexts are per-worker).
#[test]
fn parallel_explorations() {
    let h1 = std::thread::spawn(|| {
        mc::model(|| {
            let x = Atomic::new(1i64);
            mc_assert!(x.load(Relaxed) == 1);
        })
    });
    let h2 = std::thread::spawn(|| {
        mc::model(|| {
            let y = Atomic::new(2i64);
            mc_assert!(y.load(Relaxed) == 2);
        })
    });
    h1.join().unwrap();
    h2.join().unwrap();
}

/// An exploration started from inside a modeled thread runs to completion
/// on its own host and leaves the outer exploration untouched.
#[test]
fn nested_exploration_inside_a_modeled_thread() {
    let inner_runs = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let record = std::sync::Arc::clone(&inner_runs);
    let outer = mc::explore(Config::default(), move || {
        let inner = mc::explore(Config::default(), || {
            let data = Atomic::new(0i64);
            let flag = Atomic::new(0i64);
            let t = mc::thread::spawn(move || {
                data.store(42, Relaxed);
                flag.store(1, Release);
            });
            if flag.load(Acquire) == 1 {
                mc_assert!(data.load(Relaxed) == 42);
            }
            t.join();
        });
        record
            .lock()
            .unwrap()
            .push((inner.executions, inner.buggy()));
    });
    assert!(!outer.buggy(), "{:?}", outer.bugs);
    let inner_runs = inner_runs.lock().unwrap();
    assert!(!inner_runs.is_empty(), "the inner exploration never ran");
    for &(executions, buggy) in inner_runs.iter() {
        assert!(
            executions >= 2,
            "inner run explored {executions} executions"
        );
        assert!(!buggy, "inner release/acquire program reported a bug");
    }
}

/// A branchy but tiny workload shared by the resilience tests: two
/// storer threads racing two loads gives a choice tree of a few dozen
/// leaves — big enough to interrupt, small enough to exhaust instantly.
fn branchy_workload() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || x.store(1, Relaxed));
    let t2 = mc::thread::spawn(move || y.store(1, Relaxed));
    let _ = x.load(Relaxed);
    let _ = y.load(Relaxed);
    t1.join();
    t2.join();
}

/// A deliberately wedged modeled thread (never reaches another visible
/// operation) no longer hangs exploration: the watchdog aborts the
/// execution and reports `Bug::InternalHang`.
#[test]
fn watchdog_aborts_wedged_thread() {
    let config = Config {
        hang_timeout: Some(Duration::from_millis(200)),
        ..Config::default()
    };
    let stats = mc::explore(config, || {
        let x = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            x.store(1, Relaxed);
            // Wedge: user code that never returns and never performs
            // another visible operation.
            loop {
                std::thread::park();
            }
        });
        let _ = x.load(Relaxed);
        t.join();
    });
    assert!(
        stats.buggy(),
        "wedged thread must be reported: {}",
        stats.summary()
    );
    let hang = stats
        .bugs
        .iter()
        .find(|b| matches!(b.bug, mc::Bug::InternalHang { .. }));
    let hang = hang.expect("expected an InternalHang bug");
    assert_eq!(hang.bug.category(), mc::BugCategory::BuiltIn);
    assert_eq!(stats.stop, mc::StopReason::FirstBug);
}

/// Resume `cut`'s frontier under `config` and fold the result onto it —
/// the one resume path (`Config::resume_shards` + `Stats::continue_with`).
fn resume(cut: &mc::Stats, config: Config) -> mc::Stats {
    let fresh = mc::explore(
        Config {
            resume_shards: cut.shard_frontiers.clone(),
            ..config
        },
        branchy_workload,
    );
    let mut total = cut.clone();
    total.continue_with(fresh);
    total
}

fn bug_set(stats: &mc::Stats) -> std::collections::BTreeSet<String> {
    stats.bugs.iter().map(|b| b.bug.to_string()).collect()
}

/// A cut-and-resumed run reports the straight-through run's counters.
fn assert_same_counts(full: &mc::Stats, resumed: &mc::Stats, label: &str) {
    assert_eq!(resumed.stop, mc::StopReason::Exhausted, "{label}");
    assert!(resumed.shard_frontiers.is_empty(), "{label}");
    assert_eq!(resumed.executions, full.executions, "{label}");
    assert_eq!(resumed.feasible, full.feasible, "{label}");
    assert_eq!(resumed.diverged, full.diverged, "{label}");
    assert_eq!(resumed.sleep_pruned, full.sleep_pruned, "{label}");
    assert_eq!(resumed.executions_pruned, full.executions_pruned, "{label}");
    assert_eq!(resumed.rf_classes, full.rf_classes, "{label}");
    assert_eq!(bug_set(resumed), bug_set(full), "{label}");
}

/// Deadline expiry stops between executions with a resumable frontier,
/// and resuming reproduces the straight-through run's aggregate counts
/// exactly — including through the text serialization round trip — at
/// one and two workers on either side of the cut.
#[test]
fn deadline_expiry_reports_and_resumes() {
    let full = mc::explore(Config::default(), branchy_workload);
    assert_eq!(full.stop, mc::StopReason::Exhausted);
    assert!(full.shard_frontiers.is_empty());
    assert!(
        full.executions > 4,
        "workload too small to interrupt: {}",
        full.summary()
    );

    for workers in [1, 2] {
        let config = Config {
            workers,
            ..Config::default()
        };
        let cut = mc::explore(
            Config {
                time_budget: Some(Duration::ZERO),
                ..config.clone()
            },
            branchy_workload,
        );
        assert_eq!(cut.stop, mc::StopReason::Deadline);
        assert!(cut.executions < full.executions);
        assert!(
            !cut.shard_frontiers.is_empty(),
            "deadline leaves a frontier"
        );

        // Round-trip the checkpoint through its text form, as the bench
        // binaries do across process restarts.
        let back = mc::Checkpoint::from_text(&mc::Checkpoint::to_text(&cut)).expect("serializable");
        let resumed = resume(&back, config);
        assert_same_counts(&full, &resumed, &format!("deadline cut, w{workers}"));
    }
}

/// An execution-capped run resumes through `Config::resume_shards` —
/// the channel APIs that only accept a `Config` (the benchmark
/// registry's `check` fn pointers) use; executions partition exactly.
#[test]
fn capped_run_resumes_through_config() {
    let full = mc::explore(Config::default(), branchy_workload);
    for workers in [1, 2] {
        let config = Config {
            workers,
            ..Config::default()
        };
        let cut = mc::explore(
            Config {
                max_executions: 2,
                ..config.clone()
            },
            branchy_workload,
        );
        assert_eq!(cut.stop, mc::StopReason::ExecutionCap);
        assert_same_counts(&full, &resume(&cut, config), &format!("cap 2, w{workers}"));
    }
}

/// Resumed elapsed time accumulates the checkpoint's *active*
/// exploration time plus the resumed run's own — never the wall-clock
/// age of the checkpoint. A checkpoint written an hour before resumption
/// must not inflate `Stats::elapsed` (and through it the figure7/figure8
/// exec/s summaries) by that hour.
#[test]
fn resume_elapsed_excludes_suspension_gap() {
    let cut = mc::explore(
        Config {
            max_executions: 2,
            workers: 1,
            ..Config::default()
        },
        branchy_workload,
    );
    // Round-trip through the text form, as the harness binaries do, and
    // simulate a long suspension by aging the stored active time: the
    // resumed total must sit just above it, proving the resumed run adds
    // only its own active time on top of what the checkpoint recorded.
    let mut back = mc::Checkpoint::from_text(&mc::Checkpoint::to_text(&cut)).expect("serializable");
    assert_eq!(back.elapsed, cut.elapsed, "elapsed survives the text form");
    let hour = Duration::from_secs(3600);
    back.elapsed = hour;
    let resumed = resume(&back, Config::default());
    assert!(resumed.elapsed >= hour, "{:?}", resumed.elapsed);
    assert!(
        resumed.elapsed < hour + Duration::from_secs(60),
        "resume added wall-clock beyond its own active time: {:?}",
        resumed.elapsed
    );
}

/// Stats bookkeeping: executions = feasible + diverged + sleep-pruned.
#[test]
fn stats_partition_executions() {
    let stats = mc::explore(Config::validating(), || {
        let x = Atomic::new(0i64);
        let y = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            x.store(1, Release);
            y.store(1, Release);
        });
        let _ = y.load(Acquire);
        let _ = x.load(Acquire);
        t.join();
    });
    assert!(!stats.buggy());
    assert_eq!(
        stats.executions,
        stats.feasible + stats.diverged + stats.sleep_pruned,
        "{}",
        stats.summary()
    );
}
