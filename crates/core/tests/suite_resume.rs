//! `check_suite` resumability: interrupting a multi-part benchmark suite
//! at any point and resuming from the reported frontier must visit
//! exactly the executions a straight-through run would have — the
//! partition invariant that makes the evaluation harness's
//! checkpoint/resume exact even for the suite benchmarks.

use std::time::Duration;

use cdsspec_core as spec;
use cdsspec_mc as mc;
use mc::MemOrd::*;
use mc::{Atomic, Config};
use spec::{check_suite, Spec, SuitePart};

fn part_a() {
    let x = Atomic::new(0i64);
    let t = mc::thread::spawn(move || x.store(1, Relaxed));
    let _ = x.load(Relaxed);
    t.join();
}

fn part_b() {
    let x = Atomic::new(0i64);
    let y = Atomic::new(0i64);
    let t1 = mc::thread::spawn(move || x.store(1, Relaxed));
    let t2 = mc::thread::spawn(move || y.store(1, Relaxed));
    let _ = x.load(Relaxed);
    let _ = y.load(Relaxed);
    t1.join();
    t2.join();
}

/// Resume `cut`'s frontier shards under `config` and fold the result onto
/// `cut` — the one resume path.
fn resume(cut: &mc::Stats, config: Config) -> mc::Stats {
    let fresh = check_suite(
        Config {
            resume_shards: cut.shard_frontiers.clone(),
            ..config
        },
        suite(),
    );
    let mut total = cut.clone();
    total.continue_with(fresh);
    total
}

/// A cut-and-resumed suite reports the straight-through suite's counters.
fn assert_same_counts(full: &mc::Stats, total: &mc::Stats, label: &str) {
    let bugs = |s: &mc::Stats| {
        let mut m: Vec<String> = s.bugs.iter().map(|b| b.bug.to_string()).collect();
        m.sort();
        m
    };
    assert_eq!(total.stop, mc::StopReason::Exhausted, "{label}");
    assert!(total.shard_frontiers.is_empty(), "{label}");
    assert_eq!(
        total.executions,
        full.executions,
        "{label}: resumed {} != full {}",
        total.summary(),
        full.summary()
    );
    assert_eq!(total.feasible, full.feasible, "{label}");
    assert_eq!(total.executions_pruned, full.executions_pruned, "{label}");
    assert_eq!(total.rf_classes, full.rf_classes, "{label}");
    assert_eq!(bugs(total), bugs(full), "{label}");
}

/// The raw-atomics closures make no specification calls, so an empty
/// spec sees clean executions and the suite exercises pure exploration.
fn suite() -> Vec<SuitePart<()>> {
    vec![
        (Spec::new("noop", || ()), Box::new(part_a)),
        (Spec::new("noop", || ()), Box::new(part_b)),
    ]
}

#[test]
fn suite_runs_all_parts() {
    let full = check_suite(Config::default(), suite());
    assert_eq!(full.stop, mc::StopReason::Exhausted, "{}", full.summary());
    assert!(full.shard_frontiers.is_empty());
    let a = spec::check(Config::default(), Spec::new("noop", || ()), part_a);
    let b = spec::check(Config::default(), Spec::new("noop", || ()), part_b);
    assert_eq!(full.executions, a.executions + b.executions);
}

/// Cutting the suite at every sampled cap and resuming from the reported
/// frontier partitions the executions exactly, whichever part the cap
/// lands in, at one and two workers.
#[test]
fn suite_partitions_across_any_cut() {
    let full = check_suite(Config::default(), suite());
    let part_a_total = spec::check(Config::default(), Spec::new("noop", || ()), part_a).executions;
    let stride = (full.executions / 8).max(1) as usize;
    // Sampled caps, plus forced cuts inside part A (cap 1) and inside
    // part B (cap just past part A's tree).
    let caps = (1..full.executions)
        .step_by(stride)
        .chain([1, part_a_total + 1])
        .collect::<Vec<_>>();
    for workers in [1, 2] {
        let config = Config {
            workers,
            ..Config::default()
        };
        for &cap in &caps {
            let cut = check_suite(
                Config {
                    max_executions: cap,
                    ..config.clone()
                },
                suite(),
            );
            if cut.stop == mc::StopReason::Exhausted {
                // The per-part cap never fired (each part is under `cap`).
                assert_eq!(cut.executions, full.executions);
                continue;
            }
            assert_eq!(
                cut.stop,
                mc::StopReason::ExecutionCap,
                "cap {cap}: {}",
                cut.summary()
            );
            let part = cut.shard_frontiers[0].script[0];
            assert!(
                cut.shard_frontiers.iter().all(|s| s.script[0] == part),
                "cap {cap}, w{workers}: shards never span parts"
            );
            if workers == 1 {
                // The per-part cap cuts part A only while it is below
                // part A's tree size; at or past it, part A exhausts and
                // part B truncates. (Two workers may overshoot the cap by
                // one execution, which moves the boundary.)
                let expected_part = usize::from(cap >= part_a_total);
                assert_eq!(
                    part, expected_part,
                    "cap {cap} cuts in part {expected_part}"
                );
            }
            let total = resume(&cut, config.clone());
            assert_same_counts(&full, &total, &format!("cap {cap}, w{workers}"));
        }
    }
}

/// A *parallel* suite cut leaves part-prefixed frontier shards in
/// `Stats::shard_frontiers`, and resuming through
/// `Config::resume_shards` partitions the executions exactly — at any
/// worker count on either side of the cut.
#[test]
fn suite_parallel_cut_resumes_through_shards() {
    let full = check_suite(
        Config {
            workers: 1,
            ..Config::default()
        },
        suite(),
    );
    let part_a_total = spec::check(Config::default(), Spec::new("noop", || ()), part_a).executions;
    // One cap inside part A's tree, one inside part B's.
    for cap in [2, part_a_total + 2] {
        let cut = check_suite(
            Config {
                max_executions: cap,
                workers: 2,
                ..Config::default()
            },
            suite(),
        );
        if cut.stop == mc::StopReason::Exhausted {
            assert_eq!(cut.executions, full.executions);
            continue;
        }
        assert!(
            !cut.shard_frontiers.is_empty(),
            "cap {cap}: a truncated parallel suite leaves shards: {}",
            cut.summary()
        );
        for resume_workers in [1, 2, 3] {
            let config = Config {
                workers: resume_workers,
                ..Config::default()
            };
            let total = resume(&cut, config);
            let label = format!("cap {cap}, resume at {resume_workers} workers");
            assert_same_counts(&full, &total, &label);
        }
    }
}

/// Reads-from equivalence pruning composes with suite shard peeling: a
/// pruned suite reports the same bug set and rf classes as an unpruned
/// one, and a pruned parallel cut resumed through part-prefixed shards
/// still partitions every counter — including `executions_pruned` —
/// exactly.
#[test]
fn suite_rf_pruning_is_sound_across_peeled_shards() {
    let pruned_cfg = || Config {
        rf_prune: true,
        workers: 1,
        ..Config::default()
    };
    let full = check_suite(pruned_cfg(), suite());
    let unpruned = check_suite(
        Config {
            rf_prune: false,
            workers: 1,
            ..Config::default()
        },
        suite(),
    );
    let msgs = |s: &mc::Stats| {
        let mut m: Vec<String> = s.bugs.iter().map(|b| b.bug.to_string()).collect();
        m.sort();
        m
    };
    assert_eq!(
        msgs(&full),
        msgs(&unpruned),
        "pruning changed the suite's bug set"
    );
    assert_eq!(
        full.rf_classes, unpruned.rf_classes,
        "pruning changed the suite's rf classes"
    );
    assert!(
        full.executions < unpruned.executions,
        "pruning did not engage on the suite: {} vs {}",
        full.summary(),
        unpruned.summary()
    );

    // Parallel pruned cut inside part B, resumed through peeled shards.
    let part_a_total = spec::check(pruned_cfg(), Spec::new("noop", || ()), part_a).executions;
    let cut = check_suite(
        Config {
            max_executions: part_a_total + 1,
            workers: 2,
            rf_prune: true,
            ..Config::default()
        },
        suite(),
    );
    if cut.stop == mc::StopReason::Exhausted {
        assert_eq!(cut.executions, full.executions);
        return;
    }
    assert!(!cut.shard_frontiers.is_empty(), "{}", cut.summary());
    let total = resume(
        &cut,
        Config {
            workers: 2,
            rf_prune: true,
            ..Config::default()
        },
    );
    // `assert_same_counts` covers `executions_pruned` and the rf-class
    // union too.
    assert_same_counts(&full, &total, "pruned parallel cut");
}

/// A wall-clock budget of zero stops the suite with a resumable frontier
/// in its first part, and the resumed run completes the tree — at one and
/// two workers.
#[test]
fn suite_deadline_resumes_exactly() {
    let full = check_suite(Config::default(), suite());
    for workers in [1, 2] {
        let config = Config {
            workers,
            ..Config::default()
        };
        let cut = check_suite(
            Config {
                time_budget: Some(Duration::ZERO),
                ..config.clone()
            },
            suite(),
        );
        assert_eq!(cut.stop, mc::StopReason::Deadline, "{}", cut.summary());
        assert!(
            !cut.shard_frontiers.is_empty(),
            "deadline leaves a frontier"
        );
        assert!(
            cut.shard_frontiers.iter().all(|s| s.script[0] == 0),
            "a zero budget stops in the first part"
        );
        let total = resume(&cut, config);
        assert_same_counts(&full, &total, &format!("deadline cut, w{workers}"));
    }
}
