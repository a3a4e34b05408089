//! The fiber host must walk one fixed DFS, whatever its configuration.
//!
//! Every modeled thread of an execution runs on a userspace fiber of the
//! explorer's OS thread (`crate::fiber`); with a hang watchdog configured
//! the stall detection runs on a monitor thread, and with several workers
//! each shard explorer hosts its own fibers. None of that may change what
//! is explored: same executions in the same DFS order, same per-execution
//! traces, same bugs, same prune counters.
//!
//! Two kinds of test pin this:
//!
//! * proptests compare the fiber variants against each other on random
//!   weakly-ordered programs: watchdog-free against watchdog-on, and two
//!   shard workers against one;
//! * golden tests compare against outputs frozen from a build that still
//!   had a second host (pooled OS threads parked on condvars) and on which
//!   both hosts produced them byte for byte: a fixed-seed corpus of random
//!   programs (`tests/golden/fiber_corpus.txt`, each program's counters
//!   and per-execution rf-signature sequence) and the rendered results of
//!   the bug paths below — user panics (unwinds through a fiber root),
//!   divergence bounds, and watchdog hang injection.
//!
//! A golden mismatch writes the actual rendering next to the test
//! binary's scratch directory (`CARGO_TARGET_TMPDIR`) so it can be
//! diffed against the committed file.

use std::sync::{Arc, Mutex};

use cdsspec_c11::{relations, Trace};
use cdsspec_mc as mc;
use mc::MemOrd::{self, *};
use mc::{Atomic, Bug, Config, Plugin};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A step of a random program (mirrors `proptest_lockstep`).
#[derive(Clone, Copy, Debug)]
enum Step {
    Load(usize),
    Store(usize, i64),
    FetchAdd(usize, i64),
    Cas(usize, i64, i64),
    Fence,
}

type Program = Vec<Vec<(Step, MemOrd)>>;

const ORDS: [MemOrd; 5] = [Relaxed, Acquire, Release, AcqRel, SeqCst];

fn ord_strategy() -> impl Strategy<Value = MemOrd> {
    prop_oneof![
        Just(Relaxed),
        Just(Acquire),
        Just(Release),
        Just(AcqRel),
        Just(SeqCst),
    ]
}

fn step_strategy(locs: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..locs).prop_map(Step::Load),
        (0..locs, 1..6i64).prop_map(|(l, v)| Step::Store(l, v)),
        (0..locs, 1..3i64).prop_map(|(l, v)| Step::FetchAdd(l, v)),
        (0..locs, 0..6i64, 1..6i64).prop_map(|(l, e, n)| Step::Cas(l, e, n)),
        Just(Step::Fence),
    ]
}

fn program_strategy(threads: usize, steps: usize, locs: usize) -> impl Strategy<Value = Program> {
    prop::collection::vec(
        prop::collection::vec((step_strategy(locs), ord_strategy()), 1..=steps),
        1..=threads,
    )
}

/// Seeded counterpart of `program_strategy` for the golden corpus: the
/// same shape and value ranges, drawn from a fixed `StdRng` stream so the
/// corpus never changes.
fn seeded_program(rng: &mut StdRng, threads: usize, steps: usize, locs: usize) -> Program {
    (0..rng.gen_range(1..=threads))
        .map(|_| {
            (0..rng.gen_range(1..=steps))
                .map(|_| {
                    let step = match rng.gen_range(0..5u32) {
                        0 => Step::Load(rng.gen_range(0..locs)),
                        1 => Step::Store(rng.gen_range(0..locs), rng.gen_range(1..6i64)),
                        2 => Step::FetchAdd(rng.gen_range(0..locs), rng.gen_range(1..3i64)),
                        3 => Step::Cas(
                            rng.gen_range(0..locs),
                            rng.gen_range(0..6i64),
                            rng.gen_range(1..6i64),
                        ),
                        _ => Step::Fence,
                    };
                    (step, ORDS[rng.gen_range(0..ORDS.len())])
                })
                .collect()
        })
        .collect()
}

fn legal_ord(step: Step, ord: MemOrd) -> MemOrd {
    match step {
        Step::Load(_) => match ord {
            Release | AcqRel => Acquire,
            o => o,
        },
        Step::Store(..) => match ord {
            Acquire | AcqRel => Release,
            o => o,
        },
        _ => ord,
    }
}

fn interp(steps: &[(Step, MemOrd)], cells: &[Atomic<i64>]) {
    for &(step, ord) in steps {
        let ord = legal_ord(step, ord);
        match step {
            Step::Load(l) => {
                cells[l].load(ord);
            }
            Step::Store(l, v) => cells[l].store(v, ord),
            Step::FetchAdd(l, v) => {
                cells[l].fetch_add(v, ord);
            }
            Step::Cas(l, e, n) => {
                let fail = ord.weaken_load().unwrap_or(Relaxed);
                let _ = cells[l].compare_exchange(e, n, ord, fail);
            }
            Step::Fence => mc::fence(ord),
        }
    }
}

fn modeled_closure(prog: Arc<Program>, locs: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let cells: Vec<Atomic<i64>> = (0..locs).map(|_| Atomic::new(0)).collect();
        let mut handles = Vec::new();
        for steps in prog.iter().skip(1) {
            let steps = steps.clone();
            let cells = cells.clone();
            handles.push(mc::thread::spawn(move || {
                interp(&steps, &cells);
            }));
        }
        interp(&prog[0], &cells);
        for h in handles {
            h.join();
        }
    }
}

/// Records the rf signature of every feasible execution, in the order the
/// explorer produced them — a fingerprint of the entire DFS trajectory.
struct SigLog(Arc<Mutex<Vec<u64>>>);

impl Plugin for SigLog {
    fn name(&self) -> &'static str {
        "siglog"
    }
    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        self.0.lock().unwrap().push(relations::rf_signature(trace));
        Vec::new()
    }
}

/// The watchdog-free fiber host. One worker whatever `CDSSPEC_WORKERS`
/// says: the goldens record the sequential DFS order.
fn fiber_config() -> Config {
    Config {
        max_executions: 300_000,
        hang_timeout: None,
        workers: 1,
        ..Config::default()
    }
}

/// The *default*-shaped fiber host: watchdog on, stall detection on the
/// monitor thread.
fn fiber_watchdog_config() -> Config {
    Config {
        hang_timeout: Some(std::time::Duration::from_secs(30)),
        ..fiber_config()
    }
}

/// Explore `prog` under `config` and return the deterministic face of the
/// result: the counters plus the per-execution signature sequence.
#[allow(clippy::type_complexity)]
fn run(
    config: Config,
    prog: Arc<Program>,
) -> ((u64, u64, u64, u64, u64, u64), Vec<String>, Vec<u64>) {
    let sigs = Arc::new(Mutex::new(Vec::new()));
    let stats = mc::explore_with_plugins(
        config,
        vec![Box::new(SigLog(Arc::clone(&sigs)))],
        modeled_closure(prog, 2),
    );
    let bugs: Vec<String> = stats.bugs.iter().map(|b| b.bug.to_string()).collect();
    let sigs = Arc::try_unwrap(sigs).unwrap().into_inner().unwrap();
    (
        (
            stats.executions,
            stats.feasible,
            stats.diverged,
            stats.sleep_pruned,
            stats.executions_pruned,
            stats.peak_depth,
        ),
        bugs,
        sigs,
    )
}

/// The deterministic face of an exploration's statistics, one line, with
/// bugs sorted (their discovery order is part of the DFS, but sorting
/// keeps the expectation readable).
fn render(s: &mc::Stats) -> String {
    let mut bugs: Vec<String> = s.bugs.iter().map(|f| f.bug.to_string()).collect();
    bugs.sort();
    format!(
        "executions={} feasible={} diverged={} sleep_pruned={} rf_pruned={} \
         peak_depth={} rf_classes={} bugs={bugs:?}",
        s.executions,
        s.feasible,
        s.diverged,
        s.sleep_pruned,
        s.executions_pruned,
        s.peak_depth,
        s.rf_classes.len(),
    )
}

/// Compare `actual` against the committed golden file `name`; on mismatch
/// save `actual` for diffing and fail.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let out = format!("{}/{name}.actual", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&out, actual).expect("write actual rendering");
        panic!("output differs from {path}; actual saved to {out}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random programs: watchdog-free fibers and watchdog-on fibers (the
    /// `Config::default` shape) walk the identical DFS.
    #[test]
    fn watchdog_on_and_off_fibers_explore_identically(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let fib = run(fiber_config(), Arc::clone(&prog));
        let wd = run(fiber_watchdog_config(), prog);
        prop_assert_eq!(&fib, &wd);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Two workers: each shard explorer hosts its own fibers; the merged
    /// result must match the single-worker host (exhaustive runs are
    /// worker-count independent, so the per-worker signature interleaving
    /// is compared as a multiset).
    #[test]
    fn shard_workers_match_the_sequential_fiber_host(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let (wstats, wbugs, mut wsigs) =
            run(Config { workers: 2, ..fiber_config() }, Arc::clone(&prog));
        let (sstats, sbugs, mut ssigs) = run(Config { workers: 1, ..fiber_config() }, prog);
        wsigs.sort_unstable();
        ssigs.sort_unstable();
        prop_assert_eq!((wstats, wbugs, wsigs), (sstats, sbugs, ssigs));
    }
}

/// Size and seed of the golden corpus.
const CORPUS_PROGRAMS: usize = 100;
const CORPUS_SEED: u64 = 0xF1BE_2017;

/// Explore every corpus program under `config`; one block per program:
/// the program, its counters and bugs, and its rf-signature sequence.
fn render_corpus(config: &Config) -> String {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let mut out = String::new();
    for i in 0..CORPUS_PROGRAMS {
        let prog = seeded_program(&mut rng, 3, 3, 2);
        out.push_str(&format!("program {i}: {prog:?}\n"));
        let (counters, bugs, sigs) = run(config.clone(), Arc::new(prog));
        out.push_str(&format!("  counters {counters:?} bugs {bugs:?}\n  sigs"));
        for s in sigs {
            out.push_str(&format!(" {s:016x}"));
        }
        out.push('\n');
    }
    out
}

/// The fixed-seed corpus explores exactly as the frozen golden says, with
/// and without the watchdog.
#[test]
fn fixed_seed_corpus_matches_golden() {
    let fib = render_corpus(&fiber_config());
    assert_eq!(fib, render_corpus(&fiber_watchdog_config()));
    assert_golden("fiber_corpus.txt", &fib);
}

/// Smallest possible fiber exploration: one modeled thread, no spawns —
/// host→main switch, self-scheduling, finish, exit back to the host.
#[test]
fn a_single_fiber_round_trip() {
    let stats = mc::explore(fiber_config(), || {
        let a = Atomic::new(0i64);
        a.store(1, Relaxed);
        mc::mc_assert!(a.load(Relaxed) == 1);
    });
    assert!(!stats.buggy(), "{:?}", stats.bugs);
    assert_eq!(stats.feasible, 1);
}

/// Single fiber plus the DieMarker abort path (spin divergence, no
/// spawns): unwinding on a fiber stack, then exiting to the host.
#[test]
fn a_single_fiber_die_marker_unwind() {
    let stats = mc::explore(
        Config {
            max_spins: 3,
            ..fiber_config()
        },
        || {
            let a = Atomic::new(0i64);
            while a.load(Relaxed) == 0 {
                mc::spin_loop();
            }
        },
    );
    assert!(stats.diverged > 0, "{}", stats.summary());
}

/// Minimal two-fiber interaction: one spawn, one store, one join.
#[test]
fn a_two_fiber_spawn_join() {
    let stats = mc::explore(fiber_config(), || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            a.store(1, Relaxed);
        });
        t.join();
        mc::mc_assert!(a.load(Relaxed) == 1);
    });
    assert!(!stats.buggy(), "{:?}", stats.bugs);
    assert!(stats.feasible > 0);
}

/// A panic in a *spawned* modeled thread unwinds through a fiber root;
/// the `UserPanic` is reported and the harness stays reusable for the
/// rest of the exploration.
#[test]
fn user_panic_in_child_matches_golden() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            if flag.load(Acquire) == 0 {
                panic!("child died");
            }
            flag.store(2, Release);
        });
        flag.store(1, Release);
        t.join();
    };
    let fib = mc::explore(
        Config {
            stop_on_first_bug: false,
            ..fiber_config()
        },
        body,
    );
    assert_eq!(
        render(&fib),
        "executions=2 feasible=2 diverged=0 sleep_pruned=0 rf_pruned=1 peak_depth=1 rf_classes=1 bugs=[\"panic in T1: child died\"]"
    );
}

/// A thread that panics right after spawning leaves its child *unstarted*
/// at abort time: the child picks up the `Die` only by starting, running
/// user code to its first visible op, and unwinding there. The child's
/// never-consumed reply must not linger after its death — a stale reply
/// for a dead thread once steered the fiber host into a dead stack.
#[test]
fn abort_with_unstarted_child_drains_cleanly() {
    let body = || {
        let a = Atomic::new(0i64);
        let t = mc::thread::spawn(move || {
            a.store(1, Relaxed);
        });
        let _ = t.tid();
        panic!("parent died with an unstarted child");
    };
    let fib = mc::explore(fiber_config(), body);
    assert_eq!(
        render(&fib),
        "executions=1 feasible=1 diverged=0 sleep_pruned=0 rf_pruned=0 peak_depth=0 rf_classes=0 bugs=[\"panic in T0: parent died with an unstarted child\"]"
    );
}

/// Spin-bound divergence: the `DieMarker` abort path unwinds every live
/// fiber in turn, and the run terminates with the frozen counters.
#[test]
fn divergence_abort_drains_fibers() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            while flag.load(Acquire) == 0 {
                mc::spin_loop();
            }
        });
        flag.store(1, Release);
        t.join();
    };
    let fib = mc::explore(
        Config {
            max_spins: 3,
            ..fiber_config()
        },
        body,
    );
    assert_eq!(
        render(&fib),
        "executions=8 feasible=4 diverged=1 sleep_pruned=3 rf_pruned=5 peak_depth=7 rf_classes=4 bugs=[]"
    );
}

/// Hang injection: one rf-branch of the program wedges forever. The
/// monitor thread preempts the wedged fiber with a signal and the
/// explorer drains in place. The `InternalHang` rendering is built from
/// the configured limit and the deterministic trace, never from measured
/// time, so the whole result — including the exploration of the
/// remaining branches — matches the frozen golden.
#[test]
fn injected_hang_matches_golden_and_exploration_continues() {
    let body = || {
        let flag = Atomic::new(0i32);
        let t = mc::thread::spawn(move || {
            flag.store(1, Release);
        });
        if flag.load(Acquire) == 1 {
            // Wedge: no visible op, no progress hint — only the watchdog
            // can end this branch.
            loop {
                std::thread::park();
            }
        }
        t.join();
    };
    let fib = mc::explore(
        Config {
            hang_timeout: Some(std::time::Duration::from_millis(300)),
            stop_on_first_bug: false,
            ..fiber_watchdog_config()
        },
        body,
    );
    assert_eq!(
        render(&fib),
        "executions=2 feasible=2 diverged=0 sleep_pruned=0 rf_pruned=1 peak_depth=1 rf_classes=1 bugs=[\"internal hang: no scheduling progress for 300 ms (T0 wedged after e4:Load@T0)\"]"
    );
}

/// Deeper thread fan-out than the default probe programs: exercises fiber
/// stack pooling and reuse across many executions in one exploration.
#[test]
fn many_threads_on_pooled_stacks() {
    let body = || {
        let c = Atomic::new(0i64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                mc::thread::spawn(move || {
                    c.fetch_add(1, AcqRel);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        mc::mc_assert!(c.load(Acquire) == 4);
    };
    let fib = mc::explore(fiber_config(), body);
    assert_eq!(
        render(&fib),
        "executions=60 feasible=24 diverged=0 sleep_pruned=36 rf_pruned=0 peak_depth=6 rf_classes=24 bugs=[]"
    );
}
