//! Lockstep property tests for the incremental trace indexes.
//!
//! The SoA [`Trace`] maintains its derived relations — per-thread event
//! ranges, per-location rf/mo chains, the running rf-signature state, and
//! (when enabled) the sb∪sw adjacency delta — *as events are committed*.
//! The post-hoc derivations they replaced are kept compiled in as
//! reference implementations; these tests pin the two to each other on
//! every feasible execution of random weakly-ordered programs:
//!
//! 1. `relations::rf_signature` (O(n) fold over the incremental state)
//!    must equal `relations::posthoc::rf_signature` (full re-walk);
//! 2. the fast auditor `relations::audit` (trusts clocks and indexes)
//!    must report nothing the full oracle `relations::validate` does not
//!    — and vice versa for the checks both perform;
//! 3. with sw recording on, the committed sb∪sw delta must close to
//!    exactly the happens-before the oracle recomputes from scratch
//!    (`relations::check_sw_delta`).
//!
//! The lockstep plugin rides along a capped-then-resumed exploration and
//! a two-worker (shard-stealing) exploration too: recycled trace buffers
//! and shard-peeled replays are exactly where stale incremental state
//! would hide.

use std::sync::Arc;

use cdsspec_c11::relations;
use cdsspec_c11::Trace;
use cdsspec_mc as mc;
use mc::MemOrd::{self, *};
use mc::{Atomic, Bug, Config, Plugin};
use proptest::prelude::*;

/// A step of a random program.
#[derive(Clone, Copy, Debug)]
enum Step {
    Load(usize),
    Store(usize, i64),
    FetchAdd(usize, i64),
    Cas(usize, i64, i64),
    Fence,
}

type Program = Vec<Vec<(Step, MemOrd)>>;

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

/// Sanitize orderings to what C11 allows per operation kind.
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

/// The lockstep checker: compares incremental results against the
/// retained post-hoc derivations on every feasible trace and reports any
/// divergence as a plugin bug (so it surfaces through `stats.bugs`).
struct Lockstep;

impl Plugin for Lockstep {
    fn name(&self) -> &'static str {
        "lockstep"
    }

    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        let mut bugs = Vec::new();
        let bug = |message: String| Bug::Plugin {
            plugin: "lockstep",
            message,
        };

        let inc = relations::rf_signature(trace);
        let post = relations::posthoc::rf_signature(trace);
        if inc != post {
            bugs.push(bug(format!(
                "rf_signature diverged: incremental {inc:#x} vs post-hoc {post:#x}"
            )));
        }

        // The auditor performs every validate check except HbCycle /
        // ClockMismatch, with identical messages; on these (correct)
        // programs both must be empty — any asymmetry is a divergence.
        let mut audit: Vec<String> = relations::audit(trace)
            .iter()
            .map(|e| e.to_string())
            .collect();
        let mut oracle: Vec<String> = relations::validate(trace, true)
            .iter()
            .map(|e| e.to_string())
            .collect();
        audit.sort();
        oracle.sort();
        if audit != oracle {
            bugs.push(bug(format!(
                "audit/oracle diverged:\n  audit:  {audit:?}\n  oracle: {oracle:?}"
            )));
        }

        // `Config::validating` arms sw recording in the runtime; a false
        // flag here means that wiring broke and the delta check silently
        // stopped running — fail loudly instead.
        if !trace.record_sw {
            bugs.push(bug("sw recording off under a validating config".into()));
        } else if let Err((a, b)) = relations::check_sw_delta(trace) {
            bugs.push(bug(format!(
                "sb∪sw delta closure missed hb edge {a:?} -> {b:?}"
            )));
        }
        bugs
    }
}

fn lockstep_config() -> Config {
    Config {
        max_executions: 300_000,
        stop_on_first_bug: false,
        // Turns on clock cross-checking *and* sw-edge recording in the
        // runtime, arming the delta-closure comparison above.
        ..Config::validating()
    }
}

fn assert_clean(stats: &mc::Stats) {
    assert!(
        !stats.buggy(),
        "lockstep divergence: {:?}",
        stats
            .bugs
            .iter()
            .map(|b| format!("{}", b.bug))
            .collect::<Vec<_>>()
    );
    assert!(stats.feasible > 0, "nothing explored: {}", stats.summary());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Straight-through exploration: every feasible execution agrees.
    #[test]
    fn incremental_indexes_agree_with_posthoc(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let stats = mc::explore_with_plugins(
            lockstep_config(),
            vec![Box::new(Lockstep)],
            modeled_closure(prog, 2),
        );
        assert_clean(&stats);
    }

    /// Capped-then-resumed exploration: the recycled trace buffers of the
    /// resumed run must rebuild their incremental state from scratch, at
    /// one and two workers.
    #[test]
    fn indexes_agree_across_checkpoint_resume(
        prog in program_strategy(2, 3, 2),
        cap in 1u64..8,
        workers in 1usize..=2,
    ) {
        let prog = Arc::new(prog);
        let config = Config { workers, ..lockstep_config() };
        let lockstep: mc::PluginFactory = Arc::new(|| vec![Box::new(Lockstep) as Box<dyn Plugin>]);
        let mut cut = mc::explore_factory(
            Config { max_executions: cap, ..config.clone() },
            Arc::clone(&lockstep),
            modeled_closure(Arc::clone(&prog), 2),
        );
        prop_assert!(!cut.buggy(), "lockstep divergence before the cap: {:?}", cut.bugs);
        if !cut.shard_frontiers.is_empty() {
            let resume_shards = cut.shard_frontiers.clone();
            cut.continue_with(mc::explore_factory(
                Config { resume_shards, ..config },
                lockstep,
                modeled_closure(prog, 2),
            ));
            assert_clean(&cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Two-worker exploration: shard-peeled replays and work stealing
    /// reuse per-worker harnesses; every worker's executions must agree.
    #[test]
    fn indexes_agree_under_shard_stealing(prog in program_strategy(3, 3, 2)) {
        let prog = Arc::new(prog);
        let config = Config { workers: 2, ..lockstep_config() };
        let stats = mc::explore_factory(
            config,
            Arc::new(|| vec![Box::new(Lockstep) as Box<dyn Plugin>]),
            modeled_closure(prog, 2),
        );
        assert_clean(&stats);
    }
}
