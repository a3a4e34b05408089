//! The stateless DFS explorer.
//!
//! Re-executes the test closure, replaying a prefix of recorded choices and
//! deviating at the deepest choice point that still has unexplored
//! alternatives — the classic stateless-model-checking loop (CDSChecker,
//! CHESS). Terminates when the whole choice tree is exhausted, the
//! execution cap is hit, or the wall-clock budget expires.
//!
//! ## Resumability
//!
//! A replay script plus a depth floor ([`ShardSpec`]) is a complete
//! explorer state: bounded DFS from it visits exactly the leaves of that
//! subtree that a straight-through run would still have visited. A run
//! cut short by the cap or the deadline records every abandoned subtree
//! in [`Stats::shard_frontiers`]; resuming them through
//! [`Config::resume_shards`] and folding the result onto the cut run
//! with [`Stats::continue_with`] partitions the execution counts exactly:
//! `executions(full) == executions(to checkpoint) + executions(resumed)`,
//! at any worker count on either side.
//!
//! ## Parallel exploration
//!
//! With `Config::workers > 1` the frontier is split into disjoint
//! [`ShardSpec`] subtrees explored concurrently by independent explorer
//! instances, with dynamic work-stealing between them; results merge
//! deterministically back into one [`Stats`]. The coordinator lives in
//! `crate::parallel`; the shard representation (`floor`-bounded DFS via
//! `next_script_bounded`) and the splitting rule (`split_frontier`)
//! live here, next to the sequential loop they generalize. See
//! `ARCHITECTURE.md` for the shard→steal→merge protocol and the
//! determinism argument.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use crate::config::Config;
use crate::plugin::{Plugin, PluginFactory};
use crate::report::{Bug, FoundBug, ShardSpec, Stats, StopReason, MAX_BUG_RECORDS};
use crate::runtime::{run_once, ChoiceRec, Reuse, RunOutcome, RunResult};
use crate::worker::{in_model, install_quiet_panic_hook, panic_message};
use parking_lot::Mutex;

/// The plugins one explorer instance checks feasible executions with.
///
/// `Owned` is the fast path: the explorer has exclusive plugins (the
/// sequential engine, or a parallel worker whose plugins came from a
/// [`PluginFactory`]). `Shared` is the compatibility fallback for a plain
/// plugin `Vec` handed to the *parallel* engine: every worker serializes
/// its checking through one mutex, which is correct but contended —
/// prefer [`explore_factory`] for parallel specification checking.
pub(crate) enum PluginSet {
    Owned(Vec<Box<dyn Plugin>>),
    Shared(Arc<Mutex<Vec<Box<dyn Plugin>>>>),
}

impl PluginSet {
    fn with<R>(&mut self, f: impl FnOnce(&mut [Box<dyn Plugin>]) -> R) -> R {
        match self {
            PluginSet::Owned(v) => f(v),
            PluginSet::Shared(m) => f(&mut m.lock()),
        }
    }
}

/// Where an exploration's plugins come from: a one-shot list, or a factory
/// that can mint an independent list per parallel worker.
pub(crate) enum PluginSource {
    Direct(Vec<Box<dyn Plugin>>),
    Factory(PluginFactory),
}

/// How one shard's DFS ended.
pub(crate) enum ShardEnd {
    /// Every leaf of the shard's subtree was visited.
    Exhausted,
    /// Stopped early; carries the shard's remaining frontier (`None` when
    /// the stop fired on the shard's final leaf).
    Stopped(StopReason, Option<ShardSpec>),
}

/// One DFS campaign over a test closure's choice tree (or a shard of it).
pub(crate) struct Explorer {
    config: Config,
    test: Arc<dyn Fn() + Send + Sync>,
    pub(crate) stats: Stats,
    /// Rendered messages of every bug seen (the dedup key).
    seen_bugs: HashSet<String>,
    deadline: Option<Instant>,
    /// Worker index stamped onto found bugs (0 for the sequential engine).
    worker: usize,
    /// Start script of the shard currently being explored, stamped onto
    /// found bugs so parallel repros stay debuggable.
    pub(crate) shard_start: Vec<usize>,
    /// Execution harness carried between runs: `run_once` rewinds it in
    /// place instead of rebuilding the shared state per execution.
    reuse: Reuse,
}

impl Explorer {
    /// An explorer for worker `worker` (0 for the sequential engine),
    /// starting from zeroed statistics.
    pub(crate) fn new(config: Config, test: Arc<dyn Fn() + Send + Sync>, worker: usize) -> Self {
        let deadline = config.time_budget.map(|b| Instant::now() + b);
        install_quiet_panic_hook();
        Explorer {
            config,
            test,
            stats: Stats::default(),
            seen_bugs: HashSet::new(),
            deadline,
            worker,
            shard_start: Vec::new(),
            reuse: Reuse::default(),
        }
    }

    /// Record one bug occurrence, deduplicated by rendered message.
    fn record_bug(&mut self, bug: Bug, trace: &cdsspec_c11::Trace) {
        let key = bug.to_string();
        if self.seen_bugs.insert(key) && self.stats.bugs.len() < MAX_BUG_RECORDS {
            self.stats.bugs.push(FoundBug {
                bug,
                execution: self.stats.executions - 1,
                trace: trace.render(),
                worker: self.worker,
                shard: self.shard_start.clone(),
            });
        }
    }

    /// Run one execution and fold its outcome into the stats. Returns the
    /// choice record (for DFS backtracking) plus `Some(reason)` when the
    /// campaign must stop because of what happened *inside* the execution
    /// (a bug with `stop_on_first_bug`, or a crashed checker).
    pub(crate) fn step(
        &mut self,
        plugins: &mut PluginSet,
        script: &[usize],
    ) -> (RunResult, Option<StopReason>) {
        let mut result = run_once(
            &self.config,
            script,
            Arc::clone(&self.test),
            &mut self.reuse,
        );
        self.stats.executions += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(result.choices.len() as u64);
        self.stats.executions_pruned += result.pruned;

        let mut stop = None;
        match &result.outcome {
            RunOutcome::Completed => {
                self.stats.feasible += 1;
                // Class accounting uses completed traces only: a partial
                // (bug-aborted) trace's signature would depend on where
                // the abort cut it, which is scheduling noise.
                self.stats
                    .rf_classes
                    .insert(cdsspec_c11::relations::rf_signature(&result.trace));
                // Two-tier axiom checking: `validate_axioms` runs the full
                // independent oracle (O(n²) hb closure, clock cross-check);
                // otherwise `debug_audit` runs the fast auditor that trusts
                // the trace's incremental indexes. Both produce identical
                // error strings for the violations they can both see.
                let errors = if self.config.validate_axioms {
                    cdsspec_c11::relations::validate(&result.trace, true)
                } else if self.config.debug_audit {
                    cdsspec_c11::relations::audit(&result.trace)
                } else {
                    Vec::new()
                };
                for err in errors {
                    self.record_bug(
                        Bug::AxiomViolation {
                            message: err.to_string(),
                        },
                        &result.trace,
                    );
                    stop = Some(StopReason::FirstBug);
                }
                let config_stop_on_first = self.config.stop_on_first_bug;
                plugins.with(|plugins| {
                    for plugin in plugins.iter_mut() {
                        // A buggy checker must not take the campaign down
                        // with it: contain the panic, report it as a plugin
                        // bug, and stop with `Errored` so callers see the
                        // run is incomplete rather than silently clean.
                        let name = plugin.name();
                        let checked =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                plugin.check(&result.trace)
                            }));
                        let found = match checked {
                            Ok(found) => found,
                            Err(payload) => {
                                let message =
                                    format!("checker panicked: {}", panic_message(&payload));
                                self.record_bug(
                                    Bug::Plugin {
                                        plugin: name,
                                        message,
                                    },
                                    &result.trace,
                                );
                                stop = Some(StopReason::Errored);
                                continue;
                            }
                        };
                        if !found.is_empty() && config_stop_on_first {
                            stop = Some(StopReason::FirstBug);
                        }
                        for bug in found {
                            self.record_bug(bug, &result.trace);
                        }
                    }
                });
            }
            RunOutcome::BugFound(bug) => {
                self.stats.feasible += 1; // a buggy execution is a real behavior
                self.record_bug(bug.clone(), &result.trace);
                if self.config.stop_on_first_bug {
                    stop = Some(StopReason::FirstBug);
                }
            }
            RunOutcome::Diverged => self.stats.diverged += 1,
            RunOutcome::SleepPruned => self.stats.sleep_pruned += 1,
        }
        // The plugins are done with the trace: hand the buffer back to the
        // harness so the next execution's event/mo/sc vectors start at
        // their high-water capacity. Callers of `step` only consume the
        // outcome and the choice record.
        self.reuse.trace = Some(std::mem::take(&mut result.trace));
        (result, stop)
    }

    /// The DFS phase over one shard: explore leaves depth-first from the
    /// shard's script, never backtracking above its floor, until the
    /// subtree is exhausted or a stop condition fires.
    fn dfs_shard(&mut self, plugins: &mut PluginSet, shard: ShardSpec) -> ShardEnd {
        self.shard_start = shard.script.clone();
        let floor = shard.floor;
        let mut script = shard.script;
        loop {
            let (result, stop) = self.step(plugins, &script);
            // Where DFS would go next — recorded before deciding to stop,
            // so an interrupted run always knows its frontier.
            let frontier = next_script_bounded(&result.choices, floor);

            if let Some(reason) = stop {
                let rem = frontier.map(|script| ShardSpec { floor, script });
                return ShardEnd::Stopped(reason, rem);
            }
            // Exhaustion outranks the resource limits: a cap or deadline
            // that fires on the final leaf did not truncate anything, and
            // `ExecutionCap`/`Deadline` always imply a resumable frontier.
            let Some(next) = frontier else {
                return ShardEnd::Exhausted;
            };
            if self.stats.executions >= self.config.max_executions {
                return ShardEnd::Stopped(
                    StopReason::ExecutionCap,
                    Some(ShardSpec {
                        floor,
                        script: next,
                    }),
                );
            }
            // The deadline is only checked between executions: partition
            // counts stay exact across checkpoint/resume.
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return ShardEnd::Stopped(
                    StopReason::Deadline,
                    Some(ShardSpec {
                        floor,
                        script: next,
                    }),
                );
            }
            script = next;
        }
    }
}

/// Exhaustively explore `test` under `config`, invoking `plugins` on every
/// feasible execution.
///
/// With `Config::workers > 1` and a non-empty plugin list, checking is
/// serialized through a mutex shared by all workers; use
/// [`explore_factory`] to give each worker independent plugins instead.
pub fn explore_with_plugins<F>(config: Config, plugins: Vec<Box<dyn Plugin>>, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_impl(config, PluginSource::Direct(plugins), Arc::new(test))
}

/// Explore with per-worker plugin construction: `factory` is invoked once
/// per explorer worker, so each worker checks its shard with plugins it
/// owns exclusively — specification checking stays race-free without any
/// cross-worker locking. The sequential engine (`workers == 1`) invokes
/// the factory exactly once; behavior is then identical to
/// [`explore_with_plugins`].
pub fn explore_factory<F>(config: Config, factory: PluginFactory, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_impl(config, PluginSource::Factory(factory), Arc::new(test))
}

/// Common implementation: start from `Config::resume_shards` (or the
/// root), pick the engine by `Config::workers`, and account wall-clock.
///
/// An exploration started from inside a modeled thread (a nested
/// exploration) cannot host fibers on the caller's OS thread — that thread
/// is already hosting the outer execution — so the sequential engine runs
/// on a fresh OS thread, which hosts its own fibers. The thread is owned,
/// not scoped: an outer hang rescue may abandon the calling fiber's frame
/// while the inner exploration still runs. Parallel runs need no special
/// case, since every shard thread hosts its own fibers.
fn explore_impl(config: Config, plugins: PluginSource, test: Arc<dyn Fn() + Send + Sync>) -> Stats {
    let start = Instant::now();
    let initial = if config.resume_shards.is_empty() {
        vec![ShardSpec::root()]
    } else {
        config.resume_shards.clone()
    };
    let workers = config.effective_workers();

    let mut stats = if workers <= 1 {
        let owned = match plugins {
            PluginSource::Direct(v) => v,
            PluginSource::Factory(f) => f(),
        };
        if in_model() {
            std::thread::spawn(move || sequential_explore(config, initial, owned, test))
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        } else {
            sequential_explore(config, initial, owned, test)
        }
    } else {
        crate::parallel::explore_parallel(&config, initial, plugins, test, workers)
    };
    stats.elapsed = start.elapsed();
    stats
}

/// The classic sequential engine, generalized to drain a queue of frontier
/// shards (a single root shard for a fresh run). A stop condition abandons
/// the current shard *and* every queued one; all of them are recorded in
/// [`Stats::shard_frontiers`] so nothing is lost across the interruption.
fn sequential_explore(
    config: Config,
    initial: Vec<ShardSpec>,
    plugins: Vec<Box<dyn Plugin>>,
    test: Arc<dyn Fn() + Send + Sync>,
) -> Stats {
    let mut plugins = PluginSet::Owned(plugins);
    let mut explorer = Explorer::new(config, test, 0);
    let mut queue: VecDeque<ShardSpec> = initial.into();
    let mut remaining: Vec<ShardSpec> = Vec::new();
    let mut stop = StopReason::Exhausted;
    while let Some(shard) = queue.pop_front() {
        match explorer.dfs_shard(&mut plugins, shard) {
            ShardEnd::Exhausted => {}
            ShardEnd::Stopped(reason, rem) => {
                stop = reason;
                remaining.extend(rem);
                remaining.extend(queue.drain(..));
                break;
            }
        }
    }
    explorer.stats.stop = stop;
    explorer.stats.shard_frontiers = remaining;
    explorer.stats
}

/// Compute the replay script for the next DFS leaf of a shard,
/// backtracking only at depths `>= floor`. Returns `None` when the
/// shard's subtree is exhausted — alternatives above the floor belong to
/// other shards (floor 0: the whole tree is exhausted).
pub(crate) fn next_script_bounded(choices: &[ChoiceRec], floor: usize) -> Option<Vec<usize>> {
    let mut i = choices.len();
    loop {
        if i <= floor {
            return None;
        }
        i -= 1;
        if choices[i].picked + 1 < choices[i].num_options {
            break;
        }
    }
    let mut script: Vec<usize> = choices[..i].iter().map(|c| c.picked).collect();
    script.push(choices[i].picked + 1);
    Some(script)
}

/// Split a donor's frontier for work-stealing: scan the frontier
/// shallowest-first from the donor's floor and, at each depth that still
/// has unexplored sibling options, carve those siblings off as a thief
/// shard `{ floor: depth, script: frontier[..depth] ++ [frontier[depth]+1] }`,
/// raising the donor's floor past the donated depth. Up to `batch` thief
/// shards are produced; the donor keeps exactly its current branch below
/// the new floor.
///
/// Shallowest-first donation hands the thief the *largest* available
/// subtree (the Cilk steal heuristic), minimizing steal frequency. The
/// ISSUE sketch says "deepest unexplored backtrack point"; we deliberately
/// donate the shallowest instead — the deepest point is the donor's own
/// next stop, so donating it would maximize contention and minimize the
/// stolen subtree. `ARCHITECTURE.md` documents the trade-off and the
/// partition argument (the depths skipped between the old floor and the
/// donated depth have no unexplored siblings, so raising the floor loses
/// nothing).
pub(crate) fn split_frontier(
    frontier: &[usize],
    choices: &[ChoiceRec],
    floor: usize,
    batch: usize,
) -> (Vec<ShardSpec>, usize) {
    let mut thieves = Vec::new();
    let mut new_floor = floor;
    let depths = frontier.len().min(choices.len());
    for j in floor..depths {
        if thieves.len() == batch {
            break;
        }
        if frontier[j] + 1 < choices[j].num_options {
            let mut script = frontier[..j].to_vec();
            script.push(frontier[j] + 1);
            thieves.push(ShardSpec { floor: j, script });
            new_floor = j + 1;
        }
    }
    (thieves, new_floor)
}

/// Explore with the default configuration and no plugins; panic if any bug
/// is found (loom-style assertion for tests).
pub fn model<F>(test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    let stats = explore_with_plugins(Config::default(), Vec::new(), test);
    if stats.buggy() {
        let b = &stats.bugs[0];
        panic!("model checking found a bug: {}\ntrace:\n{}", b.bug, b.trace);
    }
    stats
}

/// Explore with a custom config and no plugins, returning the stats
/// without panicking.
pub fn explore<F>(config: Config, test: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    explore_with_plugins(config, Vec::new(), test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(picked: usize, num: usize) -> ChoiceRec {
        ChoiceRec {
            picked,
            num_options: num,
        }
    }

    #[test]
    fn next_script_increments_deepest() {
        let choices = vec![rec(0, 2), rec(1, 3), rec(0, 2)];
        assert_eq!(next_script_bounded(&choices, 0), Some(vec![0, 1, 1]));
    }

    #[test]
    fn next_script_pops_exhausted_suffix() {
        let choices = vec![rec(0, 2), rec(2, 3), rec(1, 2)];
        assert_eq!(next_script_bounded(&choices, 0), Some(vec![1]));
    }

    #[test]
    fn next_script_none_when_exhausted() {
        assert_eq!(next_script_bounded(&[], 0), None);
        assert_eq!(next_script_bounded(&[rec(1, 2), rec(2, 3)], 0), None);
    }

    #[test]
    fn bounded_next_script_respects_floor() {
        // Alternatives exist at depths 0 and 1, but a floor of 2 owns
        // neither: the shard is exhausted.
        let choices = vec![rec(0, 2), rec(1, 3), rec(1, 2)];
        assert_eq!(next_script_bounded(&choices, 0), Some(vec![0, 2]));
        assert_eq!(next_script_bounded(&choices, 1), Some(vec![0, 2]));
        assert_eq!(next_script_bounded(&choices, 2), None);
        assert_eq!(next_script_bounded(&choices, 99), None);
    }

    #[test]
    fn split_donates_shallowest_and_raises_floor() {
        // Frontier 0,1,0 with siblings available at depths 0 and 1.
        let frontier = vec![0, 1, 0];
        let choices = vec![rec(0, 2), rec(1, 3), rec(0, 1)];
        let (thieves, floor) = split_frontier(&frontier, &choices, 0, 1);
        assert_eq!(
            thieves,
            vec![ShardSpec {
                floor: 0,
                script: vec![1]
            }]
        );
        assert_eq!(floor, 1, "donor keeps its branch below the donated depth");

        // A second split (new floor 1) donates the depth-1 siblings.
        let (thieves, floor) = split_frontier(&frontier, &choices, floor, 1);
        assert_eq!(
            thieves,
            vec![ShardSpec {
                floor: 1,
                script: vec![0, 2]
            }]
        );
        assert_eq!(floor, 2);

        // Nothing left to donate at depths >= 2.
        let (thieves, floor) = split_frontier(&frontier, &choices, floor, 1);
        assert!(thieves.is_empty());
        assert_eq!(floor, 2);
    }

    #[test]
    fn split_batches_multiple_depths() {
        let frontier = vec![0, 1, 0];
        let choices = vec![rec(0, 2), rec(1, 3), rec(0, 1)];
        let (thieves, floor) = split_frontier(&frontier, &choices, 0, 8);
        assert_eq!(thieves.len(), 2);
        assert_eq!(
            thieves[0],
            ShardSpec {
                floor: 0,
                script: vec![1]
            }
        );
        assert_eq!(
            thieves[1],
            ShardSpec {
                floor: 1,
                script: vec![0, 2]
            }
        );
        assert_eq!(floor, 2);
    }

    /// The donated shards plus the donor's kept branch cover exactly the
    /// leaves the donor owned before the split — checked by brute-force
    /// enumeration of a small synthetic tree.
    #[test]
    fn split_partitions_synthetic_tree_exactly() {
        // A uniform tree: depth 3, 3 options per node. Leaves are scripts.
        fn leaves_of(shard: &ShardSpec) -> Vec<Vec<usize>> {
            // Enumerate by simulating bounded DFS over the uniform tree.
            let mut out = Vec::new();
            let mut script = shard.script.clone();
            loop {
                // "Execute": extend the script to a full leaf (depth 3),
                // picking option 0 for unscripted choices.
                let mut choices: Vec<ChoiceRec> = script.iter().map(|&p| rec(p, 3)).collect();
                while choices.len() < 3 {
                    choices.push(rec(0, 3));
                }
                out.push(choices.iter().map(|c| c.picked).collect());
                match next_script_bounded(&choices, shard.floor) {
                    Some(next) => script = next,
                    None => return out,
                }
            }
        }

        let root = ShardSpec::root();
        let all = leaves_of(&root);
        assert_eq!(all.len(), 27);

        // Split at an arbitrary frontier mid-walk.
        let frontier = vec![1, 0, 2];
        let choices: Vec<ChoiceRec> = frontier.iter().map(|&p| rec(p, 3)).collect();
        let (thieves, new_floor) = split_frontier(&frontier, &choices, 0, 8);
        // Depths 0 and 1 have unexplored siblings; depth 2 is on its last
        // option and cannot be donated.
        assert_eq!(thieves.len(), 2);

        // Donor continues at the frontier with the raised floor; thieves
        // explore their shards. Together: every leaf >= frontier, once.
        let mut covered = leaves_of(&ShardSpec {
            floor: new_floor,
            script: frontier.clone(),
        });
        for t in &thieves {
            covered.extend(leaves_of(t));
        }
        let expected: Vec<Vec<usize>> = all
            .iter()
            .filter(|l| l.as_slice() >= frontier.as_slice())
            .cloned()
            .collect();
        covered.sort();
        let mut expected = expected;
        expected.sort();
        assert_eq!(covered, expected, "split must not lose or duplicate leaves");
    }
}
