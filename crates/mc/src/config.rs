//! Exploration configuration.

use crate::report::ShardSpec;
use std::time::Duration;

/// Tuning knobs for [`crate::explore()`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Hard bound on visible operations per modeled thread. Executions that
    /// exceed it are pruned and counted as *diverged* (the analog of
    /// CDSChecker's infeasible executions).
    pub max_steps_per_thread: u32,
    /// Bound on **total** [`crate::spin_loop`] hints by one thread in one
    /// execution before the branch is pruned as a futile spin. Cumulative
    /// (not consecutive): retry loops that write on every iteration
    /// (compensating RMWs, CAS loops) never look "futile" to the read
    /// tracker, and any behavior reachable through a long wait is also
    /// reachable through a shorter schedule at unit-test scale — the same
    /// bounded-fairness stance CDSChecker takes.
    pub max_spins: u32,
    /// Bound on consecutive loads of the *same location reading the same
    /// store* by one thread. This automatically prunes the stale-read
    /// chains of unannotated spin loops, which would otherwise branch
    /// exponentially until the step bound.
    pub max_futile_reads: u32,
    /// Safety valve: stop exploring after this many executions. When
    /// resuming from a checkpoint, the cap bounds the executions of the
    /// resumed run, not the checkpointed total.
    pub max_executions: u64,
    /// Wall-clock budget for the whole exploration. Checked between
    /// executions (never mid-execution, so checkpointed partition counts
    /// stay exact); on expiry the run stops with `StopReason::Deadline`
    /// and a resumable frontier. `None` = unlimited.
    pub time_budget: Option<Duration>,
    /// Watchdog: abort an execution that makes no scheduling progress for
    /// this long (a wedged modeled thread, e.g. an infinite non-atomic
    /// loop), reporting `Bug::InternalHang`. `None` disables the watchdog
    /// and restores the old park-forever behavior.
    pub hang_timeout: Option<Duration>,
    /// Resume exploration from these frontier shards instead of the tree
    /// root — the [`crate::Stats::shard_frontiers`] of an interrupted run,
    /// at any worker count. The resumed run's statistics cover only the
    /// shards; fold them onto the interrupted run's with
    /// [`crate::Stats::continue_with`]. Empty = the tree root, so resume
    /// only a run whose `shard_frontiers` is non-empty: an exhausted run
    /// has nothing left, and its empty list would explore the whole tree
    /// again.
    pub resume_shards: Vec<ShardSpec>,
    /// Number of parallel explorer workers. `1` = the classic sequential
    /// engine; `0` = auto-detect (`std::thread::available_parallelism`).
    /// The default is `1`, overridable process-wide by setting the
    /// `CDSSPEC_WORKERS` environment variable (used by CI to run the
    /// whole tier-1 suite through the parallel engine).
    pub workers: usize,
    /// Maximum modeled threads per execution.
    pub max_threads: u32,
    /// Enable sleep-set partial-order reduction (on by default; the
    /// ablation bench toggles it).
    pub sleep_sets: bool,
    /// Enable rf-equivalence pruning (on by default; `--no-rf-prune`
    /// toggles it in the bench harnesses). Treats the reads-from
    /// assignment — not the interleaving — as the execution's identity:
    /// non-SC loads are deferred behind co-enabled same-location writes
    /// (the read-then-write order is rf-equivalent to write-then-read
    /// with the same candidate window), and rf candidates that would
    /// immediately trip the futile-read bound are rejected eagerly,
    /// before scheduling descends under them. Checkpoints and shard
    /// frontiers are only valid under the same setting they were
    /// produced with — the same contract `sleep_sets` already has.
    /// See ARCHITECTURE.md "Exploration identity and rf-equivalence
    /// pruning" for the soundness and determinism argument.
    pub rf_prune: bool,
    /// Stop at the first bug instead of enumerating all buggy executions.
    pub stop_on_first_bug: bool,
    /// Run the offline axiom validator on every feasible execution
    /// (expensive; used by the property-test suite).
    pub validate_axioms: bool,
    /// Run the fast index-trusting axiom auditor
    /// ([`cdsspec_c11::relations::audit`]) on every feasible execution.
    /// Unlike `validate_axioms` it performs no O(n²) closure — it trusts
    /// the trace's incremental clocks and indexes — so it is cheap enough
    /// to leave on by default. Bench probes turn it off to measure the
    /// bare engine. Ignored (subsumed) when `validate_axioms` is set.
    pub debug_audit: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps_per_thread: 500,
            max_spins: 4,
            max_futile_reads: 3,
            max_executions: 20_000_000,
            time_budget: None,
            hang_timeout: Some(Duration::from_secs(10)),
            resume_shards: Vec::new(),
            workers: std::env::var("CDSSPEC_WORKERS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1),
            max_threads: 32,
            sleep_sets: true,
            rf_prune: true,
            stop_on_first_bug: true,
            validate_axioms: false,
            debug_audit: true,
        }
    }
}

impl Config {
    /// Preset used by the test suites: exhaustive, with online axiom
    /// validation enabled.
    pub fn validating() -> Self {
        Config {
            validate_axioms: true,
            ..Config::default()
        }
    }

    /// The concrete worker count this config resolves to: `workers`
    /// itself, or the machine's available parallelism when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.max_steps_per_thread >= 100);
        assert!(c.sleep_sets);
        assert!(c.rf_prune, "rf-equivalence pruning on by default");
        assert!(!c.validate_axioms);
        assert!(c.debug_audit, "fast auditor on by default");
        assert!(Config::validating().validate_axioms);
        assert!(c.time_budget.is_none(), "no deadline unless asked");
        assert!(c.hang_timeout.is_some(), "watchdog on by default");
        assert!(c.resume_shards.is_empty());
        assert!(c.effective_workers() >= 1, "0 resolves to >= 1");
    }
}
