//! The CDSSpec checker: a model-checker plugin implementing the paper's
//! correctness model (non-deterministic linearizability, §3 + §5.2).
//!
//! Per feasible execution:
//!
//! 1. extract the method calls and their ordering points from the
//!    annotation stream;
//! 2. build the ordering relation `r` over method calls from the `hb`/SC
//!    ordering of their ordering points, and transitively close it;
//! 3. **admissibility**: every pair required ordered by an `@Admit` guard
//!    must be ordered by `r`, else the execution is inadmissible;
//! 4. **sequential histories**: every topological sort of `r` must satisfy
//!    all pre/postconditions when replayed against the equivalent
//!    sequential data structure (Definitions 2, 5, 6);
//! 5. **justification**: every call with justifying conditions must have
//!    at least one justifying subhistory (topological sort of its
//!    `r`-prefix) whose sequential execution satisfies them, with the
//!    `CONCURRENT` set available (Definitions 3, 4).

use std::sync::Arc;

use cdsspec_c11::Trace;
use cdsspec_mc::{Bug, Plugin};

use crate::call::{extract_calls, MethodCall};
use crate::history::{for_each_history, CallOrder};
use crate::spec::{CallEval, Spec};

/// The plugin. Cheap to construct per exploration; the spec itself is
/// shared via `Arc`.
pub struct SpecChecker<S> {
    spec: Arc<Spec<S>>,
}

impl<S> SpecChecker<S> {
    /// Check executions against `spec`.
    pub fn new(spec: Arc<Spec<S>>) -> Self {
        SpecChecker { spec }
    }

    /// Convenience: build the boxed plugin list for
    /// [`cdsspec_mc::explore_with_plugins`].
    pub fn plugins(spec: Arc<Spec<S>>) -> Vec<Box<dyn Plugin>>
    where
        S: Send + 'static,
    {
        vec![Box::new(SpecChecker::new(spec))]
    }

    /// A [`cdsspec_mc::PluginFactory`] minting one independent checker per
    /// explorer worker. The spec itself is immutable and shared via `Arc`
    /// (its closures are `Send + Sync` by construction), so per-shard
    /// CDSSpec checking in the parallel engine is race-free without any
    /// cross-worker locking.
    pub fn factory(spec: Arc<Spec<S>>) -> cdsspec_mc::PluginFactory
    where
        S: Send + 'static,
    {
        Arc::new(move || SpecChecker::plugins(Arc::clone(&spec)))
    }
}

/// Render a history as `name(args)=ret -> …` for diagnostics.
fn render_history(calls: &[MethodCall], h: &[usize]) -> String {
    h.iter()
        .map(|&i| {
            let c = &calls[i];
            let args = c
                .args
                .iter()
                .map(|a| format!("{a:?}"))
                .collect::<Vec<_>>()
                .join(",");
            format!("{}#{}({args})={:?}", c.name, c.id.0, c.ret)
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Build `r` from ordering points: `m1 → m2` iff some ordering point of
/// `m1` is `hb`- or SC-ordered before one of `m2` (paper §5.2).
pub fn build_call_order(trace: &Trace, calls: &[MethodCall]) -> CallOrder {
    let mut order = CallOrder::new(calls.len());
    for (i, a) in calls.iter().enumerate() {
        for (j, b) in calls.iter().enumerate() {
            if i == j {
                continue;
            }
            let ordered = a.ordering_points.iter().any(|&x| {
                b.ordering_points
                    .iter()
                    .any(|&y| x != y && trace.ordered_before(x, y))
            });
            if ordered {
                order.add_edge(i, j);
            }
        }
    }
    order.close();
    order
}

impl<S: Send + 'static> SpecChecker<S> {
    /// Check one execution: extract calls, then check each data-structure
    /// instance independently against its own sequential state
    /// (specification composition, paper §3.2 / Theorem 1).
    fn check_inner(&self, trace: &Trace) -> Vec<Bug> {
        let plugin_bug = |message: String| Bug::Plugin {
            plugin: "cdsspec",
            message,
        };

        let all_calls = match extract_calls(trace) {
            Ok(c) => c,
            Err(e) => return vec![plugin_bug(format!("annotation error: {e}"))],
        };
        if all_calls.is_empty() {
            return Vec::new();
        }
        let mut objs: Vec<u64> = all_calls.iter().map(|c| c.obj).collect();
        objs.sort_unstable();
        objs.dedup();
        // Single-object executions (the overwhelmingly common case) skip
        // the per-object projection clone entirely.
        if objs.len() == 1 {
            return self.check_object(trace, &all_calls);
        }
        let mut bugs = Vec::new();
        for obj in objs {
            let calls: Vec<MethodCall> =
                all_calls.iter().filter(|c| c.obj == obj).cloned().collect();
            bugs.extend(self.check_object(trace, &calls));
            if !bugs.is_empty() {
                break; // one witness per execution
            }
        }
        bugs
    }

    /// Check the projection of the execution onto one object.
    fn check_object(&self, trace: &Trace, calls: &[MethodCall]) -> Vec<Bug> {
        let plugin_bug = |message: String| Bug::Plugin {
            plugin: "cdsspec",
            message,
        };
        for c in calls {
            if self.spec.lookup(c.name).is_none() {
                return vec![plugin_bug(format!(
                    "no specification for method `{}`",
                    c.name
                ))];
            }
        }

        let order = build_call_order(trace, calls);
        if order.cyclic() {
            return vec![plugin_bug(
                "cyclic ordering relation r — check the ordering-point annotations".into(),
            )];
        }

        // 3. Admissibility (Definition 1). An inadmissible execution is
        // outside the correctness model: report it and skip the rest, as
        // the paper's checker does ("prints a warning").
        for i in 0..calls.len() {
            for j in 0..calls.len() {
                if i >= j || !order.concurrent(i, j) {
                    continue;
                }
                for rule in &self.spec.admissibility {
                    for (a, b) in [(i, j), (j, i)] {
                        if calls[a].name == rule.m1
                            && calls[b].name == rule.m2
                            && (rule.guard)(&calls[a], &calls[b])
                        {
                            return vec![plugin_bug(format!(
                                "admissibility: `{}#{}` and `{}#{}` must be ordered by r \
                                 but are concurrent",
                                calls[a].name, calls[a].id.0, calls[b].name, calls[b].id.0
                            ))];
                        }
                    }
                }
            }
        }

        let mut bugs = Vec::new();

        // 4. Sequential histories (Definitions 2/5/6). One `CallEval` per
        // call, built once and reused across every replayed history — the
        // deep `MethodCall`/`CONCURRENT` clones per history step dominated
        // checking time on history-heavy traces. Only `s_ret` varies
        // between replays; it is re-armed before each use.
        let mut evals: Vec<CallEval> = (0..calls.len())
            .map(|i| CallEval {
                call: calls[i].clone(),
                s_ret: cdsspec_c11::SpecVal::Unit,
                concurrent: (0..calls.len())
                    .filter(|&j| order.concurrent(i, j))
                    .map(|j| calls[j].clone())
                    .collect(),
            })
            .collect();

        for_each_history(&order, self.spec.policy, |h| {
            if let Err(msg) = self.run_history(h, calls, &mut evals) {
                bugs.push(plugin_bug(format!(
                    "{msg}\n  history: {}",
                    render_history(calls, h)
                )));
                return false; // one witness per execution is enough
            }
            true
        });
        if !bugs.is_empty() {
            return bugs;
        }

        // 5. Justification (Definitions 3/4): for each call with justifying
        // conditions, some topological sort of its r-prefix must satisfy
        // them.
        for (i, call) in calls.iter().enumerate() {
            let meth = self.spec.lookup(call.name).expect("checked above");
            if !meth.has_justification() {
                continue;
            }
            let mut scope = order.predecessors_of(i);
            let prefix_len = scope.len();
            scope.push(i);
            let sub = order.restrict(&scope);
            let target_pos = scope.len() - 1; // `i` is last in `scope`

            let mut justified = false;
            for_each_history(&sub, self.spec.policy, |h| {
                // Definition 3 clause 4 guarantees m can always be placed
                // last; skip sortings where it is not (they are permutations
                // of the same prefix with m interleaved earlier, which
                // Definition 3 excludes).
                if h[h.len() - 1] != target_pos {
                    return true;
                }
                if self.justifies(h, &scope, calls, &mut evals) {
                    justified = true;
                    return false;
                }
                true
            });
            if !justified {
                bugs.push(plugin_bug(format!(
                    "justification failed: `{}#{}` returned {:?} but no justifying \
                     subhistory permits it (prefix of {} call(s))",
                    call.name, call.id.0, call.ret, prefix_len
                )));
            }
        }

        bugs
    }

    /// Replay one full sequential history; `Err` = condition violated.
    /// `evals` holds the pre-built per-call evaluation contexts; each is
    /// re-armed (`s_ret` reset) before its pre/effect/post run.
    fn run_history(
        &self,
        h: &[usize],
        calls: &[MethodCall],
        evals: &mut [CallEval],
    ) -> Result<(), String> {
        let mut state = (self.spec.init)();
        for &idx in h {
            let call = &calls[idx];
            let meth = self.spec.lookup(call.name).expect("validated");
            let eval = &mut evals[idx];
            eval.s_ret = cdsspec_c11::SpecVal::Unit;
            if let Some(pre) = &meth.pre {
                if !pre(&state, eval) {
                    return Err(format!(
                        "precondition of `{}#{}` failed",
                        call.name, call.id.0
                    ));
                }
            }
            if let Some(se) = &meth.side_effect {
                se(&mut state, eval);
            }
            if let Some(post) = &meth.post {
                if !post(&state, eval) {
                    return Err(format!(
                        "postcondition of `{}#{}` failed (C_RET={:?}, S_RET={:?})",
                        call.name, call.id.0, call.ret, eval.s_ret
                    ));
                }
            }
        }
        Ok(())
    }

    /// Replay one justifying subhistory; `true` when the justifying
    /// conditions of the last call hold.
    fn justifies(
        &self,
        h: &[usize],
        scope: &[usize],
        calls: &[MethodCall],
        evals: &mut [CallEval],
    ) -> bool {
        let mut state = (self.spec.init)();
        let last = h.len() - 1;
        for (pos, &sub_idx) in h.iter().enumerate() {
            let idx = scope[sub_idx];
            let call = &calls[idx];
            let meth = self.spec.lookup(call.name).expect("validated");
            let eval = &mut evals[idx];
            eval.s_ret = cdsspec_c11::SpecVal::Unit;
            if pos == last {
                if let Some(jpre) = &meth.justify_pre {
                    if !jpre(&state, eval) {
                        return false;
                    }
                }
            }
            if let Some(se) = &meth.side_effect {
                se(&mut state, eval);
            }
            if pos == last {
                if let Some(jpost) = &meth.justify_post {
                    if !jpost(&state, eval) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl<S: Send + 'static> Plugin for SpecChecker<S> {
    fn name(&self) -> &'static str {
        "cdsspec"
    }

    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        self.check_inner(trace)
    }
}

/// Explore `test` under `config`, checking every feasible execution
/// against `spec` — the main entry point users interact with.
///
/// Checking goes through [`SpecChecker::factory`], so with
/// `Config::workers > 1` every parallel explorer worker gets its own
/// checker instance over the shared immutable spec (race-free per-shard
/// checking; see `ARCHITECTURE.md`).
pub fn check<S, F>(config: cdsspec_mc::Config, spec: Spec<S>, test: F) -> cdsspec_mc::Stats
where
    S: Send + 'static,
    F: Fn() + Send + Sync + 'static,
{
    let spec = Arc::new(spec);
    cdsspec_mc::explore_factory(config, SpecChecker::factory(spec), test)
}

/// One part of a multi-test benchmark suite: a specification plus the
/// unit test to explore under it.
pub type SuitePart<S> = (Spec<S>, Box<dyn Fn() + Send + Sync + 'static>);

/// Explore a *suite* of unit tests in order — the paper's §6.4
/// corner-case suites — stopping at the first buggy part, with exact
/// checkpoint/resume across parts.
///
/// A plain sequence of [`check`] calls merged together cannot resume: a
/// frontier shard does not say which part's choice tree it belongs to.
/// `check_suite` therefore prefixes every frontier shard it reports with
/// the part index (one level deeper, so the floor rises by one) and
/// peels that prefix off [`cdsspec_mc::Config::resume_shards`] on the way
/// back in, so the suite as a whole keeps the partition invariant
/// `executions(full) == executions(to checkpoint) + executions(resumed)`.
///
/// A wall-clock [`cdsspec_mc::Config::time_budget`] covers the whole
/// suite, not each part: later parts run on whatever remains.
pub fn check_suite<S>(config: cdsspec_mc::Config, parts: Vec<SuitePart<S>>) -> cdsspec_mc::Stats
where
    S: Send + 'static,
{
    let last = parts.len().saturating_sub(1);
    // Resume: every shard of an interrupted suite carries the same
    // part-index prefix (shards never span parts). Without one, start at
    // the first part's root.
    let (start, mut inner) = match config.resume_shards.as_slice() {
        shards @ [first, ..] if !first.script.is_empty() => {
            let inner = shards
                .iter()
                .filter(|s| !s.script.is_empty())
                .map(|s| cdsspec_mc::ShardSpec {
                    floor: s.floor.saturating_sub(1),
                    script: s.script[1..].to_vec(),
                })
                .collect();
            (first.script[0].min(last), inner)
        }
        _ => (0, Vec::new()),
    };
    let deadline = config.time_budget.map(|b| std::time::Instant::now() + b);
    let mut acc = cdsspec_mc::Stats::default();
    for (idx, (spec, test)) in parts.into_iter().enumerate().skip(start) {
        let mut part_config = config.clone();
        // Only the first part run (`idx == start`) resumes mid-tree.
        part_config.resume_shards = std::mem::take(&mut inner);
        part_config.time_budget =
            deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
        let mut fresh = check(part_config, spec, test);
        for shard in &mut fresh.shard_frontiers {
            shard.script.insert(0, idx);
            shard.floor += 1;
        }
        let stop_here = fresh.buggy() || fresh.truncated();
        acc.continue_with(fresh);
        if stop_here {
            break;
        }
    }
    acc
}

/// Like [`check`] but panics with a diagnostic on the first violation —
/// the loom-style assertion form.
pub fn check_ok<S, F>(spec: Spec<S>, test: F) -> cdsspec_mc::Stats
where
    S: Send + 'static,
    F: Fn() + Send + Sync + 'static,
{
    let stats = check(cdsspec_mc::Config::default(), spec, test);
    if stats.buggy() {
        let b = &stats.bugs[0];
        panic!("specification violated: {}\ntrace:\n{}", b.bug, b.trace);
    }
    stats
}
