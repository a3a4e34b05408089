//! The traced exploration path: each registry benchmark's suite rebuilt
//! from its public `make_spec` / `unit_test*` functions and explored
//! through `mc::explore_factory` with one timing plugin per worker.
//!
//! The engine's own axiom audit is switched off (`debug_audit: false`)
//! and the plugin runs `relations::audit` itself, turning its errors
//! into `Bug::AxiomViolation` as the engine does, so the audit can be
//! timed. It then times `relations::rf_signature` (a duplicate of the
//! engine's own call, which stays inside `mc`) and the wrapped
//! `SpecChecker`. One feasible execution in [`SAMPLE_EVERY`] also goes
//! through `extract_calls`, `build_call_order` and `for_each_history`
//! separately, to split the checker's time. The duplicate signature and
//! the samples are tracing overhead; their allocations are not counted.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cdsspec_c11::relations;
use cdsspec_c11::Trace;
use cdsspec_core::{
    build_call_order, extract_calls, for_each_history, HistoryPolicy, MethodCall, Spec, SpecChecker,
};
use cdsspec_mc::{self as mc, Bug, Plugin, PluginFactory, Stats};
use cdsspec_structures::{self as st, Ords};

use crate::alloc;

/// One feasible execution in this many is split into checker phases.
pub const SAMPLE_EVERY: u64 = 8;

/// One part of a benchmark's suite: a checker maker plus its unit test.
struct Part {
    checker: Arc<dyn Fn() -> Box<dyn Plugin> + Send + Sync>,
    policy: HistoryPolicy,
    test: Arc<dyn Fn() + Send + Sync>,
}

fn part<S: Send + 'static>(spec: Spec<S>, test: impl Fn() + Send + Sync + 'static) -> Part {
    let policy = spec.policy;
    let spec = Arc::new(spec);
    Part {
        checker: Arc::new(move || Box::new(SpecChecker::new(Arc::clone(&spec))) as Box<dyn Plugin>),
        policy,
        test: Arc::new(test),
    }
}

/// The parts each registry benchmark's `check` runs, in its order.
fn suite_parts(bench: &str, ords: Ords) -> Option<Vec<Part>> {
    Some(match bench {
        "Chase-Lev Deque" => vec![
            part(
                st::chase_lev::make_spec(),
                st::chase_lev::unit_test(ords.clone()),
            ),
            part(
                st::chase_lev::make_spec(),
                st::chase_lev::unit_test_last_element(ords),
            ),
        ],
        "SPSC Queue" => vec![part(st::spsc::make_spec(), st::spsc::unit_test(ords))],
        "RCU" => vec![part(st::rcu::make_spec(), st::rcu::unit_test(ords))],
        "Lockfree Hashtable" => vec![part(
            st::hashtable::make_spec(),
            st::hashtable::unit_test(ords),
        )],
        "MCS Lock" => vec![part(
            st::mcs_lock::make_spec(),
            st::mcs_lock::unit_test(ords),
        )],
        "MPMC Queue" => vec![
            part(st::mpmc::make_spec(), st::mpmc::unit_test(ords.clone())),
            part(st::mpmc::make_spec(), st::mpmc::unit_test_wrap(ords)),
        ],
        "M&S Queue" => vec![part(
            st::ms_queue::make_spec(),
            st::ms_queue::unit_test(ords),
        )],
        "Linux RW Lock" => vec![part(st::rw_lock::make_spec(), st::rw_lock::unit_test(ords))],
        "Seqlock" => vec![part(st::seqlock::make_spec(), st::seqlock::unit_test(ords))],
        "Ticket Lock" => vec![part(
            st::ticket_lock::make_spec(),
            st::ticket_lock::unit_test(ords),
        )],
        _ => return None,
    })
}

/// Time spent by one plugin instance (one explorer worker).
#[derive(Default)]
pub struct WorkerTimes {
    /// Executions the plugin checked (feasible, no built-in bug).
    pub checked: u64,
    pub audit: Duration,
    pub rf_signature: Duration,
    pub check: Duration,
    /// Everything inside the plugin, sampling included.
    pub plugin: Duration,
    pub sampled: u64,
    pub extract: Duration,
    pub order: Duration,
    pub history: Duration,
    pub histories: u64,
    pub last_check: Option<Instant>,
}

impl WorkerTimes {
    fn add(&mut self, o: &WorkerTimes) {
        self.checked += o.checked;
        self.audit += o.audit;
        self.rf_signature += o.rf_signature;
        self.check += o.check;
        self.plugin += o.plugin;
        self.sampled += o.sampled;
        self.extract += o.extract;
        self.order += o.order;
        self.history += o.history;
        self.histories += o.histories;
    }
}

struct TimingPlugin {
    inner: Box<dyn Plugin>,
    policy: HistoryPolicy,
    times: WorkerTimes,
    sink: Arc<Mutex<Vec<WorkerTimes>>>,
}

impl TimingPlugin {
    /// The checker's phases, called separately on the per-object
    /// projections the checker itself builds.
    fn sample(&mut self, trace: &Trace) {
        let t0 = Instant::now();
        let Ok(calls) = extract_calls(trace) else {
            return;
        };
        let t1 = Instant::now();
        let mut objs: Vec<u64> = calls.iter().map(|c| c.obj).collect();
        objs.sort_unstable();
        objs.dedup();
        let (mut order_t, mut hist_t) = (Duration::ZERO, Duration::ZERO);
        for obj in objs {
            let own: Vec<MethodCall> = calls.iter().filter(|c| c.obj == obj).cloned().collect();
            let t2 = Instant::now();
            let order = build_call_order(trace, &own);
            let t3 = Instant::now();
            self.times.histories += for_each_history(&order, self.policy, |h| {
                black_box(h);
                true
            }) as u64;
            order_t += t3 - t2;
            hist_t += t3.elapsed();
        }
        self.times.sampled += 1;
        self.times.extract += t1 - t0;
        self.times.order += order_t;
        self.times.history += hist_t;
    }
}

impl Plugin for TimingPlugin {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check(&mut self, trace: &Trace) -> Vec<Bug> {
        let t0 = Instant::now();
        let mut bugs: Vec<Bug> = relations::audit(trace)
            .into_iter()
            .map(|e| Bug::AxiomViolation {
                message: e.to_string(),
            })
            .collect();
        let t1 = Instant::now();
        black_box(alloc::uncounted(|| relations::rf_signature(trace)));
        let t2 = Instant::now();
        bugs.extend(self.inner.check(trace));
        let t3 = Instant::now();
        if self.times.checked.is_multiple_of(SAMPLE_EVERY) {
            alloc::uncounted(|| self.sample(trace));
        }
        let t4 = Instant::now();
        let t = &mut self.times;
        t.checked += 1;
        t.audit += t1 - t0;
        t.rf_signature += t2 - t1;
        t.check += t3 - t2;
        t.plugin += t4 - t0;
        t.last_check = Some(t4);
        bugs
    }
}

impl Drop for TimingPlugin {
    fn drop(&mut self) {
        let times = std::mem::take(&mut self.times);
        self.sink
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(times);
    }
}

/// One `explore_factory` call: a span with its per-worker times.
pub struct CallSpan {
    pub start: Instant,
    pub end: Instant,
    pub stats_elapsed: Duration,
    pub allocations: u64,
    pub workers: Vec<WorkerTimes>,
}

/// A benchmark explored through the traced path.
pub struct TracedCheck {
    pub stats: Stats,
    pub calls: Vec<CallSpan>,
}

/// Explore `bench` under `config` (whose `debug_audit` is switched off
/// here) with the timing plugin, stopping after a buggy or truncated
/// part exactly as `check_suite` does.
pub fn traced_check(bench: &str, ords: Ords, config: &mc::Config) -> Result<TracedCheck, String> {
    let parts = suite_parts(bench, ords).ok_or_else(|| format!("no traced suite for {bench:?}"))?;
    let config = mc::Config {
        debug_audit: false,
        ..config.clone()
    };
    let mut stats = Stats::default();
    let mut calls = Vec::new();
    for part in parts {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let factory: PluginFactory = {
            let (sink, checker, policy) =
                (Arc::clone(&sink), Arc::clone(&part.checker), part.policy);
            Arc::new(move || {
                vec![Box::new(TimingPlugin {
                    inner: checker(),
                    policy,
                    times: WorkerTimes::default(),
                    sink: Arc::clone(&sink),
                }) as Box<dyn Plugin>]
            })
        };
        let test = Arc::clone(&part.test);
        let a0 = alloc::allocations();
        let start = Instant::now();
        let fresh = mc::explore_factory(config.clone(), factory, move || test());
        let end = Instant::now();
        let allocations = alloc::allocations() - a0;
        let workers = std::mem::take(&mut *sink.lock().unwrap_or_else(|p| p.into_inner()));
        if workers.is_empty() {
            return Err(format!("{bench}: no timing plugin reported back"));
        }
        calls.push(CallSpan {
            start,
            end,
            stats_elapsed: fresh.elapsed,
            allocations,
            workers,
        });
        let stop_here = fresh.buggy() || fresh.truncated();
        stats.continue_with(fresh);
        if stop_here {
            break;
        }
    }
    Ok(TracedCheck { stats, calls })
}

/// Untraced/traced pairs per traced run; walls are their medians.
pub const TRACE_PAIRS: usize = 3;

/// Per-layer totals over a set of traced explorations at one worker
/// count, with a span per exploration call (kept in memory, written out
/// by [`Pair::report`]). Plugin thread-time is divided by the worker
/// count, so the layer self-times are shares of wall time:
/// `mc + c11 + core + overhead ≈ traced wall`.
pub struct LayerTotals {
    pub origin: Instant,
    pub spans: Vec<(String, Duration, Duration)>,
    pub workers: usize,
    pub explorations: u64,
    pub executions: u64,
    pub feasible: u64,
    pub rf_pruned: u64,
    pub rf_classes: u64,
    pub peak_depth: u64,
    pub allocations: u64,
    pub explore_wall: Duration,
    pub explore_overhead: Duration,
    pub times: WorkerTimes,
    /// Σ over calls of the busiest worker's checked executions, and of
    /// the mean per worker (parallel imbalance).
    pub max_checked: f64,
    pub mean_checked: f64,
    pub tail_idle: Duration,
}

impl LayerTotals {
    pub fn new(workers: usize) -> Self {
        LayerTotals {
            origin: Instant::now(),
            spans: Vec::new(),
            workers,
            explorations: 0,
            executions: 0,
            feasible: 0,
            rf_pruned: 0,
            rf_classes: 0,
            peak_depth: 0,
            allocations: 0,
            explore_wall: Duration::ZERO,
            explore_overhead: Duration::ZERO,
            times: WorkerTimes::default(),
            max_checked: 0.0,
            mean_checked: 0.0,
            tail_idle: Duration::ZERO,
        }
    }

    pub fn add(&mut self, name: &str, t: &TracedCheck) {
        let s = &t.stats;
        self.executions += s.executions;
        self.feasible += s.feasible;
        self.rf_pruned += s.executions_pruned;
        self.rf_classes += s.rf_classes.len() as u64;
        self.peak_depth = self.peak_depth.max(s.peak_depth);
        for call in &t.calls {
            let wall = call.end - call.start;
            self.spans
                .push((name.to_string(), call.start - self.origin, wall));
            self.explorations += 1;
            self.allocations += call.allocations;
            self.explore_wall += wall;
            self.explore_overhead += wall.saturating_sub(call.stats_elapsed);
            let mut checked = Vec::with_capacity(self.workers);
            for w in &call.workers {
                self.times.add(w);
                checked.push(w.checked as f64);
            }
            // A worker that never checked anything idled the whole call.
            checked.resize(self.workers.max(checked.len()), 0.0);
            self.max_checked += checked.iter().cloned().fold(0.0, f64::max);
            self.mean_checked += checked.iter().sum::<f64>() / checked.len() as f64;
            let first_idle = if call.workers.len() < self.workers {
                call.start
            } else {
                call.workers
                    .iter()
                    .map(|w| w.last_check.unwrap_or(call.start))
                    .min()
                    .unwrap_or(call.start)
            };
            self.tail_idle += call.end.saturating_duration_since(first_idle);
        }
    }

    fn per_worker(&self, d: Duration) -> f64 {
        d.as_secs_f64() / self.workers as f64
    }

    pub fn c11_self_s(&self) -> f64 {
        self.per_worker(self.times.audit + self.times.rf_signature)
    }

    pub fn core_self_s(&self) -> f64 {
        self.per_worker(self.times.check)
    }

    /// Exploration wall minus everything the plugin did, minus one more
    /// rf signature: the engine's own call, which the plugin's duplicate
    /// stands in for under `c11`.
    pub fn mc_self_s(&self) -> f64 {
        self.explore_wall.as_secs_f64()
            - self.per_worker(self.times.plugin + self.times.rf_signature)
    }
}

/// One untraced run of some explorations and one traced run of the same.
pub struct Pair {
    pub untraced_wall: f64,
    pub traced_wall: f64,
    pub totals: LayerTotals,
    /// Exploration times of trials that stopped at a first bug.
    pub first_bug_ms: Vec<f64>,
}

impl Pair {
    /// Write the spans out and show how the layers account for the wall.
    pub fn report(&self, parent: &str) {
        let l = &self.totals;
        for (name, at, dur) in &l.spans {
            eprintln!(
                "span layer=mc parent={parent} name={name:?} start_ms={:.3} dur_ms={:.3}",
                at.as_secs_f64() * 1e3,
                dur.as_secs_f64() * 1e3
            );
        }
        eprintln!(
            "traced wall {:.4} s = mc {:.4} + c11 {:.4} + core {:.4} + overhead; \
             untraced wall {:.4} s",
            self.traced_wall,
            l.mc_self_s(),
            l.c11_self_s(),
            l.core_self_s(),
            self.untraced_wall
        );
    }
}

/// The median untraced wall, and the pair whose traced wall is the
/// median.
pub fn median_pair(mut pairs: Vec<Pair>) -> (f64, Pair) {
    let untraced: Vec<f64> = pairs.iter().map(|p| p.untraced_wall).collect();
    pairs.sort_by(|a, b| a.traced_wall.total_cmp(&b.traced_wall));
    let mid = pairs.len() / 2;
    (crate::util::median(&untraced), pairs.swap_remove(mid))
}

fn us_per(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e6 / n as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `mc`, `c11`, `core` and `parallel` per-layer metrics, in the
/// order `BENCHMARK.json` lists them. `first_bug_ms_p50` comes from the
/// caller (only injection trials stop at a first bug).
pub fn layer_metrics(l: &LayerTotals, first_bug_ms_p50: f64) -> Vec<crate::util::Metric> {
    use crate::util::metric;
    let t = &l.times;
    let parallel = l.workers > 1;
    vec![
        metric(
            "mc.self_us_per_exec",
            l.mc_self_s() * l.workers as f64 * 1e6 / l.executions.max(1) as f64,
            "us",
        ),
        metric(
            "mc.allocs_per_exec",
            ratio(l.allocations as f64, l.executions as f64),
            "count",
        ),
        metric("mc.executions", l.executions as f64, "count"),
        metric(
            "mc.feasible_frac",
            ratio(l.feasible as f64, l.executions as f64),
            "share",
        ),
        metric("mc.rf_pruned", l.rf_pruned as f64, "count"),
        metric("mc.peak_depth", l.peak_depth as f64, "count"),
        metric(
            "mc.explore_overhead_ms",
            ratio(
                l.explore_overhead.as_secs_f64() * 1e3,
                l.explorations as f64,
            ),
            "ms",
        ),
        metric("mc.first_bug_ms_p50", first_bug_ms_p50, "ms"),
        metric("mc.self_s", l.mc_self_s(), "s"),
        metric(
            "c11.audit_us_per_feasible",
            us_per(t.audit, t.checked),
            "us",
        ),
        metric(
            "c11.rf_signature_us_per_feasible",
            us_per(t.rf_signature, t.checked),
            "us",
        ),
        metric(
            "c11.feasible_per_class",
            ratio(l.feasible as f64, l.rf_classes as f64),
            "ratio",
        ),
        metric("c11.self_s", l.c11_self_s(), "s"),
        metric(
            "core.check_us_per_feasible",
            us_per(t.check, t.checked),
            "us",
        ),
        metric(
            "core.extract_us_per_feasible",
            us_per(t.extract, t.sampled),
            "us",
        ),
        metric(
            "core.order_us_per_feasible",
            us_per(t.order, t.sampled),
            "us",
        ),
        metric(
            "core.histories_per_feasible",
            ratio(t.histories as f64, t.sampled as f64),
            "count",
        ),
        metric(
            "core.history_us_per_feasible",
            us_per(t.history, t.sampled),
            "us",
        ),
        metric("core.self_s", l.core_self_s(), "s"),
        metric(
            "parallel.imbalance",
            if parallel {
                ratio(l.max_checked, l.mean_checked)
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "parallel.tail_idle_ms",
            if parallel {
                l.tail_idle.as_secs_f64() * 1e3
            } else {
                0.0
            },
            "ms",
        ),
    ]
}
