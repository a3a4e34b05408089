//! Hot-path performance probe: records executions/sec and
//! allocations/execution for a fixed probe set into a machine-readable
//! `BENCH_hotpath.json`, so successive optimization PRs regress against a
//! recorded trajectory instead of folklore.
//!
//! ```text
//! cargo run -p cdsspec-bench --release --bin hotpath -- \
//!     [--variant <name>] [--out <path>] [--baseline <path>] [--smoke] \
//!     [--guard <path>]
//! ```
//!
//! `--guard <path>` switches to regression-guard mode: instead of writing
//! a new file, re-measure allocations/execution for the figure7 probes
//! and exit nonzero when any exceeds the best committed value in `<path>`
//! by more than 10% (the CI bench job runs this against the committed
//! `BENCH_hotpath.json`).
//!
//! Two probe families share one row schema ([`BenchRow`]):
//!
//! * `figure7:<benchmark>` — a full exhaustive exploration of one
//!   Figure 7 benchmark at a fixed worker count; `executions`,
//!   `feasible`, and `peak_depth` come from the explorer's [`mc::Stats`].
//! * `micro:<op>` — a tight loop over one hot operation (clock join,
//!   clock includes, rf-candidate enumeration, event append);
//!   `executions` counts loop iterations.
//!
//! Allocations are counted by a `#[global_allocator]` wrapper around the
//! system allocator (`alloc` + `realloc` calls, process-wide), so the
//! figure7 numbers include the explorer's worker threads — exactly the
//! allocation pressure a user's run pays.
//!
//! `--baseline <path>` carries rows of a previous file forward: rows
//! whose `(probe, variant, workers)` key is not re-measured by this run
//! are copied into the new output. That is how seed-variant rows survive
//! into the post-optimization file without a JSON parser dependency.
//!
//! `--smoke` shrinks the probe set for CI: the cheapest figure7 probe at
//! one worker plus shortened micro loops. Smoke rows are written with
//! the same schema; CI treats the run as pass/fail on panic, never on
//! variance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cdsspec_bench::{exec_per_sec, extract_bench_rows, render_bench_json, BenchRow};
use cdsspec_c11::clock::Clock;
use cdsspec_c11::{LocId, MemOrd, Tid};
use cdsspec_mc as mc;
use cdsspec_mc::memstate::MemState;
use cdsspec_structures::registry::benchmarks;

/// System allocator wrapper counting every `alloc`/`realloc` call.
struct CountingAlloc;

/// Process-wide allocation counter (all threads, including explorer
/// workers).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Figure 7 benchmarks probed end-to-end. Chosen to cover the weight
/// range without the one monster row (Chase-Lev, ~50 s alone at one
/// worker on the reference box): together these run in roughly a second
/// per repetition at one worker.
const PROBE_BENCHES: &[&str] = &[
    "MPMC Queue",
    "Linux RW Lock",
    "Seqlock",
    "M&S Queue",
    "MCS Lock",
];

/// Smoke-mode subset: the cheapest probes only.
const SMOKE_BENCHES: &[&str] = &["Seqlock", "M&S Queue"];

/// Measure `f`, returning its result plus (elapsed_ns, allocations).
fn measured<T>(f: impl FnOnce() -> T) -> (T, u128, u64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_nanos();
    let da = ALLOCS.load(Ordering::Relaxed) - a0;
    (out, dt, da)
}

/// Ratio helper for the per-execution allocation column.
fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Explore one registered benchmark exhaustively and record the row.
fn figure7_probe(name: &str, workers: usize, variant: &str, watchdog: bool) -> BenchRow {
    let bench = benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown probe benchmark {name:?}"));
    let config = mc::Config {
        max_executions: 3_000_000,
        workers,
        // Probes measure the bare engine; the per-execution axiom audit
        // is a debugging aid, priced separately by micro:relations_finalize.
        debug_audit: false,
        // `watchdog` keeps `Config::default`'s hang_timeout so the row
        // prices the monitor thread + per-execution registry against the
        // watchdog-free path; these closures are known-terminating in
        // both modes.
        hang_timeout: if watchdog {
            mc::Config::default().hang_timeout
        } else {
            None
        },
        ..mc::Config::default()
    };
    let (stats, elapsed_ns, allocations) = measured(|| bench.check_default(config));
    assert!(
        !stats.buggy(),
        "probe {name:?} reported a bug under correct orderings"
    );
    assert_eq!(
        stats.stop,
        mc::StopReason::Exhausted,
        "probe {name:?} did not explore exhaustively"
    );
    BenchRow {
        probe: format!("figure7:{name}"),
        variant: variant.to_string(),
        workers,
        executions: stats.executions,
        feasible: stats.feasible,
        elapsed_ns,
        exec_per_sec: exec_per_sec(stats.executions, elapsed_ns),
        peak_depth: stats.peak_depth,
        allocations,
        allocs_per_exec: per(allocations, stats.executions),
    }
}

/// Build a clock pair shaped like real exploration state: a handful of
/// threads and locations with staggered knowledge.
fn sample_clocks() -> (Clock, Clock) {
    let mut a = Clock::new();
    let mut b = Clock::new();
    for t in 0..4u32 {
        a.vc.set(Tid(t), 10 + t);
        b.vc.set(Tid(t), 13 - t);
    }
    for l in 0..6u32 {
        a.wmax.raise(LocId(l), l);
        a.rmax.raise(LocId(l), l / 2);
        b.wmax.raise(LocId(l), 5 - l.min(5));
        b.rmax.raise(LocId(l), l);
    }
    (a, b)
}

/// A memory state mid-execution: two threads, one contended location
/// with a short store history — the shape `load_candidates` sees on
/// every load of the figure-7 suite.
fn sample_memstate() -> (MemState, Tid, LocId) {
    let mut st = MemState::new();
    let main = Tid::MAIN;
    let child = st.spawn_thread(main);
    let loc = st.alloc_atomic(main, Some(0));
    for i in 0..4u64 {
        st.apply_store(main, loc, MemOrd::Release, i);
        st.apply_store(child, loc, MemOrd::Relaxed, 100 + i);
    }
    let rf = st.load_candidates(child, loc, MemOrd::Acquire)[0];
    st.apply_load(child, loc, MemOrd::Acquire, rf);
    (st, child, loc)
}

/// A canned annotated trace shaped like one feasible MPMC-queue
/// execution: two producers and two consumers over two slots plus
/// tail/head counters, with release/acquire synchronization, an SC
/// spine, and full method-call annotations. This is the input the
/// per-execution finalize path (axiom check + rf signature + call
/// order) sees after every feasible exploration step.
fn canned_mpmc_trace() -> cdsspec_c11::Trace {
    use cdsspec_c11::{SpecNote, SpecVal};
    let mut st = MemState::new();
    let main = Tid::MAIN;
    let producers = [st.spawn_thread(main), st.spawn_thread(main)];
    let consumers = [st.spawn_thread(main), st.spawn_thread(main)];
    let tail = st.alloc_atomic(main, Some(0));
    let head = st.alloc_atomic(main, Some(0));
    let slots = [
        st.alloc_atomic(main, Some(0)),
        st.alloc_atomic(main, Some(0)),
    ];

    for (i, &p) in producers.iter().enumerate() {
        st.annotate(
            p,
            SpecNote::MethodBegin {
                obj: 1,
                name: "enq",
            },
        );
        st.annotate(
            p,
            SpecNote::MethodArg {
                val: SpecVal::I64(10 + i as i64),
            },
        );
        st.apply_store(p, slots[i], MemOrd::Release, 10 + i as u64);
        st.apply_store(p, tail, MemOrd::SeqCst, i as u64 + 1);
        st.annotate(p, SpecNote::OpDefine);
        st.annotate(p, SpecNote::MethodEnd { ret: SpecVal::Unit });
        st.apply_finish(p);
    }
    for (i, &c) in consumers.iter().enumerate() {
        st.annotate(
            c,
            SpecNote::MethodBegin {
                obj: 1,
                name: "deq",
            },
        );
        let tail_rf = *st
            .load_candidates(c, tail, MemOrd::SeqCst)
            .last()
            .expect("tail has candidates");
        st.apply_load(c, tail, MemOrd::SeqCst, tail_rf);
        st.annotate(c, SpecNote::OpDefine);
        let slot_rf = *st
            .load_candidates(c, slots[i], MemOrd::Acquire)
            .last()
            .expect("slot has candidates");
        let val = st.apply_load(c, slots[i], MemOrd::Acquire, slot_rf);
        st.apply_store(c, head, MemOrd::SeqCst, i as u64 + 1);
        st.annotate(
            c,
            SpecNote::MethodEnd {
                ret: SpecVal::I64(val as i64),
            },
        );
        st.apply_finish(c);
    }
    for &t in producers.iter().chain(&consumers) {
        st.apply_join(main, t);
    }
    st.apply_finish(main);
    st.trace
}

/// Run every micro probe at `iters` iterations.
fn micro_probes(variant: &str, iters: u64) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    let mut push = |op: &str, iters: u64, elapsed_ns: u128, allocations: u64| {
        rows.push(BenchRow {
            probe: format!("micro:{op}"),
            variant: variant.to_string(),
            workers: 1,
            executions: iters,
            feasible: 0,
            elapsed_ns,
            exec_per_sec: exec_per_sec(iters, elapsed_ns),
            peak_depth: 0,
            allocations,
            allocs_per_exec: per(allocations, iters),
        });
    };

    // clock_join: snapshot-and-merge, the per-event pattern of
    // `push_event` (clone) and `absorb_read` (join).
    let (a, b) = sample_clocks();
    let (_, dt, da) = measured(|| {
        let mut sink = 0u64;
        for _ in 0..iters {
            let mut c = a.clone();
            c.join(&b);
            sink = sink.wrapping_add(u64::from(c.vc.get(Tid(0))));
        }
        sink
    });
    push("clock_join", iters, dt, da);

    // clock_includes: the dominance test guarding the join fast path.
    let (a, b) = sample_clocks();
    let mut joined = a.clone();
    joined.join(&b);
    let (_, dt, da) = measured(|| {
        let mut sink = 0u64;
        for _ in 0..iters {
            sink = sink.wrapping_add(u64::from(joined.vc.includes(&a.vc)));
            sink = sink.wrapping_add(u64::from(a.vc.includes(&joined.vc)));
        }
        sink
    });
    push("clock_includes", iters, dt, da);

    // load_candidates: rf-candidate enumeration against a fixed history.
    let (st, tid, loc) = sample_memstate();
    let (_, dt, da) = measured(|| {
        let mut sink = 0usize;
        for _ in 0..iters {
            sink = sink.wrapping_add(st.load_candidates(tid, loc, MemOrd::Acquire).len());
        }
        sink
    });
    push("load_candidates", iters, dt, da);

    // push_event: event append incl. the per-event clock snapshot
    // (exercised through the public store path).
    let (_, dt, da) = measured(|| {
        let mut st = MemState::new();
        let loc = st.alloc_atomic(Tid::MAIN, Some(0));
        for i in 0..iters {
            st.apply_store(Tid::MAIN, loc, MemOrd::Relaxed, i);
        }
        st.trace.len()
    });
    push("push_event", iters, dt, da);

    // relations_finalize: the per-feasible-execution finalize work —
    // offline axiom validation (the full O(n²) oracle), the rf-class
    // signature, and method-call ordering — over a canned annotated
    // MPMC execution. Iterations are scaled down: validate dominates.
    let trace = canned_mpmc_trace();
    let calls = cdsspec_core::extract_calls(&trace).expect("canned trace annotates cleanly");
    assert!(
        cdsspec_c11::relations::validate(&trace, true).is_empty(),
        "canned MPMC trace must satisfy the axioms"
    );
    let fin_iters = (iters / 10).max(1);
    let (_, dt, da) = measured(|| {
        let mut sink = 0u64;
        for _ in 0..fin_iters {
            sink += cdsspec_c11::relations::validate(&trace, true).len() as u64;
            sink = sink.wrapping_add(cdsspec_c11::relations::rf_signature(&trace));
            sink += u64::from(cdsspec_core::build_call_order(&trace, &calls).cyclic());
        }
        sink
    });
    push("relations_finalize", fin_iters, dt, da);

    rows
}

struct Args {
    variant: String,
    out: PathBuf,
    baseline: Option<PathBuf>,
    smoke: bool,
    guard: Option<PathBuf>,
    watchdog: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        variant: "dev".into(),
        out: PathBuf::from("BENCH_hotpath.json"),
        baseline: None,
        smoke: false,
        guard: None,
        watchdog: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--variant" => args.variant = val("--variant")?,
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--baseline" => args.baseline = Some(PathBuf::from(val("--baseline")?)),
            "--smoke" => args.smoke = true,
            "--guard" => args.guard = Some(PathBuf::from(val("--guard")?)),
            // Measure the figure7 probes with `Config::default`'s hang
            // watchdog armed (micro probes are host-independent and are
            // skipped). Pair with `--variant fiber-watchdog` to record
            // the A/B rows against the watchdog-free variant.
            "--watchdog" => args.watchdog = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hotpath: {e}");
            exit(2);
        }
    };

    let (benches, worker_counts, iters) = if args.smoke {
        (SMOKE_BENCHES, &[1usize][..], 20_000u64)
    } else {
        (PROBE_BENCHES, &[1usize, 2][..], 200_000u64)
    };

    // Regression-guard mode: re-measure allocations/execution for the
    // figure7 probes at one worker (allocation counts there are near
    // deterministic — no stealing noise) and fail when any probe exceeds
    // the best committed value by more than 10%. exec/sec is *not*
    // guarded: wall-clock on shared CI runners is far noisier than the
    // allocation count, which only changes when the code does.
    if let Some(path) = &args.guard {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "hotpath: cannot read guard baseline {}: {e}",
                    path.display()
                );
                exit(1);
            }
        };
        let committed = extract_bench_rows(&text);
        let mut failed = false;
        for name in benches {
            let row = figure7_probe(name, 1, "guard", args.watchdog);
            let best = committed
                .iter()
                .filter(|r| r.probe == row.probe && r.workers == 1 && r.allocations > 0)
                .map(|r| r.allocs_per_exec)
                .fold(f64::INFINITY, f64::min);
            if !best.is_finite() {
                eprintln!(
                    "{:<28} {:>8.1} allocs/exec (no committed baseline)",
                    row.probe, row.allocs_per_exec
                );
                continue;
            }
            let verdict = if row.allocs_per_exec > best * 1.10 {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!(
                "{:<28} {:>8.1} allocs/exec vs committed best {:>8.1} ({verdict})",
                row.probe, row.allocs_per_exec, best
            );
        }
        if failed {
            eprintln!(
                "hotpath: allocation regression > 10% against {}",
                path.display()
            );
            exit(1);
        }
        return;
    }

    let mut rows = Vec::new();
    for &w in worker_counts {
        for name in benches {
            let row = figure7_probe(name, w, &args.variant, args.watchdog);
            eprintln!(
                "{:<28} workers={} {:>9} exec {:>10.0} exec/s {:>8.1} allocs/exec",
                row.probe, row.workers, row.executions, row.exec_per_sec, row.allocs_per_exec
            );
            rows.push(row);
        }
    }
    if !args.watchdog {
        for row in micro_probes(&args.variant, iters) {
            eprintln!(
                "{:<28} workers={} {:>9} iter {:>10.0} iter/s {:>8.1} allocs/iter",
                row.probe, row.workers, row.executions, row.exec_per_sec, row.allocs_per_exec
            );
            rows.push(row);
        }
    }

    // Carry forward baseline rows this run did not re-measure.
    if let Some(path) = &args.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hotpath: cannot read baseline {}: {e}", path.display());
                exit(1);
            }
        };
        let fresh: Vec<(String, String, usize)> = rows
            .iter()
            .map(|r| (r.probe.clone(), r.variant.clone(), r.workers))
            .collect();
        let mut kept = 0;
        let mut merged = Vec::new();
        for old in extract_bench_rows(&text) {
            let key = (old.probe.clone(), old.variant.clone(), old.workers);
            if !fresh.contains(&key) {
                merged.push(old);
                kept += 1;
            }
        }
        eprintln!("carried {kept} baseline row(s) from {}", path.display());
        merged.extend(rows);
        rows = merged;
    }

    if let Err(e) = std::fs::write(&args.out, render_bench_json(&rows)) {
        eprintln!("hotpath: cannot write {}: {e}", args.out.display());
        exit(1);
    }
    eprintln!("wrote {} row(s) to {}", rows.len(), args.out.display());
}
