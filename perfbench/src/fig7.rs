//! `fig7-w1` / `fig7-w2`: all ten registry benchmarks checked
//! exhaustively with correct orderings through `Benchmark::check_default`,
//! configured as the `figure7` binary configures them.

use std::time::{Duration, Instant};

use cdsspec_mc::{self as mc, Stats};
use cdsspec_structures::registry::{benchmarks, Benchmark};

use crate::expected::{verdict_of, Expected};
use crate::traced::{layer_metrics, median_pair, traced_check, LayerTotals, Pair, TRACE_PAIRS};
use crate::util::{median, metric, peak_rss_mb, Metric, RunResult, SeedRng};
use crate::{alloc, Args, SETUP_REPS};

/// Checked once per set-up, so lazy fiber-pool and watchdog set-up is
/// done before timing starts. A warm-up of ~100 ms rather than one of
/// ~1 ms keeps `setup_s` out of the scheduler noise of a shared machine.
pub const WARM_UP_BENCH: &str = "MPMC Queue";

fn config(workers: usize) -> mc::Config {
    mc::Config {
        max_executions: 3_000_000,
        workers,
        ..mc::Config::default()
    }
}

/// Registry build plus one warm-up exploration, timed `SETUP_REPS`
/// times; returns the registry and the set-up times.
fn set_up(workers: usize) -> (Vec<Benchmark>, Vec<f64>) {
    let mut times = Vec::new();
    let mut benches = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        benches = benchmarks();
        let warm = benches
            .iter()
            .find(|b| b.name == WARM_UP_BENCH)
            .expect("warm-up benchmark is registered");
        std::hint::black_box(warm.check_default(config(workers)));
        times.push(t0.elapsed().as_secs_f64());
    }
    (benches, times)
}

/// The counts a traced run must reproduce.
#[derive(PartialEq, Debug)]
struct Counts {
    executions: u64,
    feasible: u64,
    rf_classes: usize,
    verdict: String,
}

fn counts(stats: &Stats) -> Counts {
    Counts {
        executions: stats.executions,
        feasible: stats.feasible,
        rf_classes: stats.rf_classes.len(),
        verdict: verdict_of(stats, "clean"),
    }
}

/// One pass over `order`: per-benchmark stats.
struct Pass {
    wall: Duration,
    rows: Vec<(usize, Stats)>,
}

fn run_pass(benches: &[Benchmark], order: &[usize], workers: usize) -> Pass {
    let t0 = Instant::now();
    let rows = order
        .iter()
        .map(|&i| (i, benches[i].check_default(config(workers))))
        .collect();
    Pass {
        wall: t0.elapsed(),
        rows,
    }
}

/// Compare a pass's verdicts with the reference; returns the failures.
fn check_verdicts(benches: &[Benchmark], pass: &Pass, expected: &Expected) -> u64 {
    let mut failed = 0;
    for (i, stats) in &pass.rows {
        let name = benches[*i].name;
        let got = verdict_of(stats, "clean");
        match expected.fig7_verdict(name) {
            Some(want) if want == got => {}
            want => {
                eprintln!("MISMATCH fig7 {name}: expected {want:?}, got {got:?}");
                failed += 1;
            }
        }
    }
    failed
}

pub fn run(args: &Args, workers: usize, expected: &Expected) -> Result<RunResult, String> {
    let mut rng = SeedRng::new(args.seed);
    let (benches, setups) = set_up(workers);
    eprintln!(
        "fig7-w{workers}: seed={} setup_s median {:.4} over {} set-ups",
        args.seed,
        median(&setups),
        setups.len()
    );
    if args.trace {
        return run_traced(&benches, workers, &mut rng, expected);
    }

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss_first_pass = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let order = rng.permutation(benches.len());
        passes.push(run_pass(&benches, &order, workers));
        if passes.len() == 1 {
            rss_first_pass = peak_rss_mb();
        }
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut reference: Vec<Option<Counts>> = (0..benches.len()).map(|_| None).collect();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    for (k, pass) in passes.iter().enumerate() {
        attempted += pass.rows.len() as u64;
        failed += check_verdicts(&benches, pass, expected);
        let (mut execs, mut explore) = (0u64, 0f64);
        for (i, stats) in &pass.rows {
            // Exhaustive exploration is deterministic: every pass must
            // count exactly what the first one did.
            let c = counts(stats);
            match &reference[*i] {
                None => reference[*i] = Some(c),
                Some(first) if *first == c => {}
                Some(first) => {
                    eprintln!(
                        "MISMATCH fig7 {} pass {k}: {c:?} vs {first:?}",
                        benches[*i].name
                    );
                    failed += 1;
                }
            }
            execs += stats.executions;
            explore += stats.elapsed.as_secs_f64();
        }
        walls.push(pass.wall.as_secs_f64());
        rates.push(execs as f64 / explore);
        eprintln!(
            "pass {k}: wall {:.4} s, {execs} executions at {:.0} exec/s",
            pass.wall.as_secs_f64(),
            execs as f64 / explore
        );
    }
    eprintln!(
        "{} passes; peak RSS {rss_first_pass:.1} MB after one pass, {:.1} MB at the end; \
         fail_frac {failed}/{attempted}",
        passes.len(),
        peak_rss_mb()
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric("wall_s", median(&walls), "s"),
            metric("exec_per_s", median(&rates), "exec/s"),
            metric("peak_rss_mb", rss_first_pass, "MB"),
        ],
    })
}

/// `TRACE_PAIRS` times: one untraced pass, then the same order through
/// the traced path, whose counts and verdicts must equal the untraced
/// ones. Walls are medians; layer metrics come from the median pair.
fn run_traced(
    benches: &[Benchmark],
    workers: usize,
    rng: &mut SeedRng,
    expected: &Expected,
) -> Result<RunResult, String> {
    let mut failed = 0;
    let mut pairs = Vec::new();
    for _ in 0..TRACE_PAIRS {
        let order = rng.permutation(benches.len());
        let untraced = run_pass(benches, &order, workers);
        failed += check_verdicts(benches, &untraced, expected);

        let mut totals = LayerTotals::new(workers);
        alloc::set_enabled(true);
        for (i, stats) in &untraced.rows {
            let bench = &benches[*i];
            let traced = traced_check(bench.name, bench.default_ords(), &config(workers))?;
            let (want, got) = (counts(stats), counts(&traced.stats));
            if want != got {
                eprintln!(
                    "MISMATCH traced {}: {got:?} vs untraced {want:?}",
                    bench.name
                );
                failed += 1;
            }
            totals.add(bench.name, &traced);
        }
        alloc::set_enabled(false);
        pairs.push(Pair {
            untraced_wall: untraced.wall.as_secs_f64(),
            traced_wall: totals.origin.elapsed().as_secs_f64(),
            totals,
            first_bug_ms: Vec::new(),
        });
    }
    let (untraced_wall, pair) = median_pair(pairs);
    pair.report("pass");
    let mut metrics = layer_metrics(&pair.totals, 0.0);
    metrics.extend(no_campaign());
    metrics.extend(trace_metrics(pair.traced_wall, untraced_wall));
    Ok(RunResult {
        attempted: (2 * TRACE_PAIRS * benches.len()) as u64,
        failed,
        metrics,
    })
}

/// The campaign layer does no work on this path.
pub fn no_campaign() -> Vec<Metric> {
    [
        ("campaign.cold_ms_p50", "ms"),
        ("campaign.cold_ms_p75", "ms"),
        ("campaign.serve_ms_p50", "ms"),
        ("campaign.serve_ms_p75", "ms"),
        ("campaign.overhead_ms_p50", "ms"),
        ("campaign.dispatches", "count"),
        ("campaign.cache_hits", "count"),
        ("campaign.requeues", "count"),
        ("campaign.self_s", "s"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit))
    .collect()
}

pub fn trace_metrics(traced_wall: f64, untraced_wall: f64) -> Vec<Metric> {
    vec![
        metric("trace.wall_s", traced_wall, "s"),
        metric("trace.untraced_wall_s", untraced_wall, "s"),
        metric("trace.overhead_s", traced_wall - untraced_wall, "s"),
    ]
}
