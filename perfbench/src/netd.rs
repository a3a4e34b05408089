//! `inject-netd`: the full Figure 8 sweep (every injectable site of
//! every benchmark, weakened one step) served by an in-process
//! `cdsspec-netd` daemon on loopback with two attached TCP workers.
//!
//! One closed-loop client sends every request once cold (a cache miss
//! that dispatches to a worker) and then again warm (served from the
//! daemon's result cache), each pass in a seed-permuted order. Every
//! cycle gets a fresh daemon and a fresh, empty cache directory.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cdsspec_campaign::net::{attach_worker, remote_campaign, request_status, AttachOpts};
use cdsspec_campaign::{
    run_daemon_on, CampaignRequest, DaemonOpts, SupervisorOpts, WorkerOpts, EXIT_BUG, EXIT_CLEAN,
};
use cdsspec_mc as mc;
use cdsspec_structures::registry::{benchmarks, Benchmark};

use crate::expected::{category_of_message, verdict_of, Expected};
use crate::fig7::{trace_metrics, WARM_UP_BENCH};
use crate::traced::{layer_metrics, median_pair, traced_check, LayerTotals, Pair, TRACE_PAIRS};
use crate::util::{median, metric, peak_rss_mb, quantile, RunResult, SeedRng};
use crate::{alloc, Args, SETUP_REPS};

/// Attached TCP workers (the machine this was tuned on has 2 cores).
const WORKERS: usize = 2;

/// Warm passes per cycle. Serving a warm pass takes milliseconds, so
/// several give the warm percentiles enough samples.
const WARM_PASSES: usize = 10;

/// Execution cap per injection trial, as the `figure8` binary sets it.
const MAX_EXECUTIONS: u64 = 300_000;

/// One Figure 8 injection: a benchmark with one site weakened one step.
struct Injection {
    bench: &'static str,
    site_idx: usize,
    site: &'static str,
    weakening: String,
}

/// The sweep, from the registry and its ordering tables' own site
/// enumeration.
fn injections(benches: &[Benchmark]) -> Vec<Injection> {
    let mut out = Vec::new();
    for b in benches {
        let defaults = b.default_ords();
        for site_idx in defaults.injectable_sites() {
            let mut ords = defaults.clone();
            if !ords.weaken(site_idx) {
                continue;
            }
            out.push(Injection {
                bench: b.name,
                site_idx,
                site: b.sites[site_idx].name,
                weakening: format!(
                    "{} -> {}",
                    defaults.get(site_idx).name(),
                    ords.get(site_idx).name()
                ),
            });
        }
    }
    out
}

fn request(bench: &str, weaken: Vec<usize>) -> CampaignRequest {
    CampaignRequest {
        bench_filter: Some(vec![bench.to_string()]),
        split: 0,
        max_executions: MAX_EXECUTIONS,
        // Unmasked, so the report carries each row's exploration time.
        stable: false,
        weaken,
    }
}

/// A daemon on a thread plus its attached workers.
struct Service {
    addr: String,
    daemon: JoinHandle<Result<i32, String>>,
    cache: PathBuf,
}

/// Bind, serve, attach the workers, and send one warm-up request, so
/// lazy set-up in daemon and workers is done before timing starts. The
/// daemon exits by itself after `campaigns` requests (warm-up
/// included). Attached workers stay blocked on their idle connections
/// until the process exits: the campaign API has no call that detaches
/// them.
fn start(cache: PathBuf, campaigns: u64) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(&cache);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let opts = DaemonOpts {
        listen: addr.clone(),
        cache_dir: Some(cache.clone()),
        sup: SupervisorOpts {
            workers: WORKERS,
            ..SupervisorOpts::default()
        },
        max_campaigns: Some(campaigns),
    };
    let daemon = std::thread::spawn(move || run_daemon_on(listener, opts));
    for _ in 0..WORKERS {
        let opts = AttachOpts {
            addr: addr.clone(),
            worker: WorkerOpts {
                heartbeat: Duration::from_millis(500),
                worker_threads: 1,
                poison: None,
            },
            reconnect_budget: Duration::from_millis(200),
        };
        std::thread::spawn(move || attach_worker(&opts));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request_status(&addr) {
            Ok(s) if s.workers.len() >= WORKERS => break,
            _ if Instant::now() > deadline => return Err("workers never attached".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let mut report = Vec::new();
    let (code, _) = remote_campaign(&addr, &request(WARM_UP_BENCH, Vec::new()), &mut report)?;
    if code != EXIT_CLEAN {
        return Err(format!("warm-up request exited {code}"));
    }
    Ok(Service {
        addr,
        daemon,
        cache,
    })
}

impl Service {
    fn finish(self) -> Result<(), String> {
        let joined = self.daemon.join();
        let _ = std::fs::remove_dir_all(&self.cache);
        match joined {
            Ok(Ok(0)) => Ok(()),
            Ok(Ok(code)) => Err(format!("daemon exited {code}")),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One benchmark row of a campaign report.
struct Row {
    executions: u64,
    feasible: u64,
    stop: String,
    time_ms: f64,
    verdict: String,
}

/// Parse a `{:.2?}`-rendered duration (`12.34µs`, `1.50ms`, `2.10s`).
fn parse_duration_ms(s: &str) -> Option<f64> {
    for (unit, scale) in [("ns", 1e-6), ("µs", 1e-3), ("ms", 1.0), ("s", 1e3)] {
        if let Some(v) = s.strip_suffix(unit) {
            return v.parse::<f64>().ok().map(|v| v * scale);
        }
    }
    None
}

fn parse_row(report: &str, bench: &str) -> Option<Row> {
    let line = report
        .lines()
        .find(|l| l.starts_with(bench) && l[bench.len()..].starts_with(' '))?;
    let f: Vec<&str> = line[bench.len()..].split_whitespace().collect();
    let (executions, feasible, bugs) =
        (f.first()?.parse().ok()?, f.get(1)?.parse().ok()?, f.get(3)?);
    let stop = f.get(4)?.to_string();
    let time_ms = parse_duration_ms(f.get(5)?)?;
    let first_bug = report
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("bug: "));
    let verdict = match (bugs.parse::<u64>().ok()?, first_bug) {
        (0, _) if stop == "exhausted" => "undetected".to_string(),
        (0, _) => format!("incomplete ({stop})"),
        (_, Some(msg)) => format!("detected {}", category_of_message(msg)),
        (_, None) => return None,
    };
    Some(Row {
        executions,
        feasible,
        stop,
        time_ms,
        verdict,
    })
}

/// One `key=value` counter of a `campaign-summary:` line.
fn summary_field(summary: &str, key: &str) -> Option<u64> {
    let tag = format!("{key}=");
    summary
        .lines()
        .find(|l| l.starts_with("campaign-summary:"))?
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&tag))?
        .parse()
        .ok()
}

/// A served request as the client saw it.
struct Sample {
    latency_ms: f64,
    report: String,
    row: Option<Row>,
    dispatches: u64,
    cache_hits: u64,
    requeues: u64,
    ok: bool,
}

fn send(svc: &Service, inj: &Injection, expected: &Expected) -> Sample {
    let mut report = Vec::new();
    let t0 = Instant::now();
    let reply = remote_campaign(
        &svc.addr,
        &request(inj.bench, vec![inj.site_idx]),
        &mut report,
    );
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = String::from_utf8_lossy(&report).into_owned();
    let (code, summary) = match reply {
        Ok(r) => r,
        Err(e) => {
            eprintln!("REFUSED {} {}: {e}", inj.bench, inj.site);
            (-1, String::new())
        }
    };
    let row = parse_row(&report, inj.bench);
    let field = |k| summary_field(&summary, k).unwrap_or(u64::MAX);
    let want = expected.injection(inj.bench, inj.site);
    let ok = match (&row, want) {
        (Some(row), Some(want)) => {
            let detected = row.verdict.starts_with("detected");
            let code_ok = code == if detected { EXIT_BUG } else { EXIT_CLEAN };
            code_ok && row.verdict == want.verdict && inj.weakening == want.weakening
        }
        _ => false,
    };
    if !ok {
        eprintln!(
            "MISMATCH inject {} {} ({}): exit {code}, got {:?}, expected {:?}",
            inj.bench,
            inj.site,
            inj.weakening,
            row.as_ref().map(|r| r.verdict.as_str()),
            want.map(|w| (w.weakening.as_str(), w.verdict.as_str()))
        );
    }
    Sample {
        latency_ms,
        report,
        dispatches: field("dispatches"),
        cache_hits: field("cache_hits"),
        requeues: field("requeues"),
        row,
        ok,
    }
}

/// A cold pass and `WARM_PASSES` warm passes over the sweep.
struct Cycle {
    wall: Duration,
    /// Indexed like the sweep.
    cold: Vec<Sample>,
    /// Warm pass after warm pass, each indexed like the sweep.
    warm: Vec<Sample>,
    failed: u64,
}

fn run_cycle(svc: &Service, sweep: &[Injection], rng: &mut SeedRng, expected: &Expected) -> Cycle {
    let t0 = Instant::now();
    let pass = |order: Vec<usize>| {
        let mut out: Vec<Option<Sample>> = (0..sweep.len()).map(|_| None).collect();
        for i in order {
            out[i] = Some(send(svc, &sweep[i], expected));
        }
        out.into_iter()
            .map(|s| s.expect("every request sent"))
            .collect::<Vec<_>>()
    };
    let cold = pass(rng.permutation(sweep.len()));
    let mut warm = Vec::new();
    for _ in 0..WARM_PASSES {
        warm.extend(pass(rng.permutation(sweep.len())));
    }
    let wall = t0.elapsed();
    // Cold: computed live by a worker. Warm: served from the cache,
    // byte-identical to the live report, dispatching nothing.
    let mut failed = cold
        .iter()
        .filter(|c| !c.ok || c.cache_hits != 0 || c.dispatches == 0)
        .count() as u64;
    for (k, w) in warm.iter().enumerate() {
        let (i, c) = (k % sweep.len(), &cold[k % sweep.len()]);
        if !w.ok || w.report != c.report || w.cache_hits != 1 || w.dispatches != 0 {
            eprintln!(
                "MISMATCH warm {} {}: not served as cached",
                sweep[i].bench, sweep[i].site
            );
            failed += 1;
        }
    }
    Cycle {
        wall,
        cold,
        warm,
        failed,
    }
}

/// Expected injections the sweep does not enumerate are failures too.
fn missing_from_sweep(sweep: &[Injection], expected: &Expected) -> u64 {
    let mut missing = 0;
    for e in &expected.inject {
        if !sweep.iter().any(|i| i.bench == e.bench && i.site == e.site) {
            eprintln!(
                "MISMATCH inject {} {}: expected but not enumerated",
                e.bench, e.site
            );
            missing += 1;
        }
    }
    missing
}

fn scratch_dir() -> PathBuf {
    Path::new(".perfbench-tmp").join(format!("netd-{}", std::process::id()))
}

/// One timed set-up: registry build, sweep enumeration, and a service
/// ready to serve `campaigns` requests (warm-up included).
fn set_up(cache: PathBuf, campaigns: u64) -> Result<(Vec<Injection>, Service, f64), String> {
    let t0 = Instant::now();
    let sweep = injections(&benchmarks());
    let svc = start(cache, campaigns)?;
    Ok((sweep, svc, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, expected: &Expected) -> Result<RunResult, String> {
    let mut rng = SeedRng::new(args.seed);
    let scratch = scratch_dir();
    let requests = injections(&benchmarks()).len() as u64;
    let campaigns_per_cycle = 1 + (1 + WARM_PASSES as u64) * requests;

    // All but the last of the first set-ups serve only their warm-up;
    // the last serves cycle 0, and every later cycle gets a fresh one.
    let mut setups = Vec::new();
    for k in 0..SETUP_REPS - 1 {
        let (_, svc, secs) = set_up(scratch.join(format!("cache-{k}")), 1)?;
        svc.finish()?;
        setups.push(secs);
    }
    let (sweep, first, secs) = set_up(
        scratch.join(format!("cache-{}", SETUP_REPS - 1)),
        campaigns_per_cycle,
    )?;
    setups.push(secs);
    let mut svc = Some(first);
    eprintln!(
        "inject-netd: seed={} {} injections, {} workers",
        args.seed,
        sweep.len(),
        WORKERS
    );
    let mut failed = missing_from_sweep(&sweep, expected);
    let mut attempted = failed;

    let start_t = Instant::now();
    let mut cycles = Vec::new();
    let mut rss_first_cycle = 0.0;
    let mut k = SETUP_REPS;
    loop {
        let s = svc.take().expect("service for this cycle");
        let cycle = run_cycle(&s, &sweep, &mut rng, expected);
        s.finish()?;
        eprintln!(
            "cycle {}: wall {:.4} s, failed {}",
            cycles.len(),
            cycle.wall.as_secs_f64(),
            cycle.failed
        );
        cycles.push(cycle);
        if cycles.len() == 1 {
            rss_first_cycle = peak_rss_mb();
        }
        if args.trace || start_t.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let (_, next, secs) = set_up(scratch.join(format!("cache-{k}")), campaigns_per_cycle)?;
        svc = Some(next);
        setups.push(secs);
        k += 1;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Gone unless another run shares the working directory.
    let _ = std::fs::remove_dir(scratch.parent().expect("scratch has a parent"));

    let lat = |pick: fn(&Cycle) -> &Vec<Sample>| -> Vec<f64> {
        cycles
            .iter()
            .flat_map(|c| pick(c).iter().map(|s| s.latency_ms))
            .collect()
    };
    let (cold, warm) = (lat(|c| &c.cold), lat(|c| &c.warm));
    // Request latencies are reported by the traced run (per layer, not
    // gated): on a shared host they drift more than any bound allows.
    eprintln!(
        "latency ms: cold p50 {:.3} p75 {:.3} ({} samples), warm p50 {:.3} p75 {:.3} ({} samples)",
        quantile(&cold, 0.5),
        quantile(&cold, 0.75),
        cold.len(),
        quantile(&warm, 0.5),
        quantile(&warm, 0.75),
        warm.len()
    );
    for c in &cycles {
        attempted += (c.cold.len() + c.warm.len()) as u64;
        failed += c.failed;
    }
    eprintln!(
        "{} cycles: {} cold and {} warm samples; setup_s median {:.4} over {} set-ups; \
         peak RSS {rss_first_cycle:.1} MB after one cycle, {:.1} MB at the end; \
         fail_frac {failed}/{attempted}",
        cycles.len(),
        cold.len(),
        warm.len(),
        median(&setups),
        setups.len(),
        peak_rss_mb()
    );

    if args.trace {
        return run_traced(&sweep, &cycles[0], attempted, failed);
    }
    let rows = || {
        cycles
            .iter()
            .flat_map(|c| c.cold.iter().filter_map(|s| s.row.as_ref()))
    };
    let execs: u64 = rows().map(|r| r.executions).sum();
    let explore_s: f64 = rows().map(|r| r.time_ms / 1e3).sum();
    let walls: Vec<f64> = cycles.iter().map(|c| c.wall.as_secs_f64()).collect();
    Ok(RunResult {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric("wall_s", median(&walls), "s"),
            metric("exec_per_s", execs as f64 / explore_s, "exec/s"),
            metric("peak_rss_mb", rss_first_cycle, "MB"),
        ],
    })
}

/// The traced run: campaign metrics from the served cycle, then the
/// sweep replayed in process, untraced through `Benchmark::check` and
/// traced through the rebuilt suites, for the `mc`, `c11` and `core`
/// split. Replayed counts and verdicts must equal the served ones.
fn run_traced(
    sweep: &[Injection],
    cycle: &Cycle,
    mut attempted: u64,
    mut failed: u64,
) -> Result<RunResult, String> {
    let benches = benchmarks();
    let config = mc::Config {
        max_executions: MAX_EXECUTIONS,
        workers: 1,
        ..mc::Config::default()
    };
    let bench_of = |name: &str| benches.iter().find(|b| b.name == name).expect("registered");
    let ords_of = |inj: &Injection| {
        let mut ords = bench_of(inj.bench).default_ords();
        ords.weaken(inj.site_idx);
        ords
    };

    let mut pairs = Vec::new();
    for _ in 0..TRACE_PAIRS {
        let t0 = Instant::now();
        let untraced: Vec<mc::Stats> = sweep
            .iter()
            .map(|inj| (bench_of(inj.bench).check)(config.clone(), ords_of(inj)))
            .collect();
        let untraced_wall = t0.elapsed().as_secs_f64();

        let mut totals = LayerTotals::new(1);
        let mut first_bug_ms = Vec::new();
        alloc::set_enabled(true);
        for (i, inj) in sweep.iter().enumerate() {
            let traced = traced_check(inj.bench, ords_of(inj), &config)?;
            let s = &traced.stats;
            let verdict = verdict_of(s, "undetected");
            let served = cycle.cold[i].row.as_ref();
            let same_as_served = served.is_some_and(|r| {
                (r.executions, r.feasible, &r.verdict) == (s.executions, s.feasible, &verdict)
            });
            let u = &untraced[i];
            let same_as_untraced = (u.executions, u.feasible, u.rf_classes.len())
                == (s.executions, s.feasible, s.rf_classes.len())
                && verdict_of(u, "undetected") == verdict;
            attempted += 1;
            if !same_as_served || !same_as_untraced {
                eprintln!(
                    "MISMATCH traced {} {}: {} executions, {verdict} vs served {:?}",
                    inj.bench,
                    inj.site,
                    s.executions,
                    served.map(|r| (r.executions, r.stop.as_str(), r.verdict.as_str()))
                );
                failed += 1;
            }
            if !s.bugs.is_empty() {
                first_bug_ms.push(s.elapsed.as_secs_f64() * 1e3);
            }
            totals.add(&format!("{} {}", inj.bench, inj.site), &traced);
        }
        alloc::set_enabled(false);
        pairs.push(Pair {
            untraced_wall,
            traced_wall: totals.origin.elapsed().as_secs_f64(),
            totals,
            first_bug_ms,
        });
    }
    let (untraced_wall, pair) = median_pair(pairs);
    pair.report("replay");

    // Campaign layer: client latency minus the exploration the report
    // says the row took (cold), and the whole latency of a cache hit
    // (warm).
    let overhead: Vec<f64> = cycle
        .cold
        .iter()
        .filter_map(|s| s.row.as_ref().map(|r| s.latency_ms - r.time_ms))
        .collect();
    let cold: Vec<f64> = cycle.cold.iter().map(|s| s.latency_ms).collect();
    let serve: Vec<f64> = cycle.warm.iter().map(|s| s.latency_ms).collect();
    let sum = |f: fn(&Sample) -> u64| -> f64 {
        cycle.cold.iter().chain(&cycle.warm).map(f).sum::<u64>() as f64
    };
    let campaign_self_s = (overhead.iter().sum::<f64>() + serve.iter().sum::<f64>()) / 1e3;
    let explore_s: f64 = cycle
        .cold
        .iter()
        .filter_map(|s| s.row.as_ref())
        .map(|r| r.time_ms / 1e3)
        .sum();
    eprintln!(
        "served cycle {:.4} s = campaign {campaign_self_s:.4} + exploration {explore_s:.4}",
        cycle.wall.as_secs_f64()
    );
    for (i, s) in cycle.cold.iter().enumerate() {
        eprintln!(
            "span layer=campaign parent=cold-pass name=\"{} {}\" dur_ms={:.3} explore_ms={:.3}",
            sweep[i].bench,
            sweep[i].site,
            s.latency_ms,
            s.row.as_ref().map_or(0.0, |r| r.time_ms)
        );
    }

    let mut metrics = layer_metrics(&pair.totals, median(&pair.first_bug_ms));
    metrics.extend([
        metric("campaign.cold_ms_p50", quantile(&cold, 0.5), "ms"),
        metric("campaign.cold_ms_p75", quantile(&cold, 0.75), "ms"),
        metric("campaign.serve_ms_p50", quantile(&serve, 0.5), "ms"),
        metric("campaign.serve_ms_p75", quantile(&serve, 0.75), "ms"),
        metric("campaign.overhead_ms_p50", median(&overhead), "ms"),
        metric("campaign.dispatches", sum(|s| s.dispatches), "count"),
        metric("campaign.cache_hits", sum(|s| s.cache_hits), "count"),
        metric("campaign.requeues", sum(|s| s.requeues), "count"),
        metric("campaign.self_s", campaign_self_s, "s"),
    ]);
    metrics.extend(trace_metrics(pair.traced_wall, untraced_wall));
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}
