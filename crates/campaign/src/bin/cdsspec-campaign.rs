//! `cdsspec-campaign` — fault-tolerant multi-process checking campaigns.
//!
//! ```text
//! cdsspec-campaign [--bench A,B] [--workers N] [--worker-threads N]
//!                  [--split N] [--max-executions N] [--stable]
//!                  [--journal PATH] [--cache-dir DIR] [--in-process]
//!                  [--lease-ms N] [--heartbeat-ms N] [--max-attempts N]
//!                  [--chaos-kill-pct P] [--chaos-seed S] [--weaken S1,S2]
//!                  [--connect ADDR [--status]]
//!                  [--attach ADDR [--reconnect-ms N]]
//! ```
//!
//! Exit codes are documented on the `cdsspec_campaign` crate root
//! (`0` clean, `1` error, `2` bug found, `3` resumable).
//!
//! Networked modes (see the README daemon quickstart):
//! `--connect ADDR` runs the campaign on a `cdsspec-netd` daemon
//! (`--status` instead asks for its counters); `--attach ADDR` turns
//! this process into a TCP worker serving that daemon.
//!
//! Hidden flags (used by the supervisor and the fault-injection tests):
//! `--worker-mode`, `--poison BENCH`, `--halt-after N`.
//!
//! One parser reads every flag. A worker — `--worker-mode` on
//! stdin/stdout, or `--attach ADDR` over TCP — takes its heartbeat,
//! explorer threads and poison from the same `--heartbeat-ms`,
//! `--worker-threads` and `--poison` values a campaign forwards to its
//! subprocesses.

use cdsspec_campaign::frame::FrameError;
use cdsspec_campaign::net::{attach_worker, remote_campaign, request_status};
use cdsspec_campaign::worker::serve;
use cdsspec_campaign::{
    run_campaign, AttachOpts, CampaignOpts, CampaignRequest, WorkerOpts, EXIT_ERROR,
};
use std::time::Duration;

const USAGE: &str = "usage: cdsspec-campaign [options]
  --bench A,B          only these benchmarks (registry names, comma-separated)
  --workers N          worker subprocess slots (default 2)
  --worker-threads N   explorer threads inside each task (default 1)
  --split N            probe cap; leftover frontier fans out as shard tasks (0 = off)
  --max-executions N   execution cap per task (default 1000000)
  --stable             mask wall-clock times (byte-stable output)
  --journal PATH       append-only campaign journal (resume by re-running)
  --cache-dir DIR      content-addressed result cache
  --in-process         run tasks in this process (no subprocesses)
  --lease-ms N         lease duration in ms (default 30000)
  --heartbeat-ms N     worker heartbeat interval in ms (default 500)
  --max-attempts N     dispatch attempts per shard before quarantine (default 3)
  --chaos-kill-pct P   kill a worker after P% of first dispatches (testing)
  --chaos-seed S       seed for the chaos RNG
  --weaken S1,S2       weaken these ordering-site indices one step before
                       checking (fault injection; sites must exist in every
                       selected benchmark)
networked modes:
  --connect ADDR       run the campaign on a cdsspec-netd daemon at ADDR
  --connect ADDR --status
                       print the daemon's counters instead
  --attach ADDR        become a TCP worker for the daemon at ADDR
                       (honors --heartbeat-ms, --worker-threads;
                        --reconnect-ms N bounds reconnect retries, default 10000)
exit codes: 0 clean, 1 error, 2 bug found, 3 resumable";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(args));
}

fn run(args: Vec<String>) -> i32 {
    let mut opts = CampaignOpts::default();
    let mut connect: Option<String> = None;
    let mut status = false;
    let mut worker_mode = false;
    let mut attach: Option<String> = None;
    let mut reconnect_ms: Option<u64> = None;
    let mut it = args.into_iter();
    let missing = |flag: &str| {
        eprintln!("cdsspec-campaign: {flag} needs a value\n{USAGE}");
        EXIT_ERROR
    };
    while let Some(arg) = it.next() {
        macro_rules! value {
            () => {
                match it.next() {
                    Some(v) => v,
                    None => return missing(&arg),
                }
            };
        }
        macro_rules! parse {
            ($ty:ty) => {
                match value!().parse::<$ty>() {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("cdsspec-campaign: bad value for {arg}: {e}");
                        return EXIT_ERROR;
                    }
                }
            };
        }
        match arg.as_str() {
            "--bench" => {
                opts.bench_filter =
                    Some(value!().split(',').map(|s| s.trim().to_string()).collect());
            }
            "--workers" => opts.sup.workers = parse!(usize),
            "--worker-threads" => opts.worker_threads = parse!(usize),
            "--split" => opts.split = parse!(u64),
            "--max-executions" => opts.max_executions = parse!(u64),
            "--stable" => opts.stable = true,
            "--journal" => opts.journal = Some(value!().into()),
            "--cache-dir" => opts.cache_dir = Some(value!().into()),
            "--in-process" => opts.in_process = true,
            "--lease-ms" => opts.sup.lease = Duration::from_millis(parse!(u64)),
            "--heartbeat-ms" => opts.sup.heartbeat = Duration::from_millis(parse!(u64)),
            "--max-attempts" => opts.sup.max_attempts = parse!(u32),
            "--chaos-kill-pct" => opts.sup.chaos_kill_pct = parse!(u32).min(100),
            "--chaos-seed" => opts.sup.chaos_seed = parse!(u64),
            "--poison" => opts.sup.poison = Some(value!()),
            "--weaken" => {
                for part in value!().split(',') {
                    match part.trim().parse::<usize>() {
                        Ok(s) => opts.weaken.push(s),
                        Err(e) => {
                            eprintln!("cdsspec-campaign: bad value for --weaken: {e}");
                            return EXIT_ERROR;
                        }
                    }
                }
            }
            "--halt-after" => opts.halt_after = Some(parse!(usize)),
            "--connect" => connect = Some(value!()),
            "--status" => status = true,
            "--worker-mode" => worker_mode = true,
            "--attach" => attach = Some(value!()),
            "--reconnect-ms" => reconnect_ms = Some(parse!(u64)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("cdsspec-campaign: unknown flag {other:?}\n{USAGE}");
                return EXIT_ERROR;
            }
        }
    }

    let worker = WorkerOpts {
        heartbeat: opts.sup.heartbeat,
        worker_threads: opts.worker_threads,
        poison: opts.sup.poison.clone(),
    };
    if worker_mode {
        return match serve(std::io::stdin().lock(), std::io::stdout(), &worker) {
            Ok(()) | Err(FrameError::Closed) => 0,
            Err(e) => {
                eprintln!("cdsspec-campaign worker: {e}");
                EXIT_ERROR
            }
        };
    }
    if let Some(addr) = attach {
        return attach_worker(&AttachOpts {
            addr,
            worker,
            reconnect_budget: Duration::from_millis(reconnect_ms.unwrap_or(10_000)),
        });
    }
    if reconnect_ms.is_some() {
        eprintln!("cdsspec-campaign: --reconnect-ms needs --attach ADDR\n{USAGE}");
        return EXIT_ERROR;
    }
    if let Some(addr) = connect {
        return run_remote(&addr, status, &opts);
    }
    if status {
        eprintln!("cdsspec-campaign: --status needs --connect ADDR\n{USAGE}");
        return EXIT_ERROR;
    }

    let stdout = std::io::stdout();
    match run_campaign(&opts, &mut stdout.lock()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cdsspec-campaign: {message}");
            EXIT_ERROR
        }
    }
}

/// `--connect`: the campaign runs where the daemon's cache and worker
/// pool live, so flags that configure *this* machine's execution are
/// contradictions, not no-ops — reject them loudly.
fn run_remote(addr: &str, status: bool, opts: &CampaignOpts) -> i32 {
    if status {
        return match request_status(addr) {
            Ok(report) => {
                print!("{}", report.render());
                0
            }
            Err(e) => {
                eprintln!("cdsspec-campaign: {e}");
                EXIT_ERROR
            }
        };
    }
    let local_only: &[(&str, bool)] = &[
        ("--in-process", opts.in_process),
        ("--journal", opts.journal.is_some()),
        ("--cache-dir", opts.cache_dir.is_some()),
        ("--halt-after", opts.halt_after.is_some()),
        ("--chaos-kill-pct", opts.sup.chaos_kill_pct > 0),
        ("--poison", opts.sup.poison.is_some()),
    ];
    for (flag, set) in local_only {
        if *set {
            eprintln!("cdsspec-campaign: {flag} is local-only and cannot combine with --connect");
            return EXIT_ERROR;
        }
    }
    let req = CampaignRequest {
        bench_filter: opts.bench_filter.clone(),
        split: opts.split,
        max_executions: opts.max_executions,
        stable: opts.stable,
        weaken: opts.weaken.clone(),
    };
    let stdout = std::io::stdout();
    match remote_campaign(addr, &req, &mut stdout.lock()) {
        Ok((code, summary)) => {
            // The daemon-side summary goes to our stderr so scripts see
            // the same `campaign-summary:` block local runs produce.
            eprint!("{summary}");
            code
        }
        Err(message) => {
            eprintln!("cdsspec-campaign: {message}");
            EXIT_ERROR
        }
    }
}
