//! The worker loop: what a `cdsspec-campaign --worker-mode` subprocess
//! runs on its stdin/stdout, and what a `--attach` worker runs on its
//! socket once the daemon has welcomed it.
//!
//! A worker is a thin, *stateless* shell around the in-process explorer:
//! read one `Run` frame, execute that shard through the benchmark
//! registry's ordinary `check` entry point, write one `Result` (or
//! `Error`) frame, repeat. All state lives in the supervisor; a worker
//! can be SIGKILLed at any instant and the campaign loses nothing but
//! the in-flight shard's CPU time.
//!
//! A heartbeat thread reports the running task id so the supervisor
//! keeps extending the lease of a long exploration. Writes share one
//! mutex, so a heartbeat can never split a reply frame.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{FromWorker, ToWorker};
use cdsspec_mc::{Config, ShardSpec, Stats};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Worker settings (the CLI fills them from `--heartbeat-ms`,
/// `--worker-threads` and `--poison`).
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// Explorer threads for each task.
    pub worker_threads: usize,
    /// Fault injection: `abort()` on receiving this benchmark (simulates
    /// a shard that reliably crashes its worker).
    pub poison: Option<String>,
}

/// Sentinel meaning "no task running" in the heartbeat cell.
const IDLE: u64 = u64::MAX;

/// Run one campaign task: look `bench` up in the registry, weaken the
/// `weaken` ordering sites, and explore `shard` with `threads` explorer
/// threads, containing any panic. The one task runner shared by worker
/// processes and in-process campaigns; an `Err` carries the reason the
/// task produced no statistics.
pub(crate) fn run_task(
    bench: &str,
    shard: ShardSpec,
    mut config: Config,
    weaken: &[usize],
    threads: usize,
) -> Result<Stats, String> {
    let all = cdsspec_structures::registry::benchmarks();
    let b = all
        .iter()
        .find(|b| b.name == bench)
        .ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
    let mut ords = b.default_ords();
    if let Some(&s) = weaken.iter().find(|&&s| s >= ords.len()) {
        return Err(format!(
            "weaken site {s} out of range for {bench:?} ({} sites)",
            ords.len()
        ));
    }
    for &s in weaken {
        ords.weaken(s);
    }
    config.workers = threads.max(1);
    config.resume_shards = vec![shard];
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (b.check)(config, ords))).map_err(
        |payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "check panicked".into());
            format!("check panicked: {message}")
        },
    )
}

/// Execute one `Run` dispatch end to end: poison check, then
/// [`run_task`]. Returns exactly one reply (`Result` or `Error`).
/// `current` is the heartbeat cell, set to `task` for the duration of
/// the task so the heartbeat thread keeps the supervisor's lease alive.
fn execute_run(
    task: u64,
    bench: String,
    shard: ShardSpec,
    config: Config,
    weaken: Vec<usize>,
    opts: &WorkerOpts,
    current: &AtomicU64,
) -> FromWorker {
    if opts.poison.as_deref() == Some(bench.as_str()) {
        // Fault injection: die exactly the way a native crash
        // would — no unwinding, no reply, just SIGABRT.
        std::process::abort();
    }
    current.store(task, Ordering::Relaxed);
    let result = run_task(&bench, shard, config, &weaken, opts.worker_threads);
    current.store(IDLE, Ordering::Relaxed);
    match result {
        Ok(stats) => FromWorker::Result { task, stats },
        Err(message) => FromWorker::Error { task, message },
    }
}

/// Serve dispatches from `reader`, replying on `writer`, until the peer
/// sends `Exit` (`Ok`), the stream ends (`Err(FrameError::Closed)`), or
/// anything fails: a corrupt frame, an undecodable message or a failed
/// reply write. A failure ends the loop with no further reply — the
/// supervisor sees a dead link and requeues the lease.
pub fn serve(
    mut reader: impl Read,
    writer: impl Write + Send,
    opts: &WorkerOpts,
) -> Result<(), FrameError> {
    let writer = Mutex::new(writer);
    let send = |msg: &FromWorker| {
        let mut w = writer.lock().unwrap_or_else(|p| p.into_inner());
        write_frame(&mut *w, &msg.encode())
    };
    let current = AtomicU64::new(IDLE);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let heartbeat = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(opts.heartbeat);
                let task = current.load(Ordering::Relaxed);
                if task != IDLE {
                    // A dead link shows up in the loop below; nothing to
                    // do about it here.
                    let _ = send(&FromWorker::Heartbeat { task });
                }
            }
        });
        let end = loop {
            let msg = read_frame(&mut reader).and_then(|payload| {
                ToWorker::decode(&payload)
                    .map_err(|e| FrameError::Corrupt(format!("bad message: {e}")))
            });
            match msg {
                Ok(ToWorker::Run {
                    task,
                    bench,
                    shard,
                    config,
                    weaken,
                }) => {
                    let reply = execute_run(task, bench, shard, config, weaken, opts, &current);
                    if let Err(e) = send(&reply) {
                        break Err(FrameError::Io(e));
                    }
                }
                Ok(ToWorker::Exit) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        stop.store(true, Ordering::Relaxed);
        heartbeat.thread().unpark();
        end
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_bytes;
    use std::io::Cursor;

    fn opts() -> WorkerOpts {
        WorkerOpts {
            heartbeat: Duration::from_secs(3600),
            worker_threads: 1,
            poison: None,
        }
    }

    fn run(task: u64) -> Vec<u8> {
        let msg = ToWorker::Run {
            task,
            bench: "SPSC Queue".into(),
            shard: ShardSpec::root(),
            config: Config {
                max_executions: 3,
                ..Config::default()
            },
            weaken: Vec::new(),
        };
        frame_bytes(&msg.encode())
    }

    fn exit() -> Vec<u8> {
        frame_bytes(&ToWorker::Exit.encode())
    }

    /// Every reply frame `serve` wrote, in order.
    fn replies(out: &[u8]) -> Vec<FromWorker> {
        let mut cursor = Cursor::new(out);
        let mut got = Vec::new();
        loop {
            match read_frame(&mut cursor) {
                Ok(payload) => got.push(FromWorker::decode(&payload).unwrap()),
                Err(FrameError::Closed) => return got,
                Err(e) => panic!("serve wrote a bad frame: {e}"),
            }
        }
    }

    #[test]
    fn one_run_yields_exactly_one_result() {
        let input = [run(7), exit()].concat();
        let mut out = Vec::new();
        serve(Cursor::new(input), &mut out, &opts()).expect("ends on exit");
        match replies(&out).as_slice() {
            [FromWorker::Result { task: 7, stats }] => assert_eq!(stats.executions, 3),
            other => panic!("expected one result for task 7, got {other:?}"),
        }
    }

    #[test]
    fn exit_stops_the_loop_before_later_frames() {
        let input = [exit(), run(1)].concat();
        let mut out = Vec::new();
        serve(Cursor::new(input), &mut out, &opts()).expect("ends on exit");
        assert!(out.is_empty(), "nothing after exit may run");

        // End of input without an exit is a clean close, not a failure.
        let mut out = Vec::new();
        let end = serve(Cursor::new(Vec::new()), &mut out, &opts());
        assert!(matches!(end, Err(FrameError::Closed)), "{end:?}");
    }

    #[test]
    fn corrupt_frame_stops_the_loop_with_no_reply() {
        let mut bad = run(1);
        *bad.last_mut().unwrap() ^= 0x01;
        let input = [bad, run(2), exit()].concat();
        let mut out = Vec::new();
        let end = serve(Cursor::new(input), &mut out, &opts());
        assert!(matches!(end, Err(FrameError::Corrupt(_))), "{end:?}");
        assert!(out.is_empty(), "a corrupt stream gets no reply");

        // A sound frame whose payload is not a message is just as fatal.
        let input = [frame_bytes("{\"msg\":\"hello\"}"), run(2)].concat();
        let mut out = Vec::new();
        let end = serve(Cursor::new(input), &mut out, &opts());
        assert!(matches!(end, Err(FrameError::Corrupt(_))), "{end:?}");
        assert!(out.is_empty());
    }
}
