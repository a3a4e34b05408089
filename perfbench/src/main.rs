//! End-to-end and per-layer benchmark of the cdsspec checker, run the way
//! users run it: `Config::default()` with the axiom audit, the hang
//! watchdog and the CDSSpec checker all on, through the library's public
//! entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7-w1|fig7-w2|inject-netd> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable progress goes to stderr; the last line of stdout is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones of a separate traced run. See `README.md`.

mod alloc;
mod expected;
mod fig7;
mod netd;
mod traced;
mod util;

use std::process::exit;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// A run that is still going after this long is abandoned with a
/// non-zero exit, well inside the 180 s a run may take.
const HARD_LIMIT: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: still running after {HARD_LIMIT:?}; giving up");
        exit(3);
    });
    let result = expected::Expected::load().and_then(|expected| match args.workload.as_str() {
        "fig7-w1" => fig7::run(&args, 1, &expected),
        "fig7-w2" => fig7::run(&args, 2, &expected),
        "inject-netd" => netd::run(&args, &expected),
        other => Err(format!(
            "unknown workload {other:?} (fig7-w1, fig7-w2, inject-netd)"
        )),
    });
    match result {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}
