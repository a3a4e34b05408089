//! Modeled-thread plumbing: the per-thread context the primitives read,
//! the body every fiber root runs ([`run_job`]), the shard-explorer
//! threads of the parallel engine, and the quiet panic hook.
//!
//! Scheduling itself lives in [`crate::runtime`] (token-passing: the
//! modeled thread that parks last decides who runs next), and the stack
//! switching in [`crate::fiber`].

use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Once};

use cdsspec_c11::Tid;

use crate::runtime::{self, Shared};

/// Marker panic payload used to unwind a modeled thread when the runtime
/// abandons an execution.
pub(crate) struct DieMarker;

/// Per-modeled-thread context, installed in the host thread's
/// thread-local for whichever fiber is running.
pub(crate) struct Ctx {
    pub tid: Tid,
    pub shared: Arc<Shared>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Run `f` with the current modeled-thread context. Panics (with a clear
/// message) when called outside `mc::explore`/`mc::model`.
///
/// The context is cloned out (a `Tid` copy plus one `Arc` bump) so the
/// `RefCell` borrow is released *before* `f` runs. This is load-bearing:
/// `f` may suspend the calling fiber mid-operation, and the fiber that
/// runs next re-points `CTX` for itself — a borrow held across the switch
/// would make that re-point panic.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    // Preemption gate, held across `f` as well as the `RefCell` borrow:
    // every `with_ctx` callback is engine code (they lock `Shared::inner`,
    // the arena, or the pending-bug slot), and a signal rescue abandoning
    // a fiber inside one of those locks would deadlock the explorer when
    // the host relocks on its side. Holding the gate across a suspension
    // inside `f` is fine — the switch paths save/restore each fiber's
    // depth — but the borrow still must not span a switch, so it stays
    // scoped tightly below.
    let _gate = crate::fiber::engine_section();
    let ctx = CTX.with(|c| {
        let b = c.borrow();
        let ctx = b
            .as_ref()
            .expect("cdsspec-mc primitives may only be used inside mc::explore/mc::model");
        Ctx {
            tid: ctx.tid,
            shared: Arc::clone(&ctx.shared),
        }
    });
    f(&ctx)
}

/// Is the caller inside a modeled thread?
pub fn in_model() -> bool {
    let _gate = crate::fiber::engine_section();
    CTX.with(|c| c.borrow().is_some())
}

/// Install (or clear) the modeled-thread context directly — used by the
/// fiber host, which multiplexes many modeled threads on one OS thread
/// and must re-point the context at every stack switch.
pub(crate) fn set_fiber_ctx(ctx: Option<Ctx>) {
    let _gate = crate::fiber::engine_section();
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// One modeled thread to host: run `closure` as modeled thread `tid` of
/// the execution owned by `shared`. Smuggled into each fiber's initial
/// stack frame by `crate::fiber::spawn_fiber`.
pub(crate) struct Job {
    pub tid: Tid,
    pub shared: Arc<Shared>,
    pub closure: Box<dyn FnOnce() + Send + 'static>,
}

/// Run `n` shard-explorer bodies on dedicated OS threads and collect their
/// results in worker-index order — the spawn half of the parallel engine
/// (`crate::parallel`), kept here with the rest of the thread plumbing.
///
/// Shard threads are named `cdsspec-shard-N` and run outside any modeled
/// thread, so the quiet panic hook below lets their panics through: a
/// crashing shard explorer is an engine bug worth printing, unlike the
/// routine unwinds of modeled threads.
/// A `Err` join result is surfaced to the caller rather than propagated,
/// so one dead shard cannot take down its siblings' results.
pub(crate) fn run_shard_threads<R, F>(n: usize, body: F) -> Vec<std::thread::Result<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = (0..n)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("cdsspec-shard-{w}"))
                    .spawn_scoped(s, move || body(w))
                    .expect("failed to spawn shard explorer")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// Modeled threads unwind constantly (every abandoned execution panics
/// with [`DieMarker`], and `mc_assert!` failures are caught and reported
/// through the bug machinery), so the default panic hook's stderr output —
/// possibly with full backtraces — would dominate exploration time.
/// Silence panics inside any modeled-thread context; everything else
/// keeps the default hook. Installed once per process, by the first
/// explorer.
pub(crate) fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                default(info);
            }
        }));
    });
}

/// Host one modeled thread to completion: install its context, run the
/// closure, catch any unwind, and report the exit to the runtime. The
/// body of every fiber root (`crate::fiber`).
pub(crate) fn run_job(job: Job) {
    let Job {
        tid,
        shared,
        closure,
    } = job;
    {
        // Gate the `RefCell` borrow against signal rescue (see with_ctx).
        let _gate = crate::fiber::engine_section();
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                tid,
                shared: Arc::clone(&shared),
            });
        });
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(closure));
    {
        let _gate = crate::fiber::engine_section();
        CTX.with(|c| {
            *c.borrow_mut() = None;
        });
    }
    match result {
        Ok(()) => runtime::thread_finished(&shared, tid),
        Err(payload) => {
            if payload.is::<DieMarker>() {
                runtime::thread_aborted(&shared, tid);
            } else {
                runtime::thread_panicked(&shared, tid, panic_message(&payload));
            }
        }
    }
}

pub(crate) fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_ctx_outside_model_panics() {
        let r = std::panic::catch_unwind(|| with_ctx(|_| ()));
        assert!(r.is_err());
        assert!(!in_model());
    }
}
