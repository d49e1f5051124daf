//! Host parallelism: the one place that decides how many host threads a
//! call path uses.
//!
//! The simulator's independent units nest: independent GPU groups (MP-PC
//! and Case 1), a group's GPUs, and a launch's blocks; a serving window's
//! response pass is a unit of its own, and a router window's end nests its
//! shards' response passes. A call path fans out once, at its outermost
//! level with two or more units, and runs every level inside that fan
//! serially on the thread that reached it. A sharded router steps its
//! ticks on the caller as a fan worker ([`as_worker`]), since a tick's
//! dispatch is too little work to hand to another thread, and fans out
//! only once its loop is done, over the shards' reports. This follows
//! the coarsest-granularity rule for parallel replications
//! (Passerat-Palmbach et al.): a spawn pays off only when there is enough
//! work behind it, and threads started inside a fan would only compete
//! with the fan's own threads for the same cores.
//!
//! A thread that runs one run of a fan is a *fan worker*. [`width`] is 1
//! on a fan worker, so any [`fan_out`] it reaches runs on it alone. Every
//! site writes disjoint, index-ordered slots, so no output depends on
//! where the fan happened or how wide it was.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

thread_local! {
    static FAN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Host threads a fan started on this thread may use: the core count
/// (`available_parallelism`, which honours the affinity mask, read once
/// per process), or 1 on a fan worker.
pub fn width() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if FAN_WORKER.get() {
        1
    } else {
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }
}

/// Run `f` as a fan worker: inside it, [`width`] is 1. The previous state
/// is restored when `f` returns or unwinds.
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FAN_WORKER.set(self.0);
        }
    }
    let _restore = Restore(FAN_WORKER.replace(true));
    f()
}

/// `f` over `items`, results in item order. The items are cut into at
/// most [`width`] contiguous runs of about equal length; every run but
/// the last goes to a scoped thread and the last runs on the caller, each
/// as a fan worker. With one run (one item, or a width of 1) nothing fans
/// out: the items run on the caller, which stays what it was, so a level
/// inside may still fan out. A panic in any run reaches the caller.
pub fn fan_out<I, R>(items: impl IntoIterator<Item = I>, f: impl Fn(I) -> R + Sync) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let items: Vec<I> = items.into_iter().collect();
    let len = items.len();
    let runs = width().min(len);
    if runs <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        // Run `r` holds items `[r·len/runs, (r+1)·len/runs)`.
        let handles: Vec<_> = (0..runs - 1)
            .map(|r| {
                let run: Vec<I> =
                    items.by_ref().take((r + 1) * len / runs - r * len / runs).collect();
                scope.spawn(move || as_worker(|| run.into_iter().map(f).collect::<Vec<R>>()))
            })
            .collect();
        let last: Vec<R> = as_worker(|| items.map(f).collect());
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out.extend(last);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_come_back_in_item_order() {
        for len in 0..10 {
            let out = fan_out(0..len, |i| i * 10);
            assert_eq!(out, (0..len).map(|i| i * 10).collect::<Vec<_>>(), "{len} items");
        }
    }

    #[test]
    fn a_fan_worker_runs_every_item_on_its_own_thread() {
        let caller = thread::current().id();
        let ran_on: Vec<ThreadId> = as_worker(|| {
            assert_eq!(width(), 1);
            fan_out(0..9, |_| thread::current().id())
        });
        assert_eq!(ran_on, vec![caller; 9]);
    }

    #[test]
    fn every_run_is_a_fan_worker_and_the_last_runs_on_the_caller() {
        let caller = thread::current().id();
        let seen = fan_out(0..8, |_| (thread::current().id(), width()));
        assert!(seen.iter().all(|&(_, w)| w == 1));
        assert_eq!(seen.last().unwrap().0, caller);
        let threads: HashSet<ThreadId> = seen.iter().map(|&(id, _)| id).collect();
        assert_eq!(threads.len(), width().min(8));
        // One item does not fan out, so a level inside it still may.
        assert_eq!(fan_out([()], |()| width()), [width()]);
    }

    #[test]
    fn the_flag_is_cleared_after_return_and_after_unwinding() {
        as_worker(|| assert_eq!(width(), 1));
        assert!(!FAN_WORKER.get());
        let unwound = std::panic::catch_unwind(|| as_worker(|| panic!("item failed")));
        assert!(unwound.is_err());
        assert!(!FAN_WORKER.get());
        // Nested: leaving the inner worker keeps the outer one's flag.
        as_worker(|| {
            as_worker(|| ());
            assert_eq!(width(), 1);
        });
        assert!(!FAN_WORKER.get());
        // A panicking item reaches the caller, on a spawned run (item 0)
        // or on the caller's own run (item 3), and the flag is cleared.
        for bad in [0, 3] {
            let unwound = std::panic::catch_unwind(|| {
                fan_out(0..4, |i| assert_ne!(i, bad, "item {i} failed"));
            });
            assert!(unwound.is_err());
            assert!(!FAN_WORKER.get());
        }
    }
}
