//! The one fan-out loop.
//!
//! Every per-item parallel stage (crosscheck solve passes, witness
//! drafting and fuzzing, corpus replay, the phase-1 matrix) runs through
//! [`par_map`]: a shared atomic index hands out items, each worker keeps
//! its results tagged by index, and the caller gets them back in item
//! order — so the output is identical for any worker count. The calling
//! thread is worker 0 and `jobs - 1` scoped threads join it, so `jobs = 1`
//! runs the same loop and spawns no thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every item on `jobs` workers (at most one per item),
/// returning the results in item order plus each worker's final state.
///
/// Each worker builds its state once with `init` and threads it through
/// every item it claims — e.g. a solver that lives for the whole pass.
/// Which worker claims which item depends on scheduling, so only
/// order-insensitive summaries (merged statistics) should be read off the
/// returned states. A panic in `f` or `init` is re-raised on the caller
/// with its original payload once every worker has stopped.
pub fn par_map<T, S, R, I, F>(jobs: usize, items: &[T], init: I, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= items.len() {
                break;
            }
            done.push((k, f(&mut state, &items[k])));
        }
        (done, state)
    };
    let shares: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut shares = vec![work()];
        for h in spawned {
            shares.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        shares
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    for (done, state) in shares {
        for (k, r) in done {
            slots[k] = Some(r);
        }
        states.push(state);
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every item is claimed by exactly one worker"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_for_any_job_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 5, 16] {
            assert_eq!(par_map(jobs, &items, || (), |_, &i| i * i).0, expect);
        }
    }

    #[test]
    fn each_worker_state_returned_once_and_every_item_seen_once() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 5, 16] {
            let (results, states) = par_map(jobs, &items, Vec::new, |seen, &i| seen.push(i));
            assert_eq!(results.len(), items.len(), "jobs={jobs}");
            assert_eq!(states.len(), jobs, "one state per worker, jobs={jobs}");
            let mut seen: Vec<usize> = states.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, items, "every item exactly once, jobs={jobs}");
        }
    }

    fn panic_on_item_3(jobs: usize) {
        let items: Vec<usize> = (0..8).collect();
        par_map(
            jobs,
            &items,
            || (),
            |_, &i| {
                if i == 3 {
                    panic!("worker fault on item {i}");
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "worker fault on item 3")]
    fn worker_panic_reraises_its_payload_at_one_job() {
        panic_on_item_3(1);
    }

    #[test]
    #[should_panic(expected = "worker fault on item 3")]
    fn worker_panic_reraises_its_payload_at_four_jobs() {
        panic_on_item_3(4);
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..5).collect();
        let (ids, _) = par_map(1, &items, || (), |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
