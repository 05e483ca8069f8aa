//! A small work-stealing thread pool on std primitives.
//!
//! Cells of a sweep vary wildly in cost (an FPS scene at tile size 8 takes
//! far longer than a static puzzle at 32), so static partitioning leaves
//! workers idle. Here every worker owns a deque seeded round-robin; it pops
//! work from its own front and, when empty, steals from the *back* of a
//! sibling — the classic split that keeps owner and thief on opposite ends.
//! No task ever re-enters a deque, so "every deque empty" is a sound
//! termination condition.
//!
//! Results are reported with their original index and re-assembled in input
//! order, which is what makes sweep output independent of worker count.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// Runs `work` over `items` on `workers` threads and returns the results in
/// input order. `work` is called as `work(worker, index, item)` — the
/// worker id (`0..workers`) lets callers attribute time and events to the
/// thread that did the work. `workers` is clamped to `1..=items.len()`;
/// with one worker everything runs on the caller's thread as worker 0,
/// which keeps single-worker runs trivially deterministic to schedule
/// (the *results* are identical either way).
pub fn run_indexed<I, R, F>(items: Vec<I>, workers: usize, work: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, usize, I) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| work(0, i, item))
            .collect();
    }

    // Seed the deques round-robin so every worker starts with a share of
    // each region of the grid (neighbouring cells tend to cost alike).
    let mut deques: Vec<VecDeque<(usize, I)>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].push_back((i, item));
    }
    let deques: Vec<Mutex<VecDeque<(usize, I)>>> = deques.into_iter().map(Mutex::new).collect();

    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let work = &work;
            handles.push(scope.spawn(move || {
                loop {
                    // Own queue first (front), then steal (back). The own
                    // pop must be a separate statement: chaining `.or_else`
                    // onto it would keep the own-deque guard (a
                    // statement-long temporary) alive across the steal
                    // scan, and two simultaneously-idle workers would then
                    // hold-and-wait on each other's locks — deadlock.
                    let own = deques[w].lock().expect("pool poisoned").pop_front();
                    let task = match own {
                        Some(t) => Some(t),
                        None => (1..workers).find_map(|d| {
                            deques[(w + d) % workers]
                                .lock()
                                .expect("pool poisoned")
                                .pop_back()
                        }),
                    };
                    match task {
                        Some((i, item)) => {
                            let r = work(w, i, item);
                            // The receiver lives past the scope; send only
                            // fails if the caller's thread panicked.
                            let _ = tx.send((i, r));
                        }
                        None => break,
                    }
                }
            }));
        }
        drop(tx);
        // Join every worker instead of only waiting for its closure to
        // return, which is all the end of the scope waits for. Each thread
        // allocates from an allocator arena, and a thread hands its arena
        // to the next thread that starts only once it has exited. Joined,
        // this call's workers hand the arenas they grew to the next call's
        // workers, which would otherwise start while some of them are
        // still exiting, take other arenas and grow those too: in a
        // long-lived process running many executions, resident memory
        // would creep up with each one.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx.try_iter() {
        debug_assert!(out[i].is_none(), "result {i} delivered twice");
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("worker dropped a task without a result"))
        .collect()
}

/// The default worker count: the `RE_SWEEP_WORKERS` environment override
/// when it is set to a positive integer (so CI and containers can pin
/// worker counts without threading a flag through every harness),
/// otherwise one per available hardware thread. Unset values fall
/// through to the hardware count silently; an empty, zero or
/// non-numeric value also falls through, but with a one-line stderr
/// warning (once per process) naming the bad value and the fallback —
/// a typo'd pin should not masquerade as a deliberate hardware-count
/// run.
pub fn default_workers() -> usize {
    let fallback = || std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Ok(v) = std::env::var("RE_SWEEP_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        let n = fallback();
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "[sweep] warning: RE_SWEEP_WORKERS={v:?} is not a positive \
                 integer; using the hardware thread count ({n})"
            );
        });
        return n;
    }
    fallback()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        for workers in [1, 2, 4, 9] {
            let items: Vec<u64> = (0..100).collect();
            let out = run_indexed(items, workers, |w, i, x| {
                assert!(w < workers.max(1));
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = run_indexed((0..57).collect::<Vec<_>>(), 8, |_, _, x: i32| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One giant task up front; the other workers must drain the rest.
        let worker_ids = Mutex::new(std::collections::HashSet::new());
        run_indexed((0..64).collect::<Vec<_>>(), 4, |w, i, _| {
            worker_ids.lock().unwrap().insert(w);
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        assert!(worker_ids.lock().unwrap().len() > 1, "work never spread");
    }

    #[test]
    fn empty_and_oversubscribed() {
        assert!(run_indexed(Vec::<u8>::new(), 4, |_, _, x| x).is_empty());
        assert_eq!(run_indexed(vec![7u8], 64, |w, _, x| x + w as u8), vec![7]);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn env_var_overrides_default_workers() {
        // Serialized with nothing: no other test in this binary reads the
        // variable between set and remove.
        std::env::set_var("RE_SWEEP_WORKERS", "3");
        assert_eq!(default_workers(), 3);
        // Invalid values fall through to the hardware count.
        std::env::set_var("RE_SWEEP_WORKERS", "0");
        assert!(default_workers() >= 1);
        std::env::set_var("RE_SWEEP_WORKERS", "many");
        assert!(default_workers() >= 1);
        std::env::remove_var("RE_SWEEP_WORKERS");
        assert!(default_workers() >= 1);
    }
}
