//! A scoped-thread work queue shared by input simulation and the traced
//! batch: `n` jobs on `threads` workers, results in job order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Runs jobs `0..n` on `threads` scoped workers (at most `n`). The job
/// gets its worker's index and its own. Returns the results in job
/// order and, per worker, when it ran out of jobs.
pub fn run<T: Send>(
    threads: usize,
    n: usize,
    job: impl Fn(usize, usize) -> T + Sync,
) -> (Vec<T>, Vec<Instant>) {
    let threads = threads.min(n).max(1);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let ends: Mutex<Vec<Option<Instant>>> = Mutex::new(vec![None; threads]);
    // The cursor only hands out indices and publishes no data: jobs
    // read what existed before the workers started, and results pass
    // through the mutex, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (slots, ends, next, job) = (&slots, &ends, &next, &job);
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = job(worker, i);
                    slots.lock().expect("a worker panicked")[i] = Some(r);
                }
                ends.lock().expect("a worker panicked")[worker] = Some(Instant::now());
            });
        }
    });
    let results = slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect();
    let ends = ends
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|e| e.expect("every worker finished"))
        .collect();
    (results, ends)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let (results, ends) = run(2, 7, |_, i| i * i);
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36]);
        assert_eq!(ends.len(), 2);
        let (results, ends) = run(4, 1, |w, i| (w, i));
        assert_eq!((results, ends.len()), (vec![(0, 0)], 1));
    }
}
