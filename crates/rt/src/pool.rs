//! The workspace's one executor, on `std::thread` + `mpsc`, replacing
//! `crossbeam`.
//!
//! [`parallel_map`] is scoped fork/join over a work list: N workers pull
//! indexed items off a shared channel and push results back; output order
//! matches input order. Campaign rounds and regress replays both run on
//! it; sharding across processes is the fleet's job, not this module's.

use std::sync::mpsc;
use std::sync::Mutex;

/// Applies `f` to every item on up to `threads` worker threads, returning
/// results in input order.
///
/// Workers pull `(index, item)` pairs from a shared `mpsc` queue, so
/// uneven item costs balance automatically. With `threads <= 1` (or one
/// item) the work runs inline on the caller's thread.
///
/// A panic in `f` propagates to the caller after all workers stop, with
/// the worker's original payload, so its message survives the join.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (job_tx, job_rx) = mpsc::channel::<(usize, T)>();
    let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
    for pair in items.into_iter().enumerate() {
        job_tx.send(pair).expect("receiver alive");
    }
    drop(job_tx); // workers drain until the queue closes
    let job_rx = Mutex::new(job_rx);
    let workers = threads.min(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            let job_rx = &job_rx;
            let f = &f;
            handles.push(scope.spawn(move || loop {
                // Lock only to receive; run the job outside the lock.
                let job = job_rx.lock().expect("queue lock").try_recv();
                match job {
                    Ok((i, item)) => {
                        let out = f(item);
                        if result_tx.send((i, out)).is_err() {
                            return;
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) | Err(mpsc::TryRecvError::Disconnected) => {
                        return;
                    }
                }
            }));
        }
        drop(result_tx);
        let mut collected: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in result_rx {
            collected[i] = Some(r);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        collected.into_iter().map(|r| r.expect("every index produced")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(4, (0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_is_inline() {
        let out = parallel_map(1, vec![1, 2, 3], |i: i32| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_borrows_environment() {
        let base = 10i64;
        let out = parallel_map(3, vec![1i64, 2, 3], |i| i + base);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn parallel_map_handles_more_threads_than_items() {
        let out = parallel_map(16, vec![5u32, 6], |i| i);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn parallel_map_keeps_a_worker_panic_message() {
        parallel_map(2, vec![1, 2, 3, 4], |i: i32| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }
}
