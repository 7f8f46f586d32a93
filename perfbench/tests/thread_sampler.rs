//! The thread sampler reports the threads a workload started plus the
//! caller's own. It has a test binary of its own, so that no concurrent
//! test changes the thread count while it samples.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use yinyang_perfbench::proc_stat::ThreadSampler;

#[test]
fn sampler_counts_spawned_threads_and_the_caller() {
    const WORKERS: usize = 3;
    let sampler = ThreadSampler::start();
    let (tx, rx) = mpsc::channel::<()>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || rx.lock().expect("unpoisoned").recv().ok())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..WORKERS {
        tx.send(()).expect("a worker is waiting");
    }
    for worker in workers {
        worker.join().expect("worker exits");
    }
    assert_eq!(sampler.finish(), WORKERS as u64 + 1);
}
