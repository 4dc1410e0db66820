//! Lost-wakeup stress for the executor's pipes (`crossbeam::channel`).
//!
//! A send notifies only a parked receiver and a receive only a parked
//! sender, so a waiter that is not counted when it parks is never woken.
//! Four producers and three consumers hammer one queue, unbounded and
//! bounded(1), mixing every blocking and non-blocking call. Producers
//! send in rounds and wait for each round to be consumed before the
//! next, so consumers keep running dry and parking; sender clones come
//! and go mid-stream. Every item must arrive exactly once, and every
//! blocked call must return within a generous bound: a lost wakeup shows
//! as a round that is never consumed, or a run that never ends.

use crossbeam::channel::{self, RecvTimeoutError};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const CONSUMERS: usize = 3;
const ROUNDS: usize = 150;
const PER_ROUND: usize = 6;
/// Far longer than any wait on a live queue: a call blocked this long, or
/// a round unconsumed this long, lost a wakeup.
const GENEROUS: Duration = Duration::from_secs(10);

/// Longest blocking call seen so far, in ns.
fn note_blocked(slowest: &AtomicU64, t0: Instant) {
    slowest.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

fn stress(cap: Option<usize>) {
    let (tx, rx) = match cap {
        None => channel::unbounded::<usize>(),
        Some(cap) => channel::bounded::<usize>(cap),
    };
    let total = PRODUCERS * ROUNDS * PER_ROUND;
    let seen: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let slowest = Arc::new(AtomicU64::new(0));

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|c| {
            let rx = rx.clone();
            let seen = seen.clone();
            let slowest = slowest.clone();
            thread::spawn(move || {
                let take = |v: usize| {
                    assert_eq!(
                        seen[v].fetch_add(1, Ordering::Relaxed),
                        0,
                        "item {v} delivered twice"
                    );
                };
                for call in c.. {
                    let t0 = Instant::now();
                    match call % 3 {
                        0 => match rx.recv() {
                            Ok(v) => take(v),
                            Err(_) => break,
                        },
                        1 => match rx.recv_timeout(Duration::from_millis(2)) {
                            Ok(v) => take(v),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        },
                        _ => {
                            if let Some(v) = rx.try_recv() {
                                take(v);
                            }
                        }
                    }
                    note_blocked(&slowest, t0);
                }
            })
        })
        .collect();
    drop(rx);

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            let seen = seen.clone();
            let slowest = slowest.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Every third round goes through a clone that is
                    // dropped when the round ends.
                    let short_lived = (round % 3 == 0).then(|| tx.clone());
                    let sender = short_lived.as_ref().unwrap_or(&tx);
                    let first = (p * ROUNDS + round) * PER_ROUND;
                    for v in first..first + PER_ROUND {
                        let t0 = Instant::now();
                        if v % 2 == 0 {
                            sender.send(v).expect("receivers are alive");
                        } else {
                            sender
                                .send_timeout(v, GENEROUS)
                                .expect("a live queue drains");
                        }
                        note_blocked(&slowest, t0);
                    }
                    drop(short_lived);
                    let t0 = Instant::now();
                    while !(first..first + PER_ROUND).all(|v| seen[v].load(Ordering::Relaxed) > 0) {
                        assert!(
                            t0.elapsed() < GENEROUS,
                            "producer {p} round {round}: items sent but never received"
                        );
                        thread::yield_now();
                    }
                    // Let the consumers run dry and park.
                    if round % 2 == 1 {
                        thread::sleep(Duration::from_micros(300));
                    }
                }
            })
        })
        .collect();
    drop(tx);

    // Watchdog: a call that never returns hangs its thread, so join on a
    // helper and give up on it after a bound.
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        for h in producers.into_iter().chain(consumers) {
            if h.join().is_err() {
                return;
            }
        }
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(3 * GENEROUS) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("a producer or consumer failed (see its panic above)")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a blocked call never returned"),
    }
    for (v, n) in seen.iter().enumerate() {
        assert_eq!(
            n.load(Ordering::Relaxed),
            1,
            "item {v} delivered {} times",
            n.load(Ordering::Relaxed)
        );
    }
    let slowest = Duration::from_nanos(slowest.load(Ordering::Relaxed));
    assert!(slowest < GENEROUS, "a blocked call took {slowest:?}");
}

#[test]
fn unbounded_pipes_lose_no_wakeup() {
    stress(None);
}

#[test]
fn bounded_one_pipes_lose_no_wakeup() {
    stress(Some(1));
}
