//! [`BoundedQueue`]: the backpressure primitive of the server.
//!
//! Every shard executor consumes from one of these. The *bound* is the
//! point of the design: when a queue is full, [`BoundedQueue::try_push`]
//! fails and the I/O layer answers the client with [`dstore::DsError::Busy`]
//! instead of buffering without limit — admission control at the front
//! door, mirroring DIPPER's log-full stall turning into visible
//! backpressure rather than unbounded DRAM growth.
//!
//! Consumers take work in batches: [`BoundedQueue::pop_batch`] blocks for
//! one item and then hands over everything queued, under one lock. A
//! consumer busy with a batch is not parked, so a push that finds no
//! parked consumer skips the condvar entirely — std's `notify_one` makes
//! a futex syscall even when nobody waits, and at saturation the epoll
//! thread would pay one per request.
//!
//! (The in-repo `crossbeam` shim only provides unbounded channels, so
//! this is a small Mutex + Condvar queue of our own; producers never
//! block, only consumers do.)

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked in [`BoundedQueue::pop_batch`]. Counted under
    /// the mutex, so a producer that reads 0 knows no consumer can miss
    /// its item: one that has not parked yet will find it on its next
    /// check, made under the same mutex.
    waiting: usize,
}

/// A multi-producer multi-consumer FIFO with a hard capacity.
/// Producers use non-blocking [`Self::try_push`]; consumers block in
/// [`Self::pop_batch`] until an item arrives or the queue is closed *and*
/// drained — so closing is a graceful drain, never a drop.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(cap.max(1)),
                closed: false,
                waiting: 0,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues without blocking. `Ok(depth)` carries the depth *after*
    /// the push (for the queue-depth gauge); `Err(item)` hands the item
    /// back when the queue is full or closed. Signals the condvar only
    /// when a consumer is parked on it.
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut g = self.inner.lock().expect("queue mutex poisoned");
        if g.closed || g.items.len() >= self.cap {
            return Err(item);
        }
        g.items.push_back(item);
        let depth = g.items.len();
        let parked = g.waiting > 0;
        drop(g);
        if parked {
            self.not_empty.notify_one();
        }
        Ok(depth)
    }

    /// Blocks until at least one item is queued, then moves every queued
    /// item, in FIFO order, to the back of `batch` and returns `true`.
    /// Returns `false` once the queue is closed **and** empty.
    pub fn pop_batch(&self, batch: &mut VecDeque<T>) -> bool {
        let mut g = self.inner.lock().expect("queue mutex poisoned");
        while g.items.is_empty() {
            if g.closed {
                return false;
            }
            g.waiting += 1;
            g = self.not_empty.wait(g).expect("queue mutex poisoned");
            g.waiting -= 1;
        }
        batch.append(&mut g.items);
        true
    }

    /// Closes the queue: future pushes fail, consumers drain what is
    /// already queued and then observe `false`.
    pub fn close(&self) {
        self.inner.lock().expect("queue mutex poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Current depth (racy, for gauges only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").items.len()
    }

    /// Whether the queue is currently empty (racy, for gauges only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn drain<T>(q: &BoundedQueue<T>) -> Vec<T> {
        let mut batch = VecDeque::new();
        assert!(q.pop_batch(&mut batch));
        batch.into()
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(drain(&q), vec![1, 2]);
        assert_eq!(q.try_push(4), Ok(1));
    }

    #[test]
    fn fifo_order_holds_across_batches() {
        let q = BoundedQueue::new(8);
        let mut got = Vec::new();
        let mut next = 0;
        for burst in [3, 1, 8, 5] {
            for _ in 0..burst {
                q.try_push(next).unwrap();
                next += 1;
            }
            let batch = drain(&q);
            assert_eq!(batch.len(), burst, "one pop takes the whole burst");
            got.extend(batch);
        }
        assert_eq!(got, (0..next).collect::<Vec<_>>());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert!(q.try_push("c").is_err());
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut batch = VecDeque::new();
                let first = q.pop_batch(&mut batch);
                let taken: Vec<_> = batch.drain(..).collect();
                (first, taken, q.pop_batch(&mut batch))
            })
        };
        assert_eq!(consumer.join().unwrap(), (true, vec!["a", "b"], false));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_batch(&mut VecDeque::new()))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while q.inner.lock().unwrap().waiting < 3 {
            assert!(Instant::now() < deadline, "consumers never parked");
            std::thread::yield_now();
        }
        q.close();
        for w in waiters {
            assert!(!w.join().unwrap());
        }
    }

    /// The `waiting` count must never let a push skip the signal a parked
    /// consumer needs: every round parks the consumer first, then pushes
    /// once, and the consumer must come back with that item.
    #[test]
    fn push_to_a_parked_consumer_always_wakes_it() {
        const ROUNDS: u32 = 200;
        let q = Arc::new(BoundedQueue::new(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut batch = VecDeque::new();
                while q.pop_batch(&mut batch) {
                    tx.send(batch.drain(..).collect::<Vec<_>>()).unwrap();
                }
            })
        };
        for round in 0..ROUNDS {
            let deadline = Instant::now() + Duration::from_secs(10);
            while q.inner.lock().unwrap().waiting == 0 {
                assert!(Instant::now() < deadline, "round {round}: never parked");
                std::thread::yield_now();
            }
            q.try_push(round).unwrap();
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("round {round}: parked consumer not woken"));
            assert_eq!(got, vec![round]);
        }
        q.close();
        consumer.join().unwrap();
    }
}
