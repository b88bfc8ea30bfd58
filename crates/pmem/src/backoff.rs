//! Bounded exponential backoff for short cross-thread waits.
//!
//! The store has a handful of spots where one thread waits for another
//! to finish a step that is normally a few microseconds away: a reader
//! waiting for an in-flight writer, a writer waiting for a conflicting
//! log record to commit.
//! A raw `yield_now` loop burns a full core per waiter under
//! contention; a blocking primitive is too heavy for waits this short.
//! This helper escalates spin → yield → capped micro-sleeps, so the
//! common fast path stays on-core while a stalled wait backs off to a
//! few wakeups per millisecond.
//!
//! The step from yielding to sleeping is taken on **elapsed time**, not
//! on a call count: the cheapest `thread::sleep` costs far more than it
//! asks for (a 16 µs request measures ≈ 80 µs with default timer slack),
//! so sleeping only pays once the wait has already lasted about that
//! long. Until then the waiter yields, which hands the core to whoever
//! it is waiting for without the wake-up cliff.

use std::time::{Duration, Instant};

/// Spin-loop limit: 2^6 = 64 `spin_loop` hints before yielding.
const SPIN_STEPS: u32 = 6;
/// How long a wait keeps yielding before it starts sleeping — about
/// what the cheapest sleep really costs.
const SLEEP_AFTER: Duration = Duration::from_micros(64);
/// Longest sleep per snooze once fully backed off.
const MAX_SLEEP_US: u64 = 256;

/// Escalating wait helper; one instance per wait loop.
#[derive(Debug, Default)]
pub struct Backoff {
    /// Spin bursts taken (up to `SPIN_STEPS`), then `SPIN_STEPS` plus
    /// the sleeps taken.
    step: u32,
    /// When the yield stage began (the spin stage before it lasts well
    /// under a microsecond and reads no clock).
    yielding_since: Option<Instant>,
}

impl Backoff {
    /// Fresh backoff, starting at the cheapest (pure spin) stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits a little, escalating on each call: `spin_loop` bursts,
    /// then `yield_now` until the wait is `SLEEP_AFTER` old, then sleeps
    /// doubling up to 256 µs.
    pub fn snooze(&mut self) {
        if self.step < SPIN_STEPS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
            return;
        }
        let since = *self.yielding_since.get_or_insert_with(Instant::now);
        if self.step == SPIN_STEPS && since.elapsed() < SLEEP_AFTER {
            std::thread::yield_now();
            return;
        }
        let exp = (self.step - SPIN_STEPS).min(4);
        let us = (16u64 << exp).min(MAX_SLEEP_US);
        std::thread::sleep(Duration::from_micros(us));
        self.step = self.step.saturating_add(1);
    }

    /// True once the wait has escalated past the busy (spin/yield)
    /// stages — callers use this to start their stall-timeout clock
    /// checks only when a wait is already slow.
    pub fn is_sleeping(&self) -> bool {
        self.step > SPIN_STEPS
    }

    /// Resets to the spin stage (the awaited condition made progress).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeps_by_elapsed_time_not_call_count() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_STEPS {
            b.snooze();
        }
        assert!(!b.is_sleeping());
        // Yield stage pinned young (a future start reads as 0 elapsed):
        // far more calls than the old fixed 10-step ladder never sleep.
        b.yielding_since = Some(Instant::now() + Duration::from_secs(3600));
        for _ in 0..1000 {
            b.snooze();
            assert!(!b.is_sleeping());
        }
        // Once the wait is `SLEEP_AFTER` old, the next snooze sleeps
        // (16 µs, far below any test budget).
        b.yielding_since = Some(Instant::now().checked_sub(SLEEP_AFTER).unwrap());
        b.snooze();
        assert!(b.is_sleeping());
        b.reset();
        assert!(!b.is_sleeping());
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut b = Backoff::new();
        b.step = u32::MAX - 1;
        b.snooze();
        b.snooze();
        assert_eq!(b.step, u32::MAX);
    }
}
