//! Checkpoint scheduling across shards.
//!
//! Each shard is an independent DIPPER engine; left to their own
//! `auto_checkpoint`, shards filling at similar rates cross the swap
//! threshold within microseconds of each other and checkpoint *in
//! phase* — N simultaneous PMEM-read + shadow-write storms, which is
//! exactly the correlated bandwidth spike DIPPER exists to avoid inside
//! one store. The scheduler recreates tailless-ness at the fleet level:
//!
//! * [`SchedulerMode::Staggered`] — trigger at most one shard per
//!   `stagger_gap`, fullest first, so checkpoint I/O of different
//!   shards is serialized instead of superimposed. A shard close to a
//!   full log (the backpressure cliff) bypasses the gap: a log-full
//!   stall costs more tail latency than one correlated checkpoint.

use dstore::DStore;
use dstore_telemetry::Counter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When shards crossing `swap_threshold` get their checkpoint trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// No scheduler thread; each shard keeps its own `auto_checkpoint`.
    PerShardAuto,
    /// Trigger at most one shard per `stagger_gap`, fullest first.
    Staggered,
}

/// Scheduler thread configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Trigger policy.
    pub mode: SchedulerMode,
    /// How often the thread samples shard log occupancy.
    pub poll_interval: Duration,
    /// Minimum spacing between triggers in staggered mode.
    pub stagger_gap: Duration,
    /// Log occupancy at which staggered mode ignores the gap and
    /// triggers immediately (log-full is imminent).
    pub panic_threshold: f64,
    /// Staggered mode triggers the fullest shard at
    /// `swap_threshold * early_fraction`: checkpointing one shard early
    /// costs one decorrelated storm, while waiting for the full
    /// threshold on every shard is what lines the storms up.
    pub early_fraction: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            mode: SchedulerMode::Staggered,
            poll_interval: Duration::from_micros(200),
            stagger_gap: Duration::from_millis(2),
            panic_threshold: 0.92,
            early_fraction: 0.8,
        }
    }
}

impl SchedulerConfig {
    /// A config with the given mode and default timing.
    pub fn new(mode: SchedulerMode) -> Self {
        SchedulerConfig {
            mode,
            ..Default::default()
        }
    }
}

/// Trigger accounting for one scheduler thread. All counters are
/// cumulative since spawn; read them via [`Scheduler::counters`].
#[derive(Debug, Default)]
pub struct SchedulerCounters {
    /// Checkpoints the scheduler actually started (the shard accepted
    /// the trigger — it was not already checkpointing).
    pub triggers: Counter,
    /// Staggered triggers that bypassed the stagger gap because the
    /// shard's log was about to hit the log-full cliff. A rising value
    /// means `stagger_gap` is too wide (or shards fill faster than one
    /// serialized checkpoint can drain).
    pub panic_triggers: Counter,
}

/// Running scheduler thread; stops and joins on [`Scheduler::stop`].
pub struct Scheduler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    counters: Arc<SchedulerCounters>,
}

impl Scheduler {
    /// Spawns the scheduler over `stores` (no thread for
    /// [`SchedulerMode::PerShardAuto`]). `threshold` is the per-shard
    /// `swap_threshold` the trigger compares occupancy against.
    pub fn spawn(stores: Arc<Vec<DStore>>, cfg: SchedulerConfig, threshold: f64) -> Scheduler {
        let counters = Arc::new(SchedulerCounters::default());
        if cfg.mode == SchedulerMode::PerShardAuto {
            return Scheduler {
                stop: Arc::new(AtomicBool::new(true)),
                thread: None,
                counters,
            };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let counters2 = Arc::clone(&counters);
        let thread = std::thread::Builder::new()
            .name("dstore-shard-ckpt".into())
            .spawn(move || run(&stores, cfg, threshold, &stop2, &counters2))
            .expect("spawn checkpoint scheduler");
        Scheduler {
            stop,
            thread: Some(thread),
            counters,
        }
    }

    /// Cumulative trigger counters (zeroes in
    /// [`SchedulerMode::PerShardAuto`], which never triggers).
    pub fn counters(&self) -> Arc<SchedulerCounters> {
        Arc::clone(&self.counters)
    }

    /// Stops the thread and waits for it to exit. Idempotent; also runs
    /// on drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run(
    stores: &[DStore],
    cfg: SchedulerConfig,
    threshold: f64,
    stop: &AtomicBool,
    counters: &SchedulerCounters,
) {
    let mut last_trigger = Instant::now() - cfg.stagger_gap;
    while !stop.load(Ordering::Acquire) {
        match cfg.mode {
            SchedulerMode::Staggered => {
                // Fullest shard first: it is closest to the log-full
                // cliff, and triggering one shard at a time is what
                // decorrelates the spikes.
                let fullest = stores
                    .iter()
                    .map(|s| s.log_used_fraction())
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                if let Some((i, used)) = fullest {
                    let gap_ok = last_trigger.elapsed() >= cfg.stagger_gap;
                    if used >= threshold * cfg.early_fraction
                        && (gap_ok || used >= cfg.panic_threshold)
                        && stores[i].checkpoint_async()
                    {
                        counters.triggers.inc();
                        if !gap_ok {
                            counters.panic_triggers.inc();
                        }
                        last_trigger = Instant::now();
                    }
                }
            }
            SchedulerMode::PerShardAuto => unreachable!("no thread in auto mode"),
        }
        std::thread::sleep(cfg.poll_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shard_auto_spawns_no_thread() {
        let s = Scheduler::spawn(
            Arc::new(Vec::new()),
            SchedulerConfig::new(SchedulerMode::PerShardAuto),
            0.75,
        );
        assert!(s.thread.is_none());
    }

    #[test]
    fn stop_is_idempotent() {
        let mut s = Scheduler::spawn(
            Arc::new(Vec::new()),
            SchedulerConfig::new(SchedulerMode::Staggered),
            0.75,
        );
        s.stop();
        s.stop();
        assert!(s.thread.is_none());
    }
}
