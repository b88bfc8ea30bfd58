//! Fleet-level telemetry: per-shard labels and merged aggregates.

use dstore::DStoreConfig;
use dstore_shard::{ShardedConfig, ShardedStore};

fn cfg(shards: u32) -> ShardedConfig {
    ShardedConfig::new(shards, DStoreConfig::small().with_auto_checkpoint(false))
}

#[test]
fn merged_snapshot_labels_every_shard() {
    let store = ShardedStore::create(cfg(4)).unwrap();
    let ctx = store.context();
    for i in 0..200u32 {
        ctx.put(format!("obj{i:04}").as_bytes(), &[7u8; 64])
            .unwrap();
    }
    store.checkpoint_now();
    store.wait_checkpoint_idle();

    let snap = store.telemetry_snapshot();
    // Every shard contributes series tagged with its index.
    for i in 0..4 {
        let tag = ("shard".to_string(), i.to_string());
        assert!(
            snap.histograms
                .iter()
                .any(|s| s.name == "dstore_op_latency_ns" && s.labels.contains(&tag)),
            "no op-latency series for shard {i}"
        );
        assert!(
            snap.spans
                .iter()
                .any(|s| s.name == "dstore_checkpoint_spans" && s.labels.contains(&tag)),
            "no checkpoint spans for shard {i}"
        );
    }
    // Fleet aggregates: the merged histogram counts every put once
    // (shard-map persistence adds a few internal puts per shard).
    let put_counter = snap.counter_total("dstore_ops_total");
    let merged = snap.merged_histogram("dstore_op_latency_ns");
    assert!(merged.count >= 200, "merged count {}", merged.count);
    assert_eq!(merged.count, put_counter);
    // Every shard checkpointed: four phase quadruples on the timeline.
    let spans = snap.all_spans("dstore_checkpoint_spans");
    for phase in ["trigger", "apply", "flush", "swap"] {
        assert_eq!(
            spans.iter().filter(|s| s.name == phase).count(),
            4,
            "expected one {phase} per shard"
        );
    }
}

#[test]
fn per_shard_health() {
    let store = ShardedStore::create(cfg(3)).unwrap();
    let health = store.health_per_shard();
    assert_eq!(health.len(), 3);
    for h in health {
        assert_eq!(h.checkpoint_panics, 0);
        assert_eq!(h.checkpoint_phase, "idle");
    }
}

#[test]
fn merged_health_condenses_the_fleet() {
    let store = ShardedStore::create(cfg(3)).unwrap();
    let merged = store.health();
    assert_eq!(merged.checkpoint_panics, 0);
    assert_eq!(merged.checkpoint_phase, "idle");
    // The merged counters equal the per-shard sums, and the fill keeps
    // the worst shard.
    let per = store.health_per_shard();
    assert_eq!(
        merged.checkpoints_completed,
        per.iter().map(|h| h.checkpoints_completed).sum::<u64>()
    );
    let worst = per
        .iter()
        .map(|h| h.log_used_fraction)
        .fold(0.0f64, f64::max);
    assert!((merged.log_used_fraction - worst).abs() < 1e-12);
}
