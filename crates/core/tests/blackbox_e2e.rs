//! End-to-end tests for the crash-persistent black box: crash → recover
//! exhumes a dirty report whose heartbeat is consistent with the
//! recovered log, clean shutdown reads as clean, offline post-mortems
//! leave the image recoverable, and a corrupted region degrades to a
//! partial (or absent) report instead of a panic.

use dstore::{CrashImage, DStore, DStoreConfig, HEARTBEAT_EVERY};
use dstore_pmem::blackbox::{region_size, EVENT_SLOTS, TRACE_SLOTS};

fn bb_cfg() -> DStoreConfig {
    let mut cfg = DStoreConfig::small();
    // Sample every op, so one op in MIRROR_EVERY is mirrored and even a
    // short run leaves traces in the region.
    cfg.trace.sample_every = 1;
    cfg
}

fn load(store: &DStore, n: usize) {
    let ctx = store.context();
    for i in 0..n {
        let key = format!("bb-key-{i}");
        ctx.put(key.as_bytes(), &[i as u8; 64]).unwrap();
    }
}

#[test]
fn dirty_death_yields_consistent_report() {
    let store = DStore::create(bb_cfg()).unwrap();
    // A fresh store has nothing to report.
    assert!(store.crash_report().is_none());
    // Past two heartbeat LSNs and not a multiple of HEARTBEAT_EVERY: the
    // ops after the final heartbeat are the death window.
    load(&store, 2 * HEARTBEAT_EVERY as usize + 203);
    store.wait_checkpoint_idle();
    let published = store
        .telemetry_snapshot()
        .unwrap()
        .counter_total("dstore_blackbox_records_total");
    let image = store.crash();
    let store = DStore::recover(image).unwrap();

    let report = store.crash_report().expect("dirty death must be reported");
    assert!(!report.clean, "kill was not a clean shutdown");

    // The heartbeat trails the durable tail but never leads it: every
    // LSN the black box saw is strictly below the recovered fence.
    let hb = report
        .heartbeat
        .expect("a heartbeat every HEARTBEAT_EVERY LSNs");
    assert!(hb.last_lsn > 0);
    assert!(
        hb.last_lsn < report.log_tail_lsn,
        "heartbeat lsn {} must be below the log-tail fence {}",
        hb.last_lsn,
        report.log_tail_lsn
    );
    assert!(hb.wall_unix_ns > 0);

    // Lifecycle events: the startup marker must have survived.
    assert!(report.events.iter().any(|e| e.name == "startup"));
    assert!(!report.events.iter().any(|e| e.name == "clean_shutdown"));

    // Retained traces were mirrored; at least one ended at or after the
    // final heartbeat (an op in flight in the death window).
    assert!(!report.traces.is_empty());
    // A mirrored trace keeps the sequence number the flight recorder's
    // ring gave it.
    assert!(
        report.traces.windows(2).all(|w| w[0].seq < w[1].seq),
        "{:?}",
        report.traces.iter().map(|t| t.seq).collect::<Vec<_>>()
    );
    assert!(
        !report.death_window_traces().is_empty(),
        "the ops past the final heartbeat must leave a trace in the \
         death window"
    );
    assert!(report.tail_attribution(0.99).is_some());
    // Every exhumed record was counted when it was published.
    let exhumed = report.traces.len() + report.events.len() + 1;
    assert!(published >= exhumed as u64, "{published} < {exhumed}");

    // Renderings agree on the death verdict.
    assert!(report.render().contains("DIRTY"));
    assert!(report.to_json().contains("\"clean\":false"));

    // The recovered store kept the data.
    let ctx = store.context();
    assert_eq!(ctx.get(b"bb-key-0").unwrap(), vec![0u8; 64]);
}

#[test]
fn clean_shutdown_reads_as_clean() {
    let store = DStore::create(bb_cfg()).unwrap();
    load(&store, 50);
    let image = store.close();
    let store = DStore::recover(image).unwrap();
    let report = store.crash_report().expect("black box was on");
    assert!(report.clean);
    assert!(report.events.iter().any(|e| e.name == "clean_shutdown"));
    assert!(report.render().contains("clean shutdown"));
    assert!(report.to_json().contains("\"clean\":true"));
}

#[test]
fn offline_post_mortem_leaves_the_image_recoverable() {
    let store = DStore::create(bb_cfg()).unwrap();
    load(&store, 100);
    let image = store.crash();

    // Read the report twice without recovering: the scan is read-only,
    // so both reads agree and recovery afterwards still works.
    let first = DStore::post_mortem(&image)
        .unwrap()
        .expect("region survives");
    let second = DStore::post_mortem(&image).unwrap().expect("still there");
    assert!(!first.clean);
    assert_eq!(first, second);

    let store = DStore::recover(image).unwrap();
    let live = store.crash_report().unwrap();
    assert_eq!(live.log_tail_lsn, first.log_tail_lsn);
    assert_eq!(live.heartbeat, first.heartbeat);
}

#[test]
fn second_generation_report_describes_the_second_life() {
    // Crash, recover (region reformatted), run more ops, crash again:
    // the second report describes the second incarnation only.
    let store = DStore::create(bb_cfg()).unwrap();
    load(&store, 100);
    let store = DStore::recover(store.crash()).unwrap();
    let first_fence = store.crash_report().unwrap().log_tail_lsn;
    load(&store, 100);
    let store = DStore::recover(store.crash()).unwrap();
    let report = store.crash_report().unwrap();
    assert!(!report.clean);
    assert!(report.events.iter().any(|e| e.name == "recovered"));
    assert!(
        report.log_tail_lsn >= first_fence,
        "LSNs only grow across incarnations"
    );
}

#[test]
fn corrupted_region_degrades_without_panicking() {
    // Writer-interrupted / bit-rot variant on a real store image:
    // scribble over the black-box region through the crashed pool and
    // make sure recovery survives, reporting at most a partial scene.
    let store = DStore::create(bb_cfg()).unwrap();
    load(&store, 100);
    let image = store.crash();

    let layout_total = image.pool().len();
    // The region sits at the tail of the pool (layout places it last);
    // flip bytes across its final 4 KB, which is inside some ring.
    let junk = [0xA5u8; 64];
    let mut off = layout_total - 4096;
    while off + junk.len() <= layout_total {
        image.pool().write_bytes(off, &junk);
        off += 128;
    }
    image.pool().persist(layout_total - 4096, 4096);

    let store = DStore::recover(image).unwrap();
    // Corrupt slots are skipped (CRC), the rest still decodes; at the
    // extreme the whole report degrades to None. Either way: no panic,
    // and the store itself recovered fine.
    if let Some(report) = store.crash_report() {
        assert!(!report.clean);
        let _ = report.render();
        let _ = report.to_json();
    }
    let ctx = store.context();
    assert_eq!(ctx.get(b"bb-key-1").unwrap(), vec![1u8; 64]);
}

#[test]
fn a_region_without_its_magic_degrades_to_no_report() {
    // A region whose header never reached PMEM reads as zeroes.
    // Recovery must treat the failed magic check as "no report", not an
    // error, and so must an offline post-mortem.
    let store = DStore::create(bb_cfg()).unwrap();
    load(&store, 50);
    let image = store.crash();
    // Zero the region *header*. The 4 KB-aligned region sits at the
    // pool tail.
    let rsz = (region_size(TRACE_SLOTS, EVENT_SLOTS) + 4095) & !4095;
    let pool = image.pool();
    let base = pool.len() - rsz;
    let zeros = [0u8; 4096];
    pool.write_bytes(base, &zeros);
    pool.persist(base, 4096);
    assert!(DStore::post_mortem(&image).unwrap().is_none());
    let store = DStore::recover(image).unwrap();
    // Header magic is gone → exhumation yields None.
    assert!(store.crash_report().is_none());
}

#[test]
fn post_mortem_without_pmem_file_works_on_in_memory_images() {
    // CrashImage::from_devices path: the report survives a device
    // handoff with no file backing.
    let store = DStore::create(bb_cfg()).unwrap();
    load(&store, 60);
    let img = store.crash();
    let cfg = bb_cfg();
    let img2 = CrashImage::from_devices(img.pool().clone(), img.ssd().clone(), cfg);
    let report = DStore::post_mortem(&img2)
        .unwrap()
        .expect("report survives");
    assert!(!report.clean);
    assert!(report.heartbeat.is_some());
}
