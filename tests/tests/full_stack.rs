//! Cross-crate integration tests: the whole stack from the persistence
//! simulator up through DStore's API, plus baseline smoke coverage.

use dstore::{CheckpointMode, DStore, DStoreConfig, LoggingMode, OpenMode};
use dstore_baselines::KvSystem;
use dstore_workload::{ScrambledZipfian, Workload, WorkloadKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A realistic mixed workload with background checkpoints, verified
/// against a model, crashed, recovered, and verified again.
#[test]
fn ycsb_style_workload_with_crash() {
    let mut cfg = DStoreConfig::small();
    cfg.log_size = 64 << 10; // force several checkpoints
    cfg.ssd_pages = 8192;
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    let workload = Workload::new(WorkloadKind::A, 200, 1024);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    // Preload.
    for key in workload.load_keys() {
        let v = vec![7u8; 1024];
        ctx.put(&key, &v).unwrap();
        model.insert(key, v);
    }
    // Mixed traffic.
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..2000u64 {
        match workload.next_op(&mut rng) {
            dstore_workload::YcsbOp::Read { key } => {
                assert_eq!(
                    ctx.get(&key).ok().as_deref(),
                    model.get(&key).map(|v| &v[..])
                );
            }
            dstore_workload::YcsbOp::Update { key, value_size } => {
                let v = vec![(i % 251) as u8; value_size];
                ctx.put(&key, &v).unwrap();
                model.insert(key, v);
            }
        }
    }
    drop(ctx);
    store.wait_checkpoint_idle();

    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    assert_eq!(recovered.object_count(), model.len() as u64);
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v);
    }
}

/// Multi-threaded clients + background checkpoints + crash: the final
/// state must be *a* consistent outcome (every object holds a value some
/// thread wrote, with full values — no torn data).
#[test]
fn concurrent_workload_crash_consistency() {
    let mut cfg = DStoreConfig::small();
    cfg.log_size = 64 << 10;
    cfg.ssd_pages = 8192;
    let store = Arc::new(DStore::create(cfg).unwrap());
    std::thread::scope(|s| {
        for t in 0..4u8 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let ctx = store.context();
                let zipf = ScrambledZipfian::new(50);
                let mut rng = StdRng::seed_from_u64(t as u64);
                for i in 0..300u32 {
                    let key = format!("obj{}", zipf.next(&mut rng));
                    // Value encodes (thread, i) in every byte pair so torn
                    // values are detectable.
                    let tag = (t as u32) << 16 | i;
                    let v: Vec<u8> = tag.to_le_bytes().repeat(256);
                    ctx.put(key.as_bytes(), &v).unwrap();
                }
            });
        }
    });
    let store = Arc::into_inner(store).unwrap();
    store.wait_checkpoint_idle();
    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    for name in ctx.list() {
        let v = ctx.get(&name).unwrap();
        assert_eq!(v.len(), 1024);
        // Untorn: the 4-byte tag repeats through the whole value.
        let tag = &v[..4];
        assert!(
            v.chunks(4).all(|c| c == tag),
            "torn value in {}",
            String::from_utf8_lossy(&name)
        );
    }
}

/// The filesystem API composes with crash recovery.
#[test]
fn filesystem_api_full_cycle() {
    let store = DStore::create(DStoreConfig::small()).unwrap();
    let ctx = store.context();
    let f = ctx.open(b"journal.log", OpenMode::Create(0)).unwrap();
    let mut expected = Vec::new();
    for i in 0..50 {
        let line = format!("entry {i:03}\n");
        f.write(line.as_bytes(), expected.len() as u64).unwrap();
        expected.extend_from_slice(line.as_bytes());
    }
    drop(f);
    drop(ctx);
    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    let f = ctx.open(b"journal.log", OpenMode::Read).unwrap();
    assert_eq!(f.size().unwrap(), expected.len() as u64);
    let mut buf = vec![0u8; expected.len()];
    f.read(&mut buf, 0).unwrap();
    assert_eq!(buf, expected);
}

/// Every system under benchmark obeys basic KV semantics through the
/// shared trait.
#[test]
fn baselines_obey_kv_semantics() {
    use dstore_baselines::{
        lsm::LsmConfig, pagecache::PageCacheConfig, uncached::UncachedConfig, LsmStore,
        PageCacheBTree, UncachedStore,
    };
    use dstore_pmem::PmemPool;
    use dstore_ssd::SsdDevice;

    let systems: Vec<Box<dyn KvSystem>> = vec![
        Box::new(ArcKv(LsmStore::new(
            Arc::new(PmemPool::anon(16 << 20)),
            Arc::new(SsdDevice::anon(16384)),
            LsmConfig::default().no_software_cost(),
        ))),
        Box::new(ArcKv(PageCacheBTree::new(
            Arc::new(PmemPool::anon(16 << 20)),
            Arc::new(SsdDevice::anon(128 * 1024)),
            PageCacheConfig::default().no_software_cost(),
        ))),
        Box::new(ArcKv(UncachedStore::new(
            Arc::new(PmemPool::anon(64 << 20)),
            UncachedConfig::default().no_software_cost(),
        ))),
    ];
    for sys in &systems {
        let name = sys.name();
        for i in 0..200 {
            sys.put(format!("k{i}").as_bytes(), &vec![i as u8; 500]);
        }
        sys.quiesce();
        for i in 0..200 {
            assert_eq!(
                sys.get(format!("k{i}").as_bytes()).unwrap(),
                vec![i as u8; 500],
                "{name}: k{i}"
            );
        }
        sys.delete(b"k0");
        assert_eq!(sys.get(b"k0"), None, "{name}");
        let (_d, p, _s) = sys.footprint();
        assert!(p > 0, "{name}: no PMEM use?");
    }
}

struct ArcKv<T: KvSystem + ?Sized>(Arc<T>);
impl<T: KvSystem + ?Sized> KvSystem for ArcKv<T> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn put(&self, k: &[u8], v: &[u8]) {
        self.0.put(k, v)
    }
    fn get(&self, k: &[u8]) -> Option<Vec<u8>> {
        self.0.get(k)
    }
    fn delete(&self, k: &[u8]) {
        self.0.delete(k)
    }
    fn quiesce(&self) {
        self.0.quiesce()
    }
    fn footprint(&self) -> (u64, u64, u64) {
        self.0.footprint()
    }
}

/// File-backed devices: a store written through DAX files survives a
/// *real* process-lifetime boundary (drop everything, reopen from disk).
#[test]
fn file_backed_store_reopens_from_disk() {
    let dir = tempfile::tempdir().unwrap();
    let mut cfg = DStoreConfig::small();
    cfg.pmem_file = Some(dir.path().join("pool.pmem"));
    cfg.ssd_file = Some(dir.path().join("data.ssd"));
    {
        let store = DStore::create(cfg.clone()).unwrap();
        let ctx = store.context();
        for i in 0..40 {
            ctx.put(format!("disk{i}").as_bytes(), &vec![3u8; 3000])
                .unwrap();
        }
        drop(ctx);
        let _ = store.close(); // checkpoints + syncs the backing files
    }
    // Brand-new devices over the same files.
    let pool = Arc::new(
        dstore_pmem::PoolBuilder::new(
            dstore_dipper::PmemLayout::new(&dstore_dipper::DipperConfig {
                log_size: cfg.log_size,
                shadow_size: cfg.shadow_size,
            })
            .total,
        )
        .mode(dstore_pmem::PersistenceMode::Strict)
        .dax_file(dir.path().join("pool.pmem"))
        .build()
        .unwrap(),
    );
    let ssd = Arc::new(
        dstore_ssd::SsdDevice::file_backed(&dir.path().join("data.ssd"), cfg.ssd_pages).unwrap(),
    );
    let image = dstore::store::CrashImage::from_devices(pool, ssd, cfg);
    let store = DStore::recover(image).unwrap();
    let ctx = store.context();
    assert_eq!(store.object_count(), 40);
    assert_eq!(ctx.get(b"disk39").unwrap(), vec![3u8; 3000]);
}

/// Multi-page allocation blocks (§4.2 "SSD pages are grouped into
/// blocks"): the full API + crash recovery work with 4-page blocks, and
/// data written under one geometry reads back exactly.
#[test]
fn multi_page_blocks_end_to_end() {
    let mut cfg = DStoreConfig::small();
    cfg.pages_per_block = 4; // 16 KB blocks
    let store = DStore::create(cfg).unwrap();
    let ctx = store.context();
    let mut model = BTreeMap::new();
    // Sizes straddling block boundaries: sub-block, exactly one block,
    // one block + a page, many blocks.
    for (i, size) in [100usize, 4096, 16384, 16385, 20_000, 70_000, 0]
        .iter()
        .enumerate()
    {
        let k = format!("blk{i}").into_bytes();
        let v: Vec<u8> = (0..*size).map(|j| ((i * 131 + j) % 251) as u8).collect();
        ctx.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v);
    }
    // Filesystem API across block boundaries.
    use dstore::OpenMode;
    let f = ctx.open(b"spanning", OpenMode::Create(0)).unwrap();
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 253) as u8).collect();
    f.write(&data, 10_000).unwrap();
    let mut buf = vec![0u8; 40_000];
    f.read(&mut buf, 10_000).unwrap();
    assert_eq!(buf, data);
    drop(f);
    drop(ctx);
    // Crash + recover keeps everything (replay re-derives the same block
    // geometry from the shadowed directory).
    let recovered = DStore::recover(store.crash()).unwrap();
    let ctx = recovered.context();
    for (k, v) in &model {
        assert_eq!(&ctx.get(k).unwrap(), v);
    }
    let f = ctx.open(b"spanning", OpenMode::Read).unwrap();
    let mut buf = vec![0u8; 40_000];
    f.read(&mut buf, 10_000).unwrap();
    assert_eq!(buf, data);
}

/// Ablation configurations all converge to the same observable state.
#[test]
fn ablation_modes_are_observationally_equivalent() {
    let mut finals = Vec::new();
    for (ckpt, logging, oe) in [
        (CheckpointMode::Cow, LoggingMode::Physical, false),
        (CheckpointMode::Cow, LoggingMode::Logical, false),
        (CheckpointMode::Dipper, LoggingMode::Logical, false),
        (CheckpointMode::Dipper, LoggingMode::Logical, true),
    ] {
        let cfg = DStoreConfig::small()
            .with_checkpoint(ckpt)
            .with_logging(logging)
            .with_oe(oe);
        let store = DStore::create(cfg).unwrap();
        let ctx = store.context();
        for i in 0..150u32 {
            ctx.put(
                format!("m{}", i % 40).as_bytes(),
                &i.to_le_bytes().repeat(100),
            )
            .unwrap();
        }
        ctx.delete(b"m7").unwrap();
        drop(ctx);
        let recovered = DStore::recover(store.crash()).unwrap();
        let ctx = recovered.context();
        let state: Vec<(Vec<u8>, Vec<u8>)> = ctx
            .list()
            .into_iter()
            .map(|k| {
                let v = ctx.get(&k).unwrap();
                (k, v)
            })
            .collect();
        finals.push(state);
    }
    for w in finals.windows(2) {
        assert_eq!(w[0], w[1], "modes diverged");
    }
}
