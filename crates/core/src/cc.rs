//! Read-write concurrency control (§4.4): one table of per-name latches.
//!
//! Write-write conflicts are resolved by the log's conflict scan
//! (`dstore-dipper`). For read-write conflicts the paper keeps "an
//! in-memory hash table that maps object names to their current read
//! count", which a writer polls down to zero. A slot here holds that count
//! beside the mark of the one writer the log admits per name, so each
//! step of the protocol is one critical section on one slot: a reader
//! registers only while no mark is set, and a mutation turns its own
//! reader registration into the mark, drains the other readers, and drops
//! the mark before it commits (DESIGN.md §6a item 8). A slot lives only
//! while a latch holds it, so the table is as large as the operations in
//! flight, not as the set of names ever seen.

use dstore_index::fnv1a;
use dstore_pmem::Backoff;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

const SHARDS: usize = 64;
const INLINE_NAME: usize = 32;

/// A latched name, inline up to [`INLINE_NAME`] bytes so that a latch on
/// a typical (short) name allocates nothing.
enum NameBuf {
    Inline(u8, [u8; INLINE_NAME]),
    Heap(Box<[u8]>),
}

impl NameBuf {
    fn new(name: &[u8]) -> Self {
        let mut bytes = [0u8; INLINE_NAME];
        match bytes.get_mut(..name.len()) {
            Some(b) => {
                b.copy_from_slice(name);
                NameBuf::Inline(name.len() as u8, bytes)
            }
            None => NameBuf::Heap(name.into()),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            NameBuf::Inline(len, bytes) => &bytes[..*len as usize],
            NameBuf::Heap(name) => name,
        }
    }
}

/// One latched name, with its full FNV-1a tag so a lookup compares bytes
/// only on a tag hit.
struct Slot {
    tag: u64,
    name: NameBuf,
    readers: u32,
    writer: bool,
}

/// Sharded name → (read count, writer mark) table. A shard holds only
/// the names latched right now, so a flat vector beats a hash map, and it
/// keeps its capacity, so the steady state allocates nothing.
pub struct NameLatches {
    shards: Vec<Mutex<Vec<Slot>>>,
    stall_timeout: Duration,
}

fn find(slots: &[Slot], tag: u64, name: &[u8]) -> Option<usize> {
    slots
        .iter()
        .position(|s| s.tag == tag && s.name.as_slice() == name)
}

impl NameLatches {
    /// Empty table whose waits panic after `stall_timeout` (see
    /// `DStoreConfig::stall_timeout`).
    pub fn new(stall_timeout: Duration) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            stall_timeout,
        }
    }

    fn shard(&self, tag: u64) -> &Mutex<Vec<Slot>> {
        &self.shards[(tag as usize) & (SHARDS - 1)]
    }

    /// Registers a reader of `name`, or returns `None` without
    /// registering when a writer holds `name`'s mark.
    pub fn try_read<'a>(&'a self, name: &'a [u8]) -> Option<ReadLatch<'a>> {
        let tag = fnv1a(name);
        let mut slots = self.shard(tag).lock();
        match find(&slots, tag, name) {
            Some(i) if slots[i].writer => return None,
            Some(i) => slots[i].readers += 1,
            None => slots.push(Slot {
                tag,
                name: NameBuf::new(name),
                readers: 1,
                writer: false,
            }),
        }
        Some(ReadLatch(Latch {
            table: self,
            tag,
            name,
        }))
    }

    /// Waits until no writer holds `name`'s mark (a reader's back-off).
    pub fn wait_clear(&self, name: &[u8]) {
        self.wait(fnv1a(name), name, "wait_clear", |s| !s.writer);
    }

    /// Backs off until `done` holds for `name`'s slot or the slot is gone.
    /// A latch is held for one operation, so a wait that outlives
    /// `stall_timeout` is a leaked latch: it panics, naming the object.
    fn wait(&self, tag: u64, name: &[u8], what: &str, done: impl Fn(&Slot) -> bool) {
        let t = Instant::now();
        let mut backoff = Backoff::new();
        loop {
            let slots = self.shard(tag).lock();
            if find(&slots, tag, name).is_none_or(|i| done(&slots[i])) {
                return;
            }
            drop(slots);
            backoff.snooze();
            if backoff.is_sleeping() && t.elapsed() > self.stall_timeout {
                panic!(
                    "{what} stalled >{:?} on {:?}: leaked latch?",
                    self.stall_timeout,
                    String::from_utf8_lossy(name)
                );
            }
        }
    }

    /// Applies `f` to the slot `l` holds, then drops the slot if no latch
    /// holds it any more.
    fn update(&self, l: &Latch<'_>, f: impl FnOnce(&mut Slot)) {
        let mut slots = self.shard(l.tag).lock();
        let i = find(&slots, l.tag, l.name).expect("a held latch has a slot");
        f(&mut slots[i]);
        if slots[i].readers == 0 && !slots[i].writer {
            slots.swap_remove(i);
        }
    }
}

/// What a held latch needs to find its slot again.
#[derive(Clone, Copy)]
struct Latch<'a> {
    table: &'a NameLatches,
    tag: u64,
    name: &'a [u8],
}

/// A registered reader of one name; unregisters on drop.
pub struct ReadLatch<'a>(Latch<'a>);

impl<'a> ReadLatch<'a> {
    /// Turns this reader registration into the name's writer mark in one
    /// critical section; from then on no reader registers. The log admits
    /// one in-flight record per name, so a mark already set is a logic
    /// error, checked in every build.
    pub fn into_writer(self) -> WriteLatch<'a> {
        let l = self.0;
        l.table.update(&l, |s| {
            let name = String::from_utf8_lossy(l.name);
            assert!(!s.writer, "two in-flight writers on {name:?}");
            s.readers -= 1;
            s.writer = true;
        });
        std::mem::forget(self);
        WriteLatch(l)
    }
}

impl Drop for ReadLatch<'_> {
    fn drop(&mut self) {
        self.0.table.update(&self.0, |s| s.readers -= 1);
    }
}

/// The writer mark on one name; cleared on drop.
pub struct WriteLatch<'a>(Latch<'a>);

impl WriteLatch<'_> {
    /// Waits until every reader registered before the mark has released:
    /// the paper's writer-side poll of the read count.
    pub fn drain_readers(&self) {
        let l = &self.0;
        l.table
            .wait(l.tag, l.name, "drain_readers", |s| s.readers == 0);
    }
}

impl Drop for WriteLatch<'_> {
    fn drop(&mut self) {
        self.0.table.update(&self.0, |s| s.writer = false);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    impl NameLatches {
        /// `name`'s `(readers, writer mark)`, if it has a slot.
        pub(crate) fn state(&self, name: &[u8]) -> Option<(u32, bool)> {
            let tag = fnv1a(name);
            let slots = self.shard(tag).lock();
            find(&slots, tag, name).map(|i| (slots[i].readers, slots[i].writer))
        }

        /// Slots in all shards.
        pub(crate) fn slots(&self) -> usize {
            self.shards.iter().map(|s| s.lock().len()).sum()
        }
    }

    fn table() -> NameLatches {
        NameLatches::new(Duration::from_secs(30))
    }

    #[test]
    fn register_contains_unregister() {
        let t = table();
        assert_eq!(t.state(b"a"), None);
        let w = t.try_read(b"a").unwrap().into_writer();
        assert_eq!(t.state(b"a"), Some((0, true)));
        assert!(t.try_read(b"a").is_none(), "a reader passed the mark");
        assert!(t.try_read(b"b").is_some());
        drop(w);
        assert_eq!(t.state(b"a"), None);
        assert!(t.try_read(b"a").is_some());
    }

    #[test]
    fn guard_increments_and_decrements() {
        let t = table();
        let r1 = t.try_read(b"obj").unwrap();
        let r2 = t.try_read(b"obj").unwrap();
        assert_eq!(t.state(b"obj"), Some((2, false)));
        drop(r1);
        assert_eq!(t.state(b"obj"), Some((1, false)));
        drop(r2);
        assert_eq!(t.state(b"obj"), None);
    }

    #[test]
    fn guard_is_raii() {
        let t = table();
        {
            let _r = t.try_read(b"obj").unwrap();
            assert_eq!(t.slots(), 1);
        }
        {
            let _w = t.try_read(b"obj").unwrap().into_writer();
            assert_eq!(t.slots(), 1);
        }
        assert_eq!(t.slots(), 0);
    }

    #[test]
    fn distinct_names_are_independent() {
        let t = table();
        let _r = t.try_read(b"a").unwrap();
        let w = t.try_read(b"b").unwrap().into_writer();
        assert_eq!(t.state(b"a"), Some((1, false)));
        assert_eq!(t.state(b"b"), Some((0, true)));
        // Neither wait blocks on the other name's latch.
        w.drain_readers();
        t.wait_clear(b"a");
    }

    #[test]
    fn idle_slots_are_removed() {
        let t = table();
        drop(t.try_read(b"temp").unwrap());
        assert_eq!(t.slots(), 0);
        let _live = t.try_read(b"live").unwrap();
        drop(t.try_read(b"live").unwrap());
        assert_eq!(t.slots(), 1, "a held slot survives another's release");
    }

    #[test]
    fn inline_boundary_roundtrips() {
        let t = table();
        for len in [0usize, 1, 31, 32, 33] {
            let name = vec![b'x'; len];
            let w = t.try_read(&name).unwrap().into_writer();
            assert_eq!(t.state(&name), Some((0, true)), "len {len}");
            for other in [0usize, 1, 31, 32, 33].into_iter().filter(|&o| o != len) {
                assert!(t.try_read(&vec![b'x'; other]).is_some(), "{len} vs {other}");
            }
            drop(w);
            assert_eq!(t.state(&name), None, "len {len}");
        }
        assert_eq!(t.slots(), 0);
    }

    #[test]
    fn long_names_compare_exactly() {
        let t = table();
        let long_a = vec![b'a'; 100];
        let mut long_b = long_a.clone();
        *long_b.last_mut().unwrap() = b'b';
        let wa = t.try_read(&long_a).unwrap().into_writer();
        assert_eq!(t.state(&long_b), None);
        let rb = t.try_read(&long_b).unwrap();
        drop(wa);
        assert_eq!(t.state(&long_a), None);
        assert_eq!(t.state(&long_b), Some((1, false)));
        drop(rb);
        assert_eq!(t.slots(), 0);
    }

    #[test]
    fn concurrent_readers_count_correctly() {
        let t = Arc::new(table());
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let _r = t.try_read(b"contended").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.slots(), 0);
    }

    /// Spins until `cond` holds; the deadline only turns a hang into a
    /// failure.
    pub(crate) fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let t = Instant::now();
        while !cond() {
            assert!(t.elapsed() < Duration::from_secs(60), "never saw {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_clear_unblocks() {
        let t = Arc::new(table());
        let w = t.try_read(b"busy").unwrap().into_writer();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            t2.wait_clear(b"busy");
            t2.try_read(b"busy").is_some()
        });
        assert!(!waiter.is_finished(), "wait_clear passed a held mark");
        drop(w);
        assert!(waiter.join().unwrap(), "the mark was still set");
    }

    #[test]
    fn writer_waits_until_reader_finishes() {
        let t = Arc::new(table());
        let r = t.try_read(b"hot").unwrap();
        let t2 = Arc::clone(&t);
        let writer = std::thread::spawn(move || {
            let w = t2.try_read(b"hot").unwrap().into_writer();
            w.drain_readers();
            t2.state(b"hot")
        });
        // The writer's mark is up while our registration keeps it out.
        wait_until("the writer mark", || t.state(b"hot") == Some((1, true)));
        assert!(t.try_read(b"hot").is_none(), "a reader passed the mark");
        assert!(!writer.is_finished(), "drain_readers passed a reader");
        drop(r);
        assert_eq!(writer.join().unwrap(), Some((0, true)));
        assert_eq!(t.slots(), 0);
    }

    #[test]
    #[should_panic(expected = "two in-flight writers")]
    fn second_writer_mark_panics() {
        let t = table();
        let r = t.try_read(b"obj").unwrap();
        let _w = t.try_read(b"obj").unwrap().into_writer();
        let _ = r.into_writer();
    }
}
