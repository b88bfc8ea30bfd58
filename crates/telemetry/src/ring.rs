//! The one lock-free seqlock ring under [`crate::SpanRing`] and
//! [`crate::TraceRing`].
//!
//! A ring keeps the most recent `capacity` records of `W` words each.
//! A writer takes the next sequence number with one `fetch_add`, claims
//! that number's slot by flipping the slot's version odd with one CAS,
//! stores its words and publishes by making the version even again, so
//! recording never blocks. A writer that laps into a slot whose previous
//! (descheduled) writer is still mid-publish drops its record instead of
//! waiting, counted in [`SeqRing::dropped`]. A snapshot copies each slot
//! between two reads of its version and skips a slot that is mid-publish
//! or changed under it, so it never returns a torn record.
//!
//! The typed rings only encode and decode words. By their contract the
//! last word of every record is the sequence number the ring handed to
//! the encoder, which is what a snapshot sorts by.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

struct Slot<const W: usize> {
    /// Seqlock word: odd while a writer owns the slot, even when stable.
    version: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity ring of `W`-word records.
pub(crate) struct SeqRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    /// Next global sequence number (== records ever recorded).
    head: AtomicUsize,
    /// Records dropped because their slot's previous writer was still
    /// publishing (the ring lapped a stalled writer).
    dropped: AtomicU64,
}

impl<const W: usize> SeqRing<W> {
    /// A ring holding the most recent `capacity` records (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        SeqRing {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed) as u64
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publishes `encode(seq)` into the next slot and returns `seq`, the
    /// record's global sequence number. One `fetch_add` and one CAS
    /// attempt; a claim that fails drops the record.
    #[inline]
    pub(crate) fn record(&self, encode: impl FnOnce(u64) -> [u64; W]) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed) as u64;
        let slot = &self.slots[(seq as usize) % self.slots.len()];
        let v = slot.version.load(Ordering::Relaxed);
        if !v.is_multiple_of(2)
            || slot
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return seq;
        }
        for (w, x) in slot.words.iter().zip(encode(seq)) {
            w.store(x, Ordering::Relaxed);
        }
        slot.version.store(v + 2, Ordering::Release);
        seq
    }

    /// The words of every published record, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<[u64; W]> {
        let mut out: Vec<[u64; W]> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 != 0 {
                continue; // never written, or mid-publish
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue; // overwritten while reading
            }
            out.push(words);
        }
        out.sort_by_key(|w| w[W - 1]);
        out
    }
}

impl<const W: usize> std::fmt::Debug for SeqRing<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// The two words a `&'static str` is recorded as: pointer and length.
pub(crate) fn str_words(s: &'static str) -> [u64; 2] {
    [s.as_ptr() as u64, s.len() as u64]
}

/// The `&'static str` that [`str_words`] recorded.
///
/// # Safety
///
/// `ptr` and `len` must be the words [`str_words`] returned, read back
/// from a record that [`SeqRing::snapshot`] validated.
pub(crate) unsafe fn static_str(ptr: u64, len: u64) -> &'static str {
    // SAFETY: per the contract, (ptr, len) came from a live `&'static
    // str`, so the bytes are valid UTF-8 for the program's lifetime.
    unsafe {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_writer_lapping_a_stalled_writer_drops_its_record() {
        let ring = SeqRing::<2>::new(2);
        assert_eq!(ring.record(|seq| [10, seq]), 0);
        // Slot 1's writer is descheduled mid-publish.
        ring.slots[1].version.store(1, Ordering::Relaxed);
        assert_eq!(ring.record(|seq| [11, seq]), 1);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.snapshot(), vec![[10, 0]]);
        // The ring wraps onto slot 0 and keeps the newest record there.
        assert_eq!(ring.record(|seq| [12, seq]), 2);
        assert_eq!(ring.snapshot(), vec![[12, 2]]);
        assert_eq!((ring.recorded(), ring.dropped()), (3, 1));
    }

    #[test]
    fn static_str_roundtrips_its_words() {
        let [ptr, len] = str_words("apply");
        // SAFETY: the words came from `str_words`.
        assert_eq!(unsafe { static_str(ptr, len) }, "apply");
    }
}
