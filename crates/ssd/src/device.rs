//! The emulated NVMe device.

use crate::latency::SsdLatency;
use crate::stats::SsdStats;
use crate::{PageNo, PAGE_SIZE};
use dstore_pmem::mapping::Mapping;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// A crash-faithful device's table holds at least this many entries
/// before a submit drops the ones whose writes have completed.
const PRUNE_AT: usize = 256;

/// A page whose write is still in flight: when the latest write to it
/// completes, and what the page held before the oldest one began.
struct InFlight {
    deadline: u64,
    pre_image: Box<[u8]>,
}

/// An emulated NVMe SSD exposing 4 KB pages.
///
/// Durability contract (matches the paper's §4.5): a completed write has
/// reached the device's capacitor-backed write cache and **survives power
/// failure**. There is consequently no flush/sync operation on the data
/// path; [`SsdDevice::simulate_crash`] keeps all completed writes. A
/// write submitted with [`SsdDevice::submit_write_pages`] completes at
/// its deadline: on a [crash-faithful](SsdDevice::crash_faithful) device
/// a crash before then rolls its pages back to what they held before it.
///
/// Concurrent accesses to distinct pages are safe; concurrent accesses to
/// the same page must be synchronized by the caller (DStore's concurrency
/// control guarantees this — at most one writer per object, and readers are
/// excluded from in-flight writes by the name-latch table).
pub struct SsdDevice {
    backing: Mapping,
    pages: u64,
    latency: SsdLatency,
    stats: SsdStats,
    /// Crash-faithful devices only: every page with a submitted write
    /// still in flight, for [`SsdDevice::simulate_crash`] to roll back.
    in_flight: Option<Mutex<HashMap<PageNo, InFlight>>>,
}

impl SsdDevice {
    /// Creates a memory-backed device with `pages` 4 KB pages.
    pub fn anon(pages: u64) -> Self {
        let backing = Mapping::anonymous((pages as usize) * PAGE_SIZE)
            .expect("anonymous mmap for SSD backing failed");
        Self {
            backing,
            pages,
            latency: SsdLatency::none(),
            stats: SsdStats::new(),
            in_flight: None,
        }
    }

    /// Creates (or reopens) a file-backed device.
    pub fn file_backed(path: &Path, pages: u64) -> io::Result<Self> {
        let backing = Mapping::file_backed(path, (pages as usize) * PAGE_SIZE)?;
        Ok(Self {
            backing,
            pages,
            latency: SsdLatency::none(),
            stats: SsdStats::new(),
            in_flight: None,
        })
    }

    /// Installs a latency model (builder style).
    pub fn with_latency(mut self, latency: SsdLatency) -> Self {
        self.latency = latency;
        self
    }

    /// Makes the device crash-faithful (builder style): it keeps each
    /// in-flight submitted write's pre-image until the write's deadline,
    /// so [`SsdDevice::simulate_crash`] loses every write that had not
    /// completed. Strict-persistence stores use it; a device without it
    /// keeps no table and treats a submitted write as durable at once.
    pub fn crash_faithful(mut self) -> Self {
        self.in_flight = Some(Mutex::new(HashMap::new()));
        self
    }

    /// Device capacity in pages.
    #[inline]
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Device capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// Traffic counters.
    #[inline]
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// The installed latency model.
    #[inline]
    pub fn latency(&self) -> &SsdLatency {
        &self.latency
    }

    #[inline]
    fn check(&self, page: PageNo, count: usize) {
        assert!(
            page.checked_add(count as u64)
                .is_some_and(|end| end <= self.pages),
            "ssd access out of bounds: page={page} count={count} capacity={}",
            self.pages
        );
    }

    /// Writes `data` starting at `page`. `data.len()` must be a multiple of
    /// [`PAGE_SIZE`]. Durable on return (device write cache is power-loss
    /// protected). Issues one command per contiguous run, charging latency
    /// once for the whole transfer.
    pub fn write_pages(&self, page: PageNo, data: &[u8]) {
        assert!(
            data.len().is_multiple_of(PAGE_SIZE) && !data.is_empty(),
            "ssd writes are whole pages (got {} bytes)",
            data.len()
        );
        let count = data.len() / PAGE_SIZE;
        self.check(page, count);
        self.stats.record_write(data.len() as u64);
        self.latency.charge_write(data.len());
        self.settle(page, count);
        // SAFETY: bounds checked; raw copy, no references formed; callers
        // synchronize same-page access per the type contract.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.backing.as_ptr().add(page as usize * PAGE_SIZE),
                data.len(),
            );
        }
    }

    /// Submits `data` at `page` without waiting for device time: the copy
    /// lands in the power-loss-protected write cache immediately and the
    /// returned value is the command's completion deadline in
    /// [`dstore_telemetry::now_ns`] nanoseconds. The write is durable once
    /// that deadline passes — wait on it with [`SsdDevice::wait_durable`]
    /// once the submitter has nothing left to overlap with it. Models
    /// the same per-command device time as
    /// [`SsdDevice::write_pages`] (the paper's wide-open 28-queue-slot
    /// P4800X calibration), just without blocking the submitter. A
    /// crash-faithful device first saves the pages' pre-images, unless a
    /// write to the page is already in flight (the crash then rolls both
    /// back) or the write costs no device time.
    pub fn submit_write_pages(&self, page: PageNo, data: &[u8]) -> u64 {
        assert!(
            data.len().is_multiple_of(PAGE_SIZE) && !data.is_empty(),
            "ssd writes are whole pages (got {} bytes)",
            data.len()
        );
        let count = data.len() / PAGE_SIZE;
        self.check(page, count);
        self.stats.record_write(data.len() as u64);
        let now = dstore_telemetry::now_ns();
        let deadline = now + self.latency.write_cost_ns(data.len());
        if let Some(table) = self.in_flight.as_ref().filter(|_| deadline > now) {
            let mut table = table.lock();
            if table.len() >= PRUNE_AT {
                table.retain(|_, w| w.deadline > now);
            }
            for p in page..page + count as u64 {
                match table.get_mut(&p) {
                    Some(w) if w.deadline > now => w.deadline = w.deadline.max(deadline),
                    _ => {
                        let pre_image = self.page_bytes(p).into();
                        table.insert(
                            p,
                            InFlight {
                                deadline,
                                pre_image,
                            },
                        );
                    }
                }
            }
        }
        // SAFETY: bounds checked; raw copy, no references formed; callers
        // synchronize same-page access per the type contract.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.backing.as_ptr().add(page as usize * PAGE_SIZE),
                data.len(),
            );
        }
        deadline
    }

    /// The current bytes of `page` (bounds checked by the caller).
    fn page_bytes(&self, page: PageNo) -> &[u8] {
        // SAFETY: in bounds; callers synchronize same-page access per the
        // type contract, so no write to `page` races this read.
        unsafe {
            std::slice::from_raw_parts(
                self.backing.as_ptr().add(page as usize * PAGE_SIZE),
                PAGE_SIZE,
            )
        }
    }

    /// A synchronous write to `count` pages from `page` is durable on
    /// return: a crash no longer rolls those pages back.
    fn settle(&self, page: PageNo, count: usize) {
        if let Some(table) = &self.in_flight {
            let mut table = table.lock();
            if !table.is_empty() {
                for p in page..page + count as u64 {
                    table.remove(&p);
                }
            }
        }
    }

    /// Blocks until `deadline_ns` (a [`SsdDevice::submit_write_pages`]
    /// return value) has passed — the point where that submission is
    /// durable. A deadline of 0 (or one already in the past) returns
    /// immediately.
    pub fn wait_durable(&self, deadline_ns: u64) {
        if deadline_ns == 0 {
            return;
        }
        let now = dstore_telemetry::now_ns();
        if deadline_ns > now {
            // Yielding wait: the submission is in flight on the modelled
            // device, so the CPU stays schedulable (a real waiter polls a
            // completion queue or blocks on an interrupt).
            dstore_pmem::latency::yield_wait_ns(deadline_ns - now);
        }
    }

    /// Writes a partial page: `data` at byte `offset` within `page`.
    /// Models the read-modify-write the device performs for sub-page IO
    /// (charged as a full-page write, which is why the paper says small
    /// writes "result in write amplification" and match 4 KB throughput).
    pub fn write_partial(&self, page: PageNo, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= PAGE_SIZE,
            "partial write crosses page boundary: offset={offset} len={}",
            data.len()
        );
        self.check(page, 1);
        self.stats.record_write(PAGE_SIZE as u64);
        self.latency.charge_write(PAGE_SIZE);
        self.settle(page, 1);
        // SAFETY: bounds checked above.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.backing
                    .as_ptr()
                    .add(page as usize * PAGE_SIZE + offset),
                data.len(),
            );
        }
    }

    /// Reads `buf.len()` bytes starting at `page` (must be whole pages).
    pub fn read_pages(&self, page: PageNo, buf: &mut [u8]) {
        // SAFETY: `read_pages_uninit` only writes initialized bytes, so
        // `buf` stays initialized.
        self.read_pages_uninit(page, unsafe {
            &mut *(buf as *mut [u8] as *mut [std::mem::MaybeUninit<u8>])
        });
    }

    /// [`SsdDevice::read_pages`] into memory that need not be initialized
    /// (a vector's spare capacity, say): every byte of `buf` is written.
    pub fn read_pages_uninit(&self, page: PageNo, buf: &mut [std::mem::MaybeUninit<u8>]) {
        assert!(
            buf.len().is_multiple_of(PAGE_SIZE) && !buf.is_empty(),
            "ssd reads are whole pages (got {} bytes)",
            buf.len()
        );
        let count = buf.len() / PAGE_SIZE;
        self.check(page, count);
        self.stats.record_read(buf.len() as u64);
        self.latency.charge_read(buf.len());
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.backing.as_ptr().add(page as usize * PAGE_SIZE),
                buf.as_mut_ptr().cast::<u8>(),
                buf.len(),
            );
        }
    }

    /// Reads an arbitrary byte range (charged as the covering page reads).
    pub fn read_range(&self, page: PageNo, offset: usize, buf: &mut [u8]) {
        assert!(offset < PAGE_SIZE, "offset must be within the first page");
        let total = offset + buf.len();
        let count = total.div_ceil(PAGE_SIZE);
        self.check(page, count);
        self.stats.record_read((count * PAGE_SIZE) as u64);
        self.latency.charge_read(count * PAGE_SIZE);
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.backing
                    .as_ptr()
                    .add(page as usize * PAGE_SIZE + offset),
                buf.as_mut_ptr(),
                buf.len(),
            );
        }
    }

    /// Power failure now. Completed writes survive (capacitor-backed
    /// cache). A crash-faithful device rolls every page whose submitted
    /// write had not reached its deadline back to its pre-image; returns
    /// how many pages it rolled back (always 0 on other devices).
    pub fn simulate_crash(&self) -> usize {
        let Some(table) = &self.in_flight else {
            return 0;
        };
        let now = dstore_telemetry::now_ns();
        let mut lost = 0;
        for (page, w) in table.lock().drain() {
            if w.deadline > now {
                // SAFETY: the page was bounds checked when its write was
                // submitted; a crash has no concurrent writers.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        w.pre_image.as_ptr(),
                        self.backing.as_ptr().add(page as usize * PAGE_SIZE),
                        PAGE_SIZE,
                    );
                }
                lost += 1;
            }
        }
        lost
    }

    /// Synchronizes a file-backed device to its file (for real restarts).
    pub fn sync_backing_file(&self) -> io::Result<()> {
        self.backing.sync_range(0, self.backing.len())
    }
}

// SAFETY: interior mutability is raw page memory with a documented
// caller-synchronization contract, plus atomic counters.
unsafe impl Send for SsdDevice {}
unsafe impl Sync for SsdDevice {}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn write_read_roundtrip() {
        let d = SsdDevice::anon(16);
        d.write_pages(3, &page_of(0xAB));
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_pages(3, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn multi_page_transfer() {
        let d = SsdDevice::anon(16);
        let mut data = page_of(1);
        data.extend(page_of(2));
        data.extend(page_of(3));
        d.write_pages(5, &data);
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        d.read_pages(5, &mut buf);
        assert_eq!(buf, data);
        let s = d.stats().snapshot();
        assert_eq!(s.write_ops, 1, "one command for a contiguous run");
        assert_eq!(s.write_bytes, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn partial_write_preserves_rest_of_page() {
        let d = SsdDevice::anon(4);
        d.write_pages(0, &page_of(0x11));
        d.write_partial(0, 100, b"patch");
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_pages(0, &mut buf);
        assert_eq!(&buf[100..105], b"patch");
        assert!(buf[..100].iter().all(|&b| b == 0x11));
        assert!(buf[105..].iter().all(|&b| b == 0x11));
    }

    #[test]
    fn partial_write_charged_as_full_page() {
        let d = SsdDevice::anon(4);
        d.write_partial(0, 0, b"x");
        assert_eq!(d.stats().snapshot().write_bytes, PAGE_SIZE as u64);
    }

    #[test]
    fn read_range_across_pages() {
        let d = SsdDevice::anon(4);
        d.write_pages(0, &page_of(1));
        d.write_pages(1, &page_of(2));
        let mut buf = vec![0u8; 100];
        d.read_range(0, PAGE_SIZE - 50, &mut buf);
        assert!(buf[..50].iter().all(|&b| b == 1));
        assert!(buf[50..].iter().all(|&b| b == 2));
    }

    #[test]
    fn completed_writes_survive_crash() {
        let d = SsdDevice::anon(4);
        d.write_pages(2, &page_of(0x77));
        d.simulate_crash();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_pages(2, &mut buf);
        assert!(
            buf.iter().all(|&b| b == 0x77),
            "device cache is power-loss protected"
        );
    }

    #[test]
    fn submitted_writes_are_visible_and_survive_crash() {
        let d = SsdDevice::anon(8).with_latency(SsdLatency::p4800x());
        let before = dstore_telemetry::now_ns();
        let deadline = d.submit_write_pages(3, &page_of(0x5C));
        assert!(
            deadline > before,
            "deadline must charge the device write cost"
        );
        d.wait_durable(deadline);
        assert!(dstore_telemetry::now_ns() >= deadline);
        d.simulate_crash();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_pages(3, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x5C));
        assert_eq!(d.stats().snapshot().write_bytes, PAGE_SIZE as u64);
    }

    /// A device whose writes take `ms` milliseconds, so a crash right
    /// after a submit lands well inside the write.
    fn slow_faithful(pages: u64, ms: u64) -> SsdDevice {
        SsdDevice::anon(pages)
            .with_latency(SsdLatency {
                write_base_ns: ms * 1_000_000,
                ..SsdLatency::none()
            })
            .crash_faithful()
    }

    fn read_page(d: &SsdDevice, page: PageNo) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_pages(page, &mut buf);
        buf
    }

    #[test]
    fn crash_rolls_back_an_in_flight_write_only() {
        let d = slow_faithful(8, 200);
        d.write_pages(1, &page_of(0x11));
        d.write_pages(2, &page_of(0x22));
        let settled = d.submit_write_pages(1, &page_of(0xA1));
        d.wait_durable(settled);
        let mut two = page_of(0xB2);
        two.extend(page_of(0xB3));
        d.submit_write_pages(2, &two);
        // Visible before the crash, like a write cache.
        assert_eq!(read_page(&d, 3), page_of(0xB3));
        assert_eq!(d.simulate_crash(), 2, "pages 2 and 3 were in flight");
        assert_eq!(read_page(&d, 1), page_of(0xA1), "completed write kept");
        assert_eq!(read_page(&d, 2), page_of(0x22), "in-flight write lost");
        assert_eq!(read_page(&d, 3), page_of(0), "in-flight write lost");
        assert_eq!(d.simulate_crash(), 0, "the table empties at a crash");
    }

    #[test]
    fn two_in_flight_writes_to_a_page_roll_back_to_the_first_pre_image() {
        let d = slow_faithful(4, 200);
        d.write_pages(0, &page_of(1));
        d.submit_write_pages(0, &page_of(2));
        d.submit_write_pages(0, &page_of(3));
        assert_eq!(d.simulate_crash(), 1);
        assert_eq!(read_page(&d, 0), page_of(1));
    }

    #[test]
    fn a_synchronous_write_settles_an_in_flight_page() {
        let d = slow_faithful(4, 200);
        d.submit_write_pages(0, &page_of(2));
        d.write_partial(0, 0, b"sync");
        assert_eq!(d.simulate_crash(), 0);
        assert_eq!(&read_page(&d, 0)[..5], b"sync\x02");
    }

    #[test]
    fn free_writes_and_plain_devices_keep_no_table() {
        let free = SsdDevice::anon(4).crash_faithful();
        free.submit_write_pages(0, &page_of(7));
        let plain = SsdDevice::anon(4).with_latency(SsdLatency {
            write_base_ns: 200_000_000,
            ..SsdLatency::none()
        });
        plain.submit_write_pages(0, &page_of(7));
        for d in [&free, &plain] {
            assert_eq!(d.simulate_crash(), 0);
            assert_eq!(read_page(d, 0), page_of(7));
        }
    }

    #[test]
    fn completed_writes_leave_the_table() {
        let d = slow_faithful(2 * PRUNE_AT as u64, 0).with_latency(SsdLatency {
            write_base_ns: 1,
            ..SsdLatency::none()
        });
        for p in 0..2 * PRUNE_AT as u64 {
            let deadline = d.submit_write_pages(p, &page_of(p as u8));
            d.wait_durable(deadline + 1);
        }
        let left = d.in_flight.as_ref().unwrap().lock().len();
        assert!(left <= PRUNE_AT, "{left} completed writes kept");
        assert_eq!(d.simulate_crash(), 0);
    }

    #[test]
    fn wait_durable_zero_returns_immediately() {
        let d = SsdDevice::anon(2);
        d.wait_durable(0);
        // Already-past deadlines are also free.
        d.wait_durable(1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let d = SsdDevice::anon(2);
        d.write_pages(2, &page_of(0));
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn non_page_write_panics() {
        let d = SsdDevice::anon(2);
        d.write_pages(0, &[0u8; 100]);
    }

    #[test]
    fn file_backed_device_persists() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("data.ssd");
        {
            let d = SsdDevice::file_backed(&path, 4).unwrap();
            d.write_pages(1, &page_of(0x42));
            d.sync_backing_file().unwrap();
        }
        let d = SsdDevice::file_backed(&path, 4).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        d.read_pages(1, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x42));
    }

    #[test]
    fn concurrent_disjoint_pages() {
        use std::sync::Arc;
        let d = Arc::new(SsdDevice::anon(64));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        d.write_pages(t * 8 + i, &page_of((t * 8 + i) as u8));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for p in 0..64u64 {
            let mut buf = vec![0u8; PAGE_SIZE];
            d.read_pages(p, &mut buf);
            assert!(buf.iter().all(|&b| b == p as u8));
        }
    }
}
