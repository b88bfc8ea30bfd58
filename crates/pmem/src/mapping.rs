//! Raw memory mappings used to back PMEM pools.
//!
//! Two kinds of mapping exist:
//!
//! * **Anonymous** — plain `mmap(MAP_ANONYMOUS)` memory, used for the
//!   volatile view in strict mode and for heap-only pools.
//! * **File-backed** — `mmap` over a regular file, emulating a DAX file on a
//!   PMEM-aware filesystem (the paper maps an `xfs`-DAX file). When a strict
//!   pool uses a file-backed persistent image, `msync` on flush boundaries
//!   makes crash simulation survive even a real process kill.

use std::fs::OpenOptions;
use std::io;
use std::path::Path;
use std::ptr::NonNull;

/// A page-aligned memory mapping with RAII unmap.
pub struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
    /// Keep the file open for the lifetime of a file-backed mapping.
    _file: Option<std::fs::File>,
}

// SAFETY: the mapping is a raw memory region; synchronization of accesses is
// the responsibility of the owner (documented on `PmemPool`).
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Creates an anonymous, zero-filled mapping of `len` bytes.
    pub fn anonymous(len: usize) -> io::Result<Self> {
        assert!(len > 0, "mapping length must be non-zero");
        // SAFETY: standard anonymous mmap; we check the result below.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: NonNull::new(ptr.cast()).expect("mmap returned null"),
            len,
            _file: None,
        })
    }

    /// Asks the kernel to back this mapping with transparent huge pages:
    /// a region reached at random is then covered by a few TLB entries,
    /// and a bulk first write faults 2 MiB at a time instead of 4 KiB.
    /// Best effort: a kernel with transparent huge pages off keeps small
    /// pages, which changes nothing but speed.
    pub fn advise_huge_pages(&self) {
        // SAFETY: the range is exactly this live mapping; advice does not
        // change its contents.
        unsafe {
            libc::madvise(self.ptr.as_ptr().cast(), self.len, libc::MADV_HUGEPAGE);
        }
    }

    /// Creates (or opens) `path`, resizes it to `len` bytes, and maps it
    /// shared — the emulated equivalent of mapping a DAX file.
    pub fn file_backed(path: &Path, len: usize) -> io::Result<Self> {
        assert!(len > 0, "mapping length must be non-zero");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(len as u64)?;
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is valid for the duration of the call; result checked.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: NonNull::new(ptr.cast()).expect("mmap returned null"),
            len,
            _file: Some(file),
        })
    }

    /// Base pointer of the mapping.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true: construction asserts > 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Synchronizes a byte range of a file-backed mapping to its file
    /// (no-op for anonymous mappings). Used to make strict-mode persistent
    /// images durable across real process restarts.
    pub fn sync_range(&self, off: usize, len: usize) -> io::Result<()> {
        if self._file.is_none() || len == 0 {
            return Ok(());
        }
        assert!(off + len <= self.len, "sync range out of bounds");
        // msync requires a page-aligned address.
        let page = 4096;
        let start = off & !(page - 1);
        let end = off + len;
        // SAFETY: range is within the mapping and page-aligned.
        let rc =
            unsafe { libc::msync(self.as_ptr().add(start).cast(), end - start, libc::MS_SYNC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap.
        unsafe {
            libc::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_mapping_is_zeroed_and_writable() {
        let m = Mapping::anonymous(1 << 16).unwrap();
        // SAFETY: in-bounds access to the fresh mapping.
        unsafe {
            assert_eq!(*m.as_ptr(), 0);
            assert_eq!(*m.as_ptr().add((1 << 16) - 1), 0);
            *m.as_ptr().add(1234) = 0xAB;
            assert_eq!(*m.as_ptr().add(1234), 0xAB);
        }
        assert_eq!(m.len(), 1 << 16);
        assert!(!m.is_empty());
    }

    #[test]
    fn file_backed_mapping_persists_to_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pool.pmem");
        {
            let m = Mapping::file_backed(&path, 8192).unwrap();
            // SAFETY: in-bounds.
            unsafe {
                *m.as_ptr().add(100) = 0x5A;
            }
            m.sync_range(0, 8192).unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data.len(), 8192);
        assert_eq!(data[100], 0x5A);
    }

    #[test]
    fn reopening_file_backed_mapping_sees_old_contents() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pool.pmem");
        {
            let m = Mapping::file_backed(&path, 4096).unwrap();
            unsafe { *m.as_ptr() = 7 };
            m.sync_range(0, 4096).unwrap();
        }
        let m = Mapping::file_backed(&path, 4096).unwrap();
        unsafe { assert_eq!(*m.as_ptr(), 7) };
    }

    #[test]
    fn sync_is_noop_for_anonymous() {
        let m = Mapping::anonymous(4096).unwrap();
        m.sync_range(0, 4096).unwrap();
    }
}
