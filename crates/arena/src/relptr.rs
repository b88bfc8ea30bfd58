//! Relative (base-offset) pointers.
//!
//! "To allow the data structures to be seamlessly copied and work in spite
//! of PMEM address space relocation, we use relative pointers and pointer
//! swizzling for both DRAM and PMEM structures. … On each pointer
//! de-reference, the base address is added to the offset to obtain the
//! actual pointer to data." (§3.3)

use std::fmt;
use std::marker::PhantomData;

/// A typed offset into an arena region. Offset `0` is the region header and
/// never a valid allocation, so it doubles as the null pointer.
pub struct RelPtr<T> {
    off: u64,
    _marker: PhantomData<*mut T>,
}

// A RelPtr is just a number; it is the *arena* access that carries the
// synchronization contract.
unsafe impl<T> Send for RelPtr<T> {}
unsafe impl<T> Sync for RelPtr<T> {}

impl<T> Clone for RelPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RelPtr<T> {}

impl<T> PartialEq for RelPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.off == other.off
    }
}
impl<T> Eq for RelPtr<T> {}

impl<T> fmt::Debug for RelPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "RelPtr(null)")
        } else {
            write!(f, "RelPtr(+{:#x})", self.off)
        }
    }
}

impl<T> Default for RelPtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> RelPtr<T> {
    /// The null relative pointer.
    #[inline]
    pub const fn null() -> Self {
        Self {
            off: 0,
            _marker: PhantomData,
        }
    }

    /// Builds a pointer from a raw region offset.
    #[inline]
    pub const fn from_offset(off: u64) -> Self {
        Self {
            off,
            _marker: PhantomData,
        }
    }

    /// The raw region offset.
    #[inline]
    pub const fn offset(self) -> u64 {
        self.off
    }

    /// Whether this is the null pointer.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.off == 0
    }

    /// Reinterprets the pointee type (same offset).
    #[inline]
    pub const fn cast<U>(self) -> RelPtr<U> {
        RelPtr {
            off: self.off,
            _marker: PhantomData,
        }
    }

    /// Swizzles to an absolute pointer against `base`. Panics on a null
    /// pointer, in every build.
    ///
    /// # Safety
    ///
    /// `base` must be the base of the region this pointer was allocated in,
    /// and the pointer must be a live allocation of `T`.
    #[inline]
    pub unsafe fn to_abs(self, base: *mut u8) -> *mut T {
        assert!(!self.is_null(), "dereferencing null RelPtr");
        base.add(self.off as usize).cast()
    }
}

/// A length-tagged relative byte slice — how variable-length data (object
/// names) is stored inside arena structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteSlice {
    /// Offset of the first byte (0 = empty/null).
    pub ptr: RelPtr<u8>,
    /// Length in bytes.
    pub len: u32,
}

// SAFETY: two PODs.
unsafe impl crate::ArenaPod for ByteSlice {}

impl ByteSlice {
    /// The empty slice.
    pub const fn empty() -> Self {
        Self {
            ptr: RelPtr::null(),
            len: 0,
        }
    }

    /// Whether this slice is empty.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        let p: RelPtr<u64> = RelPtr::null();
        assert!(p.is_null());
        assert_eq!(p.offset(), 0);
        assert_eq!(p, RelPtr::default());
    }

    #[test]
    #[should_panic(expected = "dereferencing null RelPtr")]
    fn null_swizzle_panics_in_every_build() {
        let mut region = vec![0u8; 64];
        // SAFETY: the null check fires before any address is formed.
        unsafe { RelPtr::<u64>::null().to_abs(region.as_mut_ptr()) };
    }

    #[test]
    fn offset_roundtrip_and_cast() {
        let p: RelPtr<u64> = RelPtr::from_offset(128);
        assert!(!p.is_null());
        assert_eq!(p.offset(), 128);
        let q: RelPtr<u32> = p.cast();
        assert_eq!(q.offset(), 128);
    }

    #[test]
    fn swizzle_against_two_bases_sees_copied_data() {
        // The whole point of relative pointers: copy a region, offsets stay
        // valid against the new base.
        let mut region_a = vec![0u8; 256];
        let mut region_b = vec![0u8; 256];
        let p: RelPtr<u32> = RelPtr::from_offset(64);
        // SAFETY: offset 64 is in-bounds and aligned for u32.
        unsafe {
            *p.to_abs(region_a.as_mut_ptr()) = 0xFEED;
        }
        region_b.copy_from_slice(&region_a);
        // SAFETY: same layout in the copied region.
        unsafe {
            assert_eq!(*p.to_abs(region_b.as_mut_ptr()), 0xFEED);
        }
    }

    #[test]
    fn byte_slice_defaults_empty() {
        let s = ByteSlice::empty();
        assert!(s.is_empty());
        assert!(s.ptr.is_null());
        assert_eq!(s, ByteSlice::default());
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", RelPtr::<u8>::null()), "RelPtr(null)");
        assert_eq!(
            format!("{:?}", RelPtr::<u8>::from_offset(16)),
            "RelPtr(+0x10)"
        );
    }
}
