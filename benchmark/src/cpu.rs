//! CPU placement. Which CPU a thread runs on is a hidden variable of any
//! measurement on a two-core host, so the workloads fix it.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask buffer is valid for the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and every thread or process it starts
/// afterwards) to `cpus`.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: as above; the mask is only read.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}
