//! Confines the process to as many CPUs as a cell has host workers.
//!
//! The det engine hands control from one simulated processor's thread to the
//! next at every gate. Left to the kernel, at one host worker those threads
//! spread over every CPU and each hand-off is a cross-CPU wake-up — on the
//! 2-core box this was written on that alone makes a det cell 3.8 times
//! slower, and by how much changes from minute to minute. A det cell at `w`
//! workers can use `w` CPUs at a time, so that is what it gets; cells on the
//! free-running engine keep every CPU. `det.unpinned_x` in the traced run
//! reports what the confinement hides.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a valid buffer of exactly the size passed; the call
    // only reads it. Pid 0 names the calling thread; threads it spawns
    // afterwards inherit its mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// While alive, the calling thread — and every thread it spawns — runs on at
/// most `cpus` of the CPUs it was allowed before. Dropping restores the mask.
pub struct Confined {
    saved: Option<CpuSet>,
}

impl Confined {
    /// `None` confines nothing. Neither does a kernel that refuses: the run
    /// is then merely noisier.
    pub fn to(cpus: Option<usize>) -> Self {
        let nothing = Self { saved: None };
        let (Some(cpus), Some(allowed)) = (cpus, get()) else {
            return nothing;
        };
        let mut narrow: CpuSet = [0; 16];
        let mut left = cpus.max(1);
        for (word, &bits) in narrow.iter_mut().zip(&allowed) {
            for bit in 0..64 {
                if left > 0 && bits >> bit & 1 == 1 {
                    *word |= 1 << bit;
                    left -= 1;
                }
            }
        }
        if narrow == allowed || !set(&narrow) {
            return nothing;
        }
        Self {
            saved: Some(allowed),
        }
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            set(saved);
        }
    }
}
