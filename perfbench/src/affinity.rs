//! Pins the calling thread, and every thread it spawns while pinned, to one
//! CPU.
//!
//! A wire request is eight blocking hand-offs between the client and the
//! server's connection thread.  With the two on different CPUs each hand-off
//! pays a cross-CPU wake-up, which in the sandbox's virtual machine costs
//! more than the server's own work; the scheduler moves between the two
//! placements within one run and the median request jumps between 117 µs
//! and 240 µs.  On one CPU a request is the engine's code plus context
//! switches, and repeats within 2 %.
//!
//! The standard library has no call for this, so the two libc functions are
//! declared here; `std` links libc on Linux already.

/// The thread's previous CPU set, put back when this is dropped.
pub struct Pinned {
    previous: CpuSet,
}

/// glibc's `cpu_set_t`: 1 024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is `size_of::<CpuSet>()` writable bytes that live across
    // the call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is `size_of::<CpuSet>()` initialised bytes that live
    // across the call, which only reads them; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) -> bool {
    false
}

/// Pins the calling thread to the first CPU it may run on.  `None` when the
/// platform has no such call or refuses it; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let previous = get()?;
    let word = previous.iter().position(|&w| w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << previous[word].trailing_zeros();
    set(&one).then_some(Pinned { previous })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.previous);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_dropping_restores() {
        let before = get().unwrap();
        {
            let _pinned = pin_to_one_cpu().unwrap();
            let now: u32 = get().unwrap().iter().map(|w| w.count_ones()).sum();
            assert_eq!(now, 1);
            let inherited = std::thread::spawn(|| get().unwrap()).join().unwrap();
            assert_eq!(inherited, get().unwrap());
        }
        assert_eq!(get().unwrap(), before);
    }
}
