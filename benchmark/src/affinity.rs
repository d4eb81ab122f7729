//! Pins the benchmark — the harness, its client threads and every process
//! it spawns — to one CPU.
//!
//! The reference host is a 2-vCPU guest of a shared machine. A request of
//! `light-rpc` crosses four thread hand-offs (client → event loop → pool
//! worker → event loop → client); when the scheduler spreads those threads
//! over both vCPUs every hand-off wakes an idle vCPU through the
//! hypervisor, which costs 20–50 µs and varies with what else the host is
//! doing: measured here, the same request takes 36 µs with all threads on
//! one vCPU and 100–145 µs spread over two, and the kernel flips between
//! the two placements in the middle of a run. The closed loop has one
//! request in flight, so at most one of those threads can run at a time
//! anyway; on one CPU a hand-off is a context switch and the measurement is
//! of the program's work, not of the hypervisor's wake-up path.

/// Words of a CPU mask: room for 1024 CPUs, what `cpu_set_t` holds.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // Both are in the C library `std` already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread to the highest-numbered CPU it may run on
/// and returns that CPU. Threads and processes started afterwards inherit
/// the restriction, so call it before anything is spawned. `None` when the
/// platform has no such call or it failed; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut allowed = [0u64; WORDS];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: the pointer is to `bytes` writable bytes that outlive the call.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the pointer is to `bytes` readable bytes that outlive the call.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
