//! Pins the serving phases to one core.
//!
//! On this guest a wake-up that crosses vCPUs costs ~50 us (an IPI through
//! the hypervisor) and the scheduler does not rebalance threads that
//! ping-pong: generator, batcher and executor either stay spread over both
//! cores (116 us round trip, 306k req/s) or end up sharing one (15 us,
//! 790k req/s), and which one a run gets is chance: two runs in ten sat in
//! between. Serving is therefore measured per core: the engine's threads
//! are created, and the generator runs, restricted to the highest core the
//! process may use. Threads inherit the mask of the thread that spawns
//! them, so restricting the spawner is enough.
//!
//! std has no affinity call and the build is offline (no `libc`), so this
//! is the one raw syscall of the benchmark, as in `ninja-parallel`'s own
//! `pin_to_core`. Anywhere but Linux/x86-64 it does nothing and serving
//! runs wherever the scheduler puts it.

/// The kernel's canonical 1024-bit `cpu_set_t`.
type Mask = [u64; 16];

/// Restores the calling thread's previous mask when dropped.
pub struct Pinned {
    previous: Option<Mask>,
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the highest core it is allowed on. Best effort: if the kernel
/// refuses, nothing changes.
pub fn pin_to_last_core() -> Pinned {
    let Some(previous) = get() else {
        return Pinned { previous: None };
    };
    let Some(word) = previous.iter().rposition(|w| *w != 0) else {
        return Pinned { previous: None };
    };
    let mut one = [0u64; 16];
    one[word] = 1 << (63 - previous[word].leading_zeros());
    Pinned {
        previous: set(&one).then_some(previous),
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = self.previous {
            set(&previous);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: u64, mask: *mut u64) -> i64 {
    let ret: i64;
    // SAFETY: sched_getaffinity/sched_setaffinity(pid 0 = this thread, len,
    // mask) read or write at most `len` = 128 bytes at `mask`, which both
    // callers point at a live `Mask`; rcx and r11 are clobbered per the
    // syscall ABI and no stack is used.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number => ret,
            in("rdi") 0u64,
            in("rsi") std::mem::size_of::<Mask>() as u64,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn get() -> Option<Mask> {
    const SYS_SCHED_GETAFFINITY: u64 = 204;
    let mut mask = [0u64; 16];
    (affinity_syscall(SYS_SCHED_GETAFFINITY, mask.as_mut_ptr()) > 0).then_some(mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set(mask: &Mask) -> bool {
    const SYS_SCHED_SETAFFINITY: u64 = 203;
    // The kernel only reads the mask; the pointer is `*mut` to share one
    // wrapper with the call that writes it.
    affinity_syscall(SYS_SCHED_SETAFFINITY, mask.as_ptr().cast_mut()) == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set(_mask: &Mask) -> bool {
    false
}
