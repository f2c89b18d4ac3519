//! # soft-serve — signal and heap plumbing
//!
//! The three things the `soft` CLI needs that safe, dependency-free Rust
//! cannot express: a SIGTERM latch for the `soft serve` daemon, a fixed
//! malloc mmap threshold for the same daemon, and the default SIGPIPE
//! disposition for the one-shot commands. The rest of the workspace
//! forbids `unsafe`; this crate exists to confine the `signal(2)` and
//! `mallopt(3)` calls (std already links libc) to an auditable corner.
//! The SIGTERM handler does the only thing that is async-signal-safe —
//! it stores into a static atomic — and a watcher thread polls the
//! latch, then wakes the daemon's blocked accept to begin a drain.
//!
//! A second SIGTERM while draining escalates to immediate exit, so an
//! operator is never more than two signals away from a stopped daemon
//! (in-flight jobs are journaled and recover on restart).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU32, Ordering};

/// Count of SIGTERMs received since [`install_sigterm_latch`].
static SIGTERMS: AtomicU32 = AtomicU32::new(0);

#[cfg(unix)]
mod imp {
    use super::SIGTERMS;
    use std::sync::atomic::Ordering;

    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    /// `SIG_DFL`: the default disposition.
    const SIG_DFL: usize = 0;

    extern "C" {
        /// `signal(2)` from the platform libc (linked by std on unix).
        /// `sighandler_t` on every libc Rust targets is a function
        /// address, or one of the `SIG_*` constants.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The handler itself: a single relaxed store, which is
    /// async-signal-safe (no allocation, no locks, no syscalls).
    extern "C" fn on_sigterm(_sig: i32) {
        SIGTERMS.fetch_add(1, Ordering::Relaxed);
    }

    pub fn install() -> bool {
        // SAFETY: `signal` is the libc prototype declared above;
        // `on_sigterm` is `extern "C" fn(i32)` matching `sighandler_t`,
        // and its body is restricted to one atomic store, which POSIX
        // permits in a signal handler. SIG_ERR is (usize)-1.
        let prev = unsafe { signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize) };
        prev != usize::MAX
    }

    pub fn default_sigpipe() {
        // SAFETY: `signal` is the libc prototype declared above, and
        // SIG_DFL installs no handler at all.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() -> bool {
        // No SIGTERM on this platform; the latch simply never fires.
        false
    }

    pub fn default_sigpipe() {
        // No SIGPIPE on this platform.
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    /// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
    const M_MMAP_THRESHOLD: i32 = -3;
    /// glibc's default (`DEFAULT_MMAP_THRESHOLD_MIN`) on every target.
    const THRESHOLD: i32 = 128 * 1024;

    extern "C" {
        /// `mallopt(3)` from glibc (linked by std on linux-gnu).
        fn mallopt(param: i32, value: i32) -> i32;
    }

    pub fn pin_mmap_threshold() -> bool {
        // SAFETY: `mallopt` is the glibc prototype declared above; it
        // only changes a tuning parameter of the allocator, under the
        // allocator's own lock.
        unsafe { mallopt(M_MMAP_THRESHOLD, THRESHOLD) == 1 }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    pub fn pin_mmap_threshold() -> bool {
        // Not glibc: its allocator has no dynamic threshold to pin.
        false
    }
}

/// Pin glibc's mmap threshold at its 128 KiB default, so that every
/// block of that size or more is mapped on its own and unmapped when
/// freed. By default the threshold rises to the size of each mapped
/// block freed (up to 32 MiB), after which such blocks are carved from
/// the per-thread malloc arenas and stay resident there once freed; a
/// daemon whose jobs run concurrently on whichever threads are free
/// then reaches a peak memory that depends on the order in which its
/// jobs happened to allocate and free large blocks. Returns
/// `false` where the allocator is not glibc's or refused the setting.
pub fn steady_heap() -> bool {
    heap::pin_mmap_threshold()
}

/// Install the SIGTERM handler. Returns `false` if registration failed
/// (or the platform has no SIGTERM), in which case the latch never
/// fires and the daemon only stops via the `drain` protocol message.
pub fn install_sigterm_latch() -> bool {
    imp::install()
}

/// Restore the default SIGPIPE disposition, which Rust programs start
/// with ignored: a write to a pipe whose reader is gone then ends the
/// process quietly, as for any Unix filter, instead of surfacing as an
/// `EPIPE` error that `println!` turns into a panic. Only for commands
/// that write to stdout and exit; daemons keep SIGPIPE ignored so a peer
/// that hangs up cannot kill them.
pub fn default_sigpipe() {
    imp::default_sigpipe()
}

/// Number of SIGTERMs received so far: `0` = keep serving, `1` = drain
/// (stop accepting, finish in-flight), `>= 2` = exit now.
pub fn sigterm_count() -> u32 {
    SIGTERMS.load(Ordering::Relaxed)
}

/// Reset the latch (tests only; a real daemon installs once).
pub fn reset_sigterm_latch() {
    SIGTERMS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(unix)]
    fn latch_counts_sigterms() {
        assert!(install_sigterm_latch());
        reset_sigterm_latch();
        assert_eq!(sigterm_count(), 0);
        // Raise SIGTERM at ourselves through the libc binding path the
        // daemon relies on.
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        // SAFETY: raise(3) with a handled signal; the handler only
        // stores into an atomic.
        unsafe {
            raise(15);
            raise(15);
        }
        assert_eq!(sigterm_count(), 2);
        reset_sigterm_latch();
    }

    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn glibc_accepts_the_fixed_mmap_threshold() {
        assert!(steady_heap());
        // A block past the threshold still allocates, fills and frees.
        let big = vec![7u8; 4 << 20];
        assert!(big.iter().all(|&b| b == 7));
    }
}
