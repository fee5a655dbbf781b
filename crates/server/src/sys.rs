//! Minimal raw-syscall epoll shim — the readiness primitive behind the
//! event-driven server core.
//!
//! The vendor tree deliberately carries no `libc`, so this module talks
//! to the kernel directly with inline-assembly syscalls on the two
//! architectures CI and the paper's hardware cover (Linux x86_64 and
//! aarch64). Every other target is rejected at compile time: the
//! server has one serving model and it needs this primitive.
//!
//! The surface is the smallest one the readiness loop needs: one
//! [`Epoll`] instance per worker, level-triggered [`add`](Epoll::add)/
//! [`modify`](Epoll::modify) with a `u64` token per fd (closing the fd
//! is what deregisters it), and a blocking [`wait`](Epoll::wait) with a
//! millisecond timeout.
//! No edge triggering (level-triggered keeps the session state machine
//! re-entrant without starvation bookkeeping), no `EPOLLONESHOT`, no
//! signal masking.
//!
//! # Portability notes
//!
//! * `struct epoll_event` is packed on x86_64 (12 bytes) and naturally
//!   aligned everywhere else (16 bytes) — the kernel's `EPOLL_PACKED`
//!   dance, mirrored here with `cfg_attr`.
//! * aarch64 has no `epoll_wait` syscall; [`Epoll::wait`] uses
//!   `epoll_pwait` with a null sigmask, which the kernel treats
//!   identically.
//! * File descriptors are registered by raw fd; the caller keeps the
//!   owning socket alive for as long as it is registered (the server's
//!   connection table does exactly that).

#![allow(clippy::missing_safety_doc)]

use std::io;

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!("server unsupported: the epoll shim covers Linux x86_64 and aarch64 only");

/// Readiness: data to read (or a pending `accept`).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the socket's send buffer has room again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to register it).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported; no need to register it).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one of the epoll instances watching this fd — the
/// thundering-herd guard for the shared listener. Kernels older than
/// 4.5 reject it; callers retry without the flag.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// One readiness notification: the event mask plus the caller's token.
///
/// Layout matches the kernel UAPI `struct epoll_event` exactly — packed
/// on x86_64, naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// `EPOLLIN | EPOLLOUT | …` bit set.
    pub events: u32,
    /// The token the fd was registered with.
    pub data: u64,
}

impl EpollEvent {
    /// The event mask (reads the possibly-unaligned field safely).
    #[inline]
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The registration token (reads the possibly-unaligned field
    /// safely).
    #[inline]
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// An epoll instance (closed on drop).
#[derive(Debug)]
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// Creates a fresh close-on-exec epoll instance.
    pub fn create() -> io::Result<Epoll> {
        let fd = check(imp::epoll_create1(EPOLL_CLOEXEC))?;
        Ok(Epoll { fd: fd as i32 })
    }

    /// Registers `fd` for `events` (level-triggered), delivering `token`
    /// with every notification.
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered event mask of `fd`.
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent { events, data: token };
        check(imp::epoll_ctl(self.fd, op, fd, &ev))?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// elapses; `-1` = forever, `0` = poll), filling `events` from the
    /// front. Returns the number filled. `Interrupted` is retried
    /// internally — a signal must not be confused with "nothing ready".
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let max = events.len().min(i32::MAX as usize) as i32;
            match check(imp::epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms)) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = imp::close(self.fd);
    }
}

/// Maps a raw syscall return (negative errno convention) to `io::Result`.
fn check(ret: isize) -> io::Result<isize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::EpollEvent;
    use std::arch::asm;

    const SYS_CLOSE: usize = 3;
    const SYS_EPOLL_WAIT: usize = 232;
    const SYS_EPOLL_CTL: usize = 233;
    const SYS_EPOLL_CREATE1: usize = 291;

    #[inline]
    unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    pub fn epoll_create1(flags: i32) -> isize {
        unsafe { syscall4(SYS_EPOLL_CREATE1, flags as usize, 0, 0, 0) }
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *const EpollEvent) -> isize {
        unsafe { syscall4(SYS_EPOLL_CTL, epfd as usize, op as usize, fd as usize, ev as usize) }
    }

    pub fn epoll_wait(epfd: i32, evs: *mut EpollEvent, max: i32, timeout_ms: i32) -> isize {
        unsafe {
            syscall4(SYS_EPOLL_WAIT, epfd as usize, evs as usize, max as usize, timeout_ms as usize)
        }
    }

    pub fn close(fd: i32) -> isize {
        unsafe { syscall4(SYS_CLOSE, fd as usize, 0, 0, 0) }
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod imp {
    use super::EpollEvent;
    use std::arch::asm;

    const SYS_EPOLL_CREATE1: usize = 20;
    const SYS_EPOLL_CTL: usize = 21;
    const SYS_EPOLL_PWAIT: usize = 22;
    const SYS_CLOSE: usize = 57;

    #[inline]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    pub fn epoll_create1(flags: i32) -> isize {
        unsafe { syscall6(SYS_EPOLL_CREATE1, flags as usize, 0, 0, 0, 0, 0) }
    }

    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, ev: *const EpollEvent) -> isize {
        unsafe {
            syscall6(SYS_EPOLL_CTL, epfd as usize, op as usize, fd as usize, ev as usize, 0, 0)
        }
    }

    // aarch64 never had plain epoll_wait; pwait with a null sigmask is
    // the kernel's own compatibility spelling.
    pub fn epoll_wait(epfd: i32, evs: *mut EpollEvent, max: i32, timeout_ms: i32) -> isize {
        unsafe {
            syscall6(
                SYS_EPOLL_PWAIT,
                epfd as usize,
                evs as usize,
                max as usize,
                timeout_ms as usize,
                0, // sigmask: NULL
                8, // sigsetsize (ignored for NULL, kernel-sane value)
            )
        }
    }

    pub fn close(fd: i32) -> isize {
        unsafe { syscall6(SYS_CLOSE, fd as usize, 0, 0, 0, 0, 0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn event_struct_matches_kernel_layout() {
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn readiness_round_trip() {
        let ep = Epoll::create().expect("epoll_create1");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        ep.add(b.as_raw_fd(), EPOLLIN, 7).expect("ctl add");

        // Nothing ready yet: a zero-timeout wait returns empty.
        let mut evs = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut evs, 0).expect("wait"), 0);

        a.write_all(b"x").expect("write");
        let n = ep.wait(&mut evs, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(evs[0].token(), 7);
        assert!(evs[0].events() & EPOLLIN != 0);

        // Level-triggered: the byte is still unread, so it fires again.
        let n = ep.wait(&mut evs, 0).expect("wait");
        assert_eq!(n, 1, "level-triggered readiness must persist");

        let mut buf = [0u8; 8];
        let mut b_read = &b;
        assert_eq!(b_read.read(&mut buf).expect("read"), 1);
        assert_eq!(ep.wait(&mut evs, 0).expect("wait"), 0, "drained fd is quiet");
    }

    #[test]
    fn modify_changes_interest() {
        let ep = Epoll::create().expect("epoll_create1");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        a.write_all(b"x").expect("write");

        // Registered for OUT only: the pending readable byte is masked.
        ep.add(b.as_raw_fd(), EPOLLOUT, 1).expect("add");
        let mut evs = [EpollEvent::default(); 4];
        let n = ep.wait(&mut evs, 100).expect("wait");
        assert_eq!(n, 1);
        assert!(evs[0].events() & EPOLLOUT != 0);
        assert_eq!(evs[0].events() & EPOLLIN, 0);

        ep.modify(b.as_raw_fd(), EPOLLIN, 2).expect("mod");
        let n = ep.wait(&mut evs, 100).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(evs[0].token(), 2);
        assert!(evs[0].events() & EPOLLIN != 0);
    }

    #[test]
    fn hangup_is_reported_without_registration() {
        let ep = Epoll::create().expect("epoll_create1");
        let (a, b) = UnixStream::pair().expect("socketpair");
        ep.add(b.as_raw_fd(), EPOLLIN, 9).expect("add");
        drop(a);
        let mut evs = [EpollEvent::default(); 4];
        let n = ep.wait(&mut evs, 1000).expect("wait");
        assert_eq!(n, 1);
        assert!(evs[0].events() & (EPOLLHUP | EPOLLIN) != 0);
    }
}
