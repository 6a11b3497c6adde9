//! Minimal std-only readiness polling for the event-loop server.
//!
//! The workspace is offline and dependency-free, so this module speaks
//! to the OS through a vendored shim: a handful of `extern "C"`
//! declarations resolved by the C runtime the Rust standard library
//! already links — no `libc` crate. On Linux the backend is `epoll`
//! (level-triggered); other unix hosts fall back to `poll(2)`. The
//! server is a unix front door: it builds only on unix hosts.
//!
//! The surface is deliberately tiny: register/modify/delete an fd with
//! a `u64` token and a read/write interest mask, and wait for a batch
//! of [`Event`]s. Cross-thread wakeups use a nonblocking
//! `UnixStream::pair` (see [`wake_pair`]) registered like any other fd
//! — pure std, no eventfd needed.

/// Interest in readability.
pub(crate) const INTEREST_READ: u32 = 0b01;
/// Interest in writability.
pub(crate) const INTEREST_WRITE: u32 = 0b10;

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub(crate) token: u64,
    /// Readable (or peer hung up / errored — a read will observe it).
    pub(crate) readable: bool,
    /// Writable (or errored — a write will observe it).
    pub(crate) writable: bool,
}

pub(crate) use unix_impl::{drain_wakes, set_socket_buffers, wake_pair, Poller, WakeHandle};

mod unix_impl {
    use super::{Event, INTEREST_READ, INTEREST_WRITE};
    use std::io::{self, Read, Write};
    use std::os::fd::RawFd;
    use std::os::unix::net::UnixStream;

    /// The write half of a wake pipe; cheap to clone into completion
    /// callbacks. A wake is one byte into a nonblocking socketpair —
    /// `WouldBlock` means the pipe is already full of wakes, which is
    /// itself a successful wake.
    #[derive(Debug)]
    pub(crate) struct WakeHandle {
        tx: UnixStream,
    }

    impl WakeHandle {
        pub(crate) fn wake(&self) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// A nonblocking socketpair: the returned [`WakeHandle`] wakes any
    /// poller the receiving half is registered with. Call
    /// [`drain_wakes`] after each wakeup.
    pub(crate) fn wake_pair() -> io::Result<(WakeHandle, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((WakeHandle { tx }, rx))
    }

    /// Discards buffered wake bytes so the next wake triggers afresh.
    pub(crate) fn drain_wakes(rx: &mut UnixStream) {
        let mut sink = [0u8; 64];
        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    mod sys {
        use std::os::raw::{c_int, c_void};

        // The kernel packs epoll_event on x86 so the 64-bit data field
        // sits at offset 4; other architectures use natural alignment.
        #[repr(C)]
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
        #[derive(Clone, Copy)]
        pub(super) struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            #[cfg(target_os = "linux")]
            pub(super) fn epoll_create1(flags: c_int) -> c_int;
            #[cfg(target_os = "linux")]
            pub(super) fn epoll_ctl(
                epfd: c_int,
                op: c_int,
                fd: c_int,
                event: *mut EpollEvent,
            ) -> c_int;
            #[cfg(target_os = "linux")]
            pub(super) fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            #[cfg(target_os = "linux")]
            pub(super) fn close(fd: c_int) -> c_int;
            #[cfg(not(target_os = "linux"))]
            pub(super) fn poll(fds: *mut PollFd, nfds: super::NfdsT, timeout: c_int) -> c_int;
            pub(super) fn setsockopt(
                fd: c_int,
                level: c_int,
                optname: c_int,
                optval: *const c_void,
                optlen: u32,
            ) -> c_int;
        }

        #[cfg(target_os = "linux")]
        pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
        #[cfg(target_os = "linux")]
        pub(super) const EPOLL_CTL_ADD: c_int = 1;
        #[cfg(target_os = "linux")]
        pub(super) const EPOLL_CTL_DEL: c_int = 2;
        #[cfg(target_os = "linux")]
        pub(super) const EPOLL_CTL_MOD: c_int = 3;
        pub(super) const EPOLLIN: u32 = 0x001;
        pub(super) const EPOLLOUT: u32 = 0x004;
        pub(super) const EPOLLERR: u32 = 0x008;
        pub(super) const EPOLLHUP: u32 = 0x010;
        #[cfg(target_os = "linux")]
        pub(super) const EPOLLRDHUP: u32 = 0x2000;

        #[cfg(not(target_os = "linux"))]
        #[repr(C)]
        pub(super) struct PollFd {
            pub fd: c_int,
            pub events: i16,
            pub revents: i16,
        }

        #[cfg(target_os = "linux")]
        pub(super) const SOL_SOCKET: c_int = 1;
        #[cfg(target_os = "linux")]
        pub(super) const SO_SNDBUF: c_int = 7;
        #[cfg(target_os = "linux")]
        pub(super) const SO_RCVBUF: c_int = 8;
        #[cfg(not(target_os = "linux"))]
        pub(super) const SOL_SOCKET: c_int = 0xffff;
        #[cfg(not(target_os = "linux"))]
        pub(super) const SO_SNDBUF: c_int = 0x1001;
        #[cfg(not(target_os = "linux"))]
        pub(super) const SO_RCVBUF: c_int = 0x1002;
    }

    #[cfg(not(target_os = "linux"))]
    #[allow(non_camel_case_types)]
    type NfdsT = std::os::raw::c_uint;

    /// Clamps a socket's kernel send/receive buffers. A tuning and test
    /// knob: the slow-reader kill tests shrink both ends so kernel
    /// buffering cannot mask an unread backlog.
    pub(crate) fn set_socket_buffers(
        fd: RawFd,
        send_bytes: Option<usize>,
        recv_bytes: Option<usize>,
    ) -> io::Result<()> {
        for (opt, bytes) in [(sys::SO_SNDBUF, send_bytes), (sys::SO_RCVBUF, recv_bytes)] {
            let Some(bytes) = bytes else { continue };
            let value = i32::try_from(bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "buffer too large"))?;
            // SAFETY: `value` is a live stack i32 and the passed length
            // is exactly `size_of::<i32>()`, so the kernel reads only
            // memory we own; `fd` validity is the caller's invariant and
            // a stale fd yields an errno, not UB.
            let rc = unsafe {
                sys::setsockopt(
                    fd,
                    sys::SOL_SOCKET,
                    opt,
                    std::ptr::addr_of!(value).cast(),
                    std::mem::size_of::<i32>() as u32,
                )
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    fn interest_to_epoll(interest: u32) -> u32 {
        let mut events = 0;
        if interest & INTEREST_READ != 0 {
            events |= sys::EPOLLIN;
            #[cfg(target_os = "linux")]
            {
                events |= sys::EPOLLRDHUP;
            }
        }
        if interest & INTEREST_WRITE != 0 {
            events |= sys::EPOLLOUT;
        }
        events
    }

    fn event_from_mask(token: u64, mask: u32) -> Event {
        // Error and hangup conditions surface as both readable and
        // writable: whichever side the connection state machine drives
        // next will observe the failure from the syscall itself.
        let broken = mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
        #[cfg(target_os = "linux")]
        let rd_hup = mask & sys::EPOLLRDHUP != 0;
        #[cfg(not(target_os = "linux"))]
        let rd_hup = false;
        Event {
            token,
            readable: mask & sys::EPOLLIN != 0 || broken || rd_hup,
            writable: mask & sys::EPOLLOUT != 0 || broken,
        }
    }

    /// Readiness poller: `epoll` on Linux, `poll(2)` elsewhere.
    #[cfg(target_os = "linux")]
    #[derive(Debug)]
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    #[cfg(target_os = "linux")]
    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: `epoll_create1` takes no pointers; failure is
            // reported through the return value checked below.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(
            &self,
            op: std::os::raw::c_int,
            fd: RawFd,
            token: u64,
            interest: u32,
        ) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: interest_to_epoll(interest),
                data: token,
            };
            // SAFETY: `ev` is a live stack struct for the duration of
            // the call; `epfd` is owned by this Poller until Drop, and a
            // bad `fd` yields an errno, not UB.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one registered fd is ready (or
        /// `timeout_ms` passes; negative waits forever), appending the
        /// notifications to `out`.
        pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            const MAX_EVENTS: usize = 256;
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `raw` holds MAX_EVENTS initialized entries and the
            // kernel writes at most the MAX_EVENTS we pass, so the write
            // stays inside the array; `epfd` is owned until Drop.
            let n = unsafe {
                sys::epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms)
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in raw.iter().take(n as usize) {
                // Copy out of the (packed) struct before use.
                let (mask, data) = (ev.events, ev.data);
                out.push(event_from_mask(data, mask));
            }
            Ok(())
        }
    }

    #[cfg(target_os = "linux")]
    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` was created in `new` and is closed exactly
            // once, here — no other owner remains at Drop.
            unsafe { sys::close(self.epfd) };
        }
    }

    /// `poll(2)` fallback for unix hosts without epoll. The registered
    /// set lives in user space; `wait` rebuilds the pollfd array each
    /// call — fine for the connection counts a test host sees.
    #[cfg(not(target_os = "linux"))]
    #[derive(Debug)]
    pub(crate) struct Poller {
        registered: std::sync::Mutex<Vec<(RawFd, u64, u32)>>,
    }

    #[cfg(not(target_os = "linux"))]
    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self {
                registered: std::sync::Mutex::new(Vec::new()),
            })
        }

        pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.registered
                .lock()
                .expect("poll registry")
                .push((fd, token, interest));
            Ok(())
        }

        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let mut reg = self.registered.lock().expect("poll registry");
            match reg.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registered
                .lock()
                .expect("poll registry")
                .retain(|(f, _, _)| *f != fd);
            Ok(())
        }

        pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            const POLLIN: i16 = 0x001;
            const POLLOUT: i16 = 0x004;
            let reg = self.registered.lock().expect("poll registry").clone();
            let mut fds: Vec<sys::PollFd> = reg
                .iter()
                .map(|&(fd, _, interest)| sys::PollFd {
                    fd,
                    events: {
                        let mut e = 0i16;
                        if interest & INTEREST_READ != 0 {
                            e |= POLLIN;
                        }
                        if interest & INTEREST_WRITE != 0 {
                            e |= POLLOUT;
                        }
                        e
                    },
                    revents: 0,
                })
                .collect();
            // SAFETY: `fds` is a live Vec and the length we pass is its
            // exact element count, so the kernel's revents writes stay
            // in bounds.
            let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(reg.iter()) {
                if pfd.revents != 0 {
                    out.push(event_from_mask(token, pfd.revents as u32));
                }
            }
            Ok(())
        }
    }
}
