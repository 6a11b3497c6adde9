//! The accept path at the process fd limit. `RLIMIT_NOFILE` is
//! per-process, so this test has a binary of its own.
//!
//! When `accept(2)` fails with `EMFILE`, the kernel keeps the connection
//! queued and a level-triggered listener stays readable: a loop that
//! just retries on the next wake spins a core. The server parks the
//! listener instead and serves again once fds are free.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};
use wqrtq_engine::Engine;
use wqrtq_server::{Client, Server};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;
const SC_CLK_TCK: c_int = 2;

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const RLimit) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

fn set_fd_limit(cur: u64, max: u64) {
    let limit = RLimit { cur, max };
    // SAFETY: `limit` is a live, properly laid out `struct rlimit` for
    // the duration of the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
}

/// The stat file of the thread named `name`, kept open so it can be
/// re-read once the process has no fd to spare. A new thread names
/// itself once it runs, so look until it has.
fn thread_stat(name: &str) -> File {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let path = task.unwrap().path();
            let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
            if comm.trim_end() == name {
                return File::open(path.join("stat")).unwrap();
            }
        }
        assert!(Instant::now() < deadline, "no thread named {name}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// User plus system CPU time of the thread behind `stat`.
fn cpu_time(stat: &mut File) -> Duration {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).unwrap();
    stat.read_to_string(&mut text).unwrap();
    // Fields after the parenthesised name start at field 3 (state);
    // utime and stime are fields 14 and 15, in clock ticks.
    let after_name = &text[text.rfind(')').unwrap() + 1..];
    let fields: Vec<u64> = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse().unwrap())
        .collect();
    // SAFETY: `sysconf` only reads a process-wide constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) } as u64;
    Duration::from_millis((fields[0] + fields[1]) * 1000 / hz)
}

#[test]
fn at_the_fd_limit_the_listener_parks_instead_of_spinning() {
    let server = Server::builder()
        .engine(Engine::builder().workers(1).build())
        .event_loops(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();
    let mut stat = thread_stat("wqrtq-loop-0");
    let mut saved = RLimit { cur: 0, max: 0 };
    // SAFETY: `saved` is a live, properly laid out `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut saved) }, 0);
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    // One fd held in reserve: freed when a client cannot connect, so
    // that the next client does and the server's accept is what fails.
    let mut spare = Some(File::open("/dev/null").unwrap());
    set_fd_limit(open + 16, saved.max);

    let mut clients = Vec::new();
    loop {
        assert!(clients.len() < 32, "accept never ran out of fds");
        match TcpStream::connect(addr) {
            Ok(client) => {
                clients.push(client);
                let want = clients.len() as u64;
                let deadline = Instant::now() + Duration::from_millis(500);
                while server.stats().connections_accepted < want && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if server.stats().connections_accepted < want {
                    break; // the server could not accept this one
                }
            }
            Err(_) => assert!(spare.take().is_some(), "no fd left for a client"),
        }
    }

    let before = cpu_time(&mut stat);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_time(&mut stat) - before;
    assert!(
        spent < Duration::from_millis(100),
        "the accepting loop spent {spent:?} of CPU in 1 s at the fd limit"
    );

    drop(clients);
    drop(spare);
    set_fd_limit(saved.cur, saved.max);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = Client::connect_v2(addr) {
            if client.ping().is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "not served after fds came back");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}
