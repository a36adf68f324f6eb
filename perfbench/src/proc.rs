//! Driving the program as its users do: one-shot commands and the serve
//! daemon over a unix socket, with the peak RSS of each process read from
//! the kernel when it is reaped.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` as laid out on 64-bit Linux");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (in KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Reaps `child`, returning whether it exited with status 0 and its peak
/// resident set size in MB.
fn reap(child: &Child) -> io::Result<(bool, f64)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, correctly laid out
        // out-parameters, and `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_ok, usage.maxrss_kb as f64 / 1024.0))
}

/// One finished one-shot command.
#[derive(Debug)]
pub struct CommandRun {
    /// Whether the command exited with status 0.
    pub ok: bool,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Peak RSS of the process, in MB.
    pub peak_rss_mb: f64,
}

/// Runs `program args…` to completion, timing it from spawn to exit.
/// Stderr goes to `stderr_log`.
pub fn run_command(program: &Path, args: &[&str], stderr_log: &Path) -> io::Result<CommandRun> {
    let log = std::fs::File::create(stderr_log)?;
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut stdout);
    let (ok, peak_rss_mb) = reap(&child)?;
    let wall = started.elapsed();
    read?;
    Ok(CommandRun {
        ok,
        stdout,
        wall,
        peak_rss_mb,
    })
}

/// A running `maestro-cli serve --socket` process. Dropping it kills and
/// reaps the process if [`Daemon::shutdown`] did not.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    /// When the process was spawned.
    pub launched: Instant,
}

impl Daemon {
    /// Spawns the daemon on `socket` (a path relative to the working
    /// directory keeps it under the unix socket path limit).
    pub fn launch(cli: &Path, socket: &Path, stderr_log: &Path) -> io::Result<Daemon> {
        if socket.exists() {
            std::fs::remove_file(socket)?;
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(stderr_log)?;
        let launched = Instant::now();
        let child = Command::new(cli)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        Ok(Daemon {
            child: Some(child),
            socket: socket.to_owned(),
            launched,
        })
    }

    /// Connects a client, waiting for the socket to appear.
    pub fn connect(&self) -> io::Result<Client> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Client::new(stream),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(500)),
            }
        }
    }

    /// Asks for the session's `cache-stats` payload, then shuts the
    /// daemon down and reaps it. Every other client must have closed its
    /// connection first (the daemon drains open connections before it
    /// exits). Returns the cache-stats payload and the peak RSS in MB.
    pub fn shutdown(mut self) -> io::Result<(String, f64)> {
        let mut control = self.connect()?;
        let (stats_line, _) =
            control.request(r#"{"id":"bench-cache-stats","kind":"cache-stats"}"#)?;
        let stats = match maestro::estimator::request::Response::parse(&stats_line) {
            Ok(response) => response.result.unwrap_or_default(),
            Err(_) => String::new(),
        };
        control.request(r#"{"id":"bench-shutdown","kind":"shutdown"}"#)?;
        drop(control);
        #[allow(clippy::zombie_processes)] // `reap` waits for it through wait4
        let child = self.child.take().expect("daemon not yet reaped");
        let (_, rss) = reap(&child)?;
        let _ = std::fs::remove_file(&self.socket);
        Ok((stats, rss))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            // SAFETY: signalling our own unreaped child.
            unsafe {
                kill(child.id() as i32, 9);
            }
            let _ = reap(&child);
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// One closed-loop client connection.
#[derive(Debug)]
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn new(stream: UnixStream) -> io::Result<Client> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one request line and waits for its response line. The
    /// latency runs from just before the write to the end of the read.
    pub fn request(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let started = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        let latency = started.elapsed();
        if !response.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        response.pop();
        Ok((response, latency))
    }
}
