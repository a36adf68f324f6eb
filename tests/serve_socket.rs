//! The unix-socket front end (`serve_socket`) end to end: connections
//! served as they arrive, shutdown with idle and busy connections open,
//! the connection cap, the tally, and start-up on a path that is taken.
//! Each server runs on its own thread and is joined under a deadline, so
//! a hang fails the test instead of stalling the suite.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maestro::estimator::prob::ProbTable;
use maestro::estimator::request::{EstimateRequest, LayoutRequest, Request, RequestCall, Response};
use maestro::netlist::{generate, mnl, StatsCache};
use maestro::serve::{serve_socket, ServeSummary, Session, MAX_CONNECTIONS};

/// How long any wait in these tests may take before it counts as a hang.
const DEADLINE: Duration = Duration::from_secs(10);

/// The socket path of one test.
fn socket_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("maestro-serve-{test}-{}.sock", std::process::id()))
}

/// A session over caches of its own.
fn session() -> Session {
    Session::with_caches(Arc::new(StatsCache::new()), Arc::new(ProbTable::new()))
}

/// A `serve_socket` call at `path` that must fail at start-up: its
/// error, or a panic once the deadline passes.
fn start_up_error(path: &std::path::Path) -> std::io::Error {
    let (tx, done) = mpsc::channel();
    let path = path.to_owned();
    std::thread::spawn(move || {
        let _ = tx.send(serve_socket(&session(), &path, 1));
    });
    done.recv_timeout(DEADLINE)
        .expect("serve_socket returns before the deadline")
        .expect_err("serve_socket refuses the path")
}

/// One `serve_socket` call on its own thread.
struct Server {
    path: PathBuf,
    done: mpsc::Receiver<std::io::Result<ServeSummary>>,
    thread: JoinHandle<()>,
}

impl Server {
    fn start(test: &str) -> Server {
        Server::start_with_jobs(test, 1)
    }

    fn start_with_jobs(test: &str, jobs: usize) -> Server {
        let path = socket_path(test);
        let (tx, done) = mpsc::channel();
        let served = path.clone();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(serve_socket(&session(), &served, jobs));
        });
        Server { path, done, thread }
    }

    /// Connects as soon as the socket accepts.
    fn connect(&self) -> Client {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match UnixStream::connect(&self.path) {
                Ok(stream) => return Client::new(stream),
                Err(e) if Instant::now() >= deadline => panic!("the socket never accepted: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Waits for `serve_socket` to return and checks it unlinked the
    /// socket file.
    fn join(self) -> ServeSummary {
        let path = self.path.clone();
        let summary = self.finish();
        assert!(!path.exists(), "the socket file is unlinked");
        summary
    }

    /// Waits for `serve_socket` to return.
    fn finish(self) -> ServeSummary {
        let result = self
            .done
            .recv_timeout(DEADLINE)
            .expect("serve_socket returns before the deadline");
        self.thread.join().expect("the server thread joins");
        result.expect("the socket serve succeeds")
    }
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn new(stream: UnixStream) -> Client {
        let reader = BufReader::new(stream.try_clone().expect("the stream clones"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.writer, "{line}")
    }

    /// The next response line, or `None` once the daemon closed the
    /// connection.
    fn read(&mut self) -> Option<Response> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(Response::parse(line.trim_end()).expect("the response parses")),
        }
    }

    fn request(&mut self, line: &str) -> Response {
        self.send(line).expect("the request is written");
        self.read().expect("the request is answered")
    }
}

fn estimate(id: &str) -> String {
    Request {
        id: id.to_owned(),
        call: RequestCall::Estimate(EstimateRequest {
            files: Vec::new(),
            mnl: vec![mnl::to_mnl(&generate::ripple_adder(2))],
            tech: "nmos".to_owned(),
            rows: None,
            jobs: 1,
            json: false,
            incremental: false,
        }),
    }
    .to_json_line()
}

/// A place-and-route layout: tens of milliseconds of annealing, long
/// enough to be mid-flight when another connection asks for shutdown.
fn layout(id: &str) -> String {
    Request {
        id: id.to_owned(),
        call: RequestCall::Layout(LayoutRequest {
            files: Vec::new(),
            mnl: vec![mnl::to_mnl(&generate::counter(4))],
            tech: "nmos".to_owned(),
            rows: None,
            replicas: 1,
            warm: false,
        }),
    }
    .to_json_line()
}

fn shutdown(id: &str) -> String {
    Request {
        id: id.to_owned(),
        call: RequestCall::Shutdown,
    }
    .to_json_line()
}

#[test]
fn a_client_connecting_as_soon_as_the_socket_exists_is_answered() {
    let server = Server::start("first");
    let mut client = server.connect();
    let answer = client.request(&estimate("e1"));
    assert_eq!(answer.id, "e1");
    assert!(answer.is_ok(), "{answer:?}");
    assert_eq!(client.request(&shutdown("bye")).id, "bye");
    assert!(client.read().is_none(), "the daemon closes the connection");
    let summary = server.join();
    assert!(summary.shutdown);
}

#[test]
fn shutdown_returns_while_another_client_stays_idle() {
    let server = Server::start("idle");
    let mut idle = server.connect();
    let mut control = server.connect();
    assert_eq!(control.request(&shutdown("bye")).id, "bye");
    let summary = server.join();
    assert_eq!(summary.requests, 1);
    assert!(idle.read().is_none(), "shutdown closes the idle connection");
}

#[test]
fn shutdown_returns_after_the_socket_file_is_removed() {
    let server = Server::start("unlinked");
    let mut client = server.connect();
    std::fs::remove_file(&server.path).expect("the socket file is removed");
    assert_eq!(client.request(&shutdown("bye")).id, "bye");
    let summary = server.join();
    assert_eq!(summary.requests, 1);
    assert!(summary.shutdown);
}

#[test]
fn shutdown_returns_after_another_listener_took_the_path() {
    let server = Server::start("replaced");
    let mut client = server.connect();
    std::fs::remove_file(&server.path).expect("the socket file is removed");
    let other = UnixListener::bind(&server.path).expect("a second listener binds the path");
    other
        .set_nonblocking(true)
        .expect("the second listener is nonblocking");
    assert_eq!(client.request(&shutdown("bye")).id, "bye");
    let path = server.path.clone();
    let summary = server.finish();
    assert_eq!(summary.requests, 1);
    assert!(summary.shutdown);
    assert!(
        matches!(other.accept(), Err(e) if e.kind() == ErrorKind::WouldBlock),
        "the daemon never connects to the second listener"
    );
    assert!(
        path.exists(),
        "the second listener's socket file is left alone"
    );
    std::fs::remove_file(&path).expect("the second socket file is removed");
}

#[test]
fn a_request_in_flight_at_shutdown_is_answered_before_the_daemon_returns() {
    // Two workers per connection, so the layout is answered from the
    // busy connection's worker pool while its intake stops.
    let server = Server::start_with_jobs("in-flight", 2);
    let mut busy = server.connect();
    busy.send(&layout("slow")).expect("the layout is written");
    let mut control = server.connect();
    assert_eq!(control.request(&shutdown("bye")).id, "bye");
    let summary = server.join();
    // The daemon has returned, so the answer is already in the socket.
    let answer = busy.read().expect("the in-flight layout is answered");
    assert_eq!(answer.id, "slow");
    assert!(answer.is_ok(), "{answer:?}");
    assert!(busy.read().is_none(), "then the connection is closed");
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 0);
}

#[test]
fn a_connection_past_the_cap_is_refused_until_a_slot_frees() {
    let server = Server::start("cap");
    // Connections are accepted in arrival order, so all of these hold a
    // slot before the next one is accepted.
    let mut idle: Vec<Client> = (0..MAX_CONNECTIONS).map(|_| server.connect()).collect();
    let mut over = server.connect();
    let mut rest = String::new();
    over.reader
        .read_to_string(&mut rest)
        .expect("the refusal is read to EOF");
    let lines: Vec<&str> = rest.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one line: {rest:?}");
    let refusal = Response::parse(lines[0]).expect("the refusal parses");
    let message = refusal.result.expect_err("the refusal is an error");
    assert!(message.starts_with("overloaded"), "{message}");

    drop(idle.pop());
    // The slot frees once that connection's handler has read EOF and
    // ended; until then a newcomer is refused, so retry.
    let deadline = Instant::now() + DEADLINE;
    let mut served = loop {
        let mut client = server.connect();
        // A refused connection may already be closed for writing.
        let _ = client.send(&estimate("after"));
        match client.read() {
            Some(answer) if answer.id == "after" => {
                assert!(answer.is_ok(), "{answer:?}");
                break client;
            }
            other => {
                assert!(Instant::now() < deadline, "no slot freed: {other:?}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    assert_eq!(served.request(&shutdown("bye")).id, "bye");
    server.join();
    for client in &mut idle {
        assert!(
            client.read().is_none(),
            "shutdown closes every idle connection"
        );
    }
}

#[test]
fn the_summary_counts_the_responses_of_every_connection() {
    let server = Server::start("tally");
    let mut first = server.connect();
    assert!(first.request(&estimate("e1")).is_ok());
    let mut second = server.connect();
    assert!(!second.request("not json").is_ok());
    assert_eq!(second.request(&shutdown("bye")).id, "bye");
    let summary = server.join();
    assert_eq!(
        summary,
        ServeSummary {
            requests: 3,
            errors: 1,
            shutdown: true,
        }
    );
}

#[test]
fn a_second_daemon_on_a_live_path_fails_and_leaves_the_first_serving() {
    let server = Server::start("live");
    let mut client = server.connect();
    let err = start_up_error(&server.path);
    assert_eq!(err.kind(), ErrorKind::AddrInUse, "{err}");
    assert!(
        err.to_string().starts_with("a daemon is already serving"),
        "{err}"
    );
    assert!(client.request(&estimate("e1")).is_ok());
    let mut later = server.connect();
    assert!(later.request(&estimate("e2")).is_ok());
    assert_eq!(later.request(&shutdown("bye")).id, "bye");
    // The second daemon's probe was an empty connection: no response.
    let summary = server.join();
    assert_eq!(summary.requests, 3);
    assert_eq!(summary.errors, 0);
}

#[test]
fn a_stale_socket_file_is_replaced() {
    let path = socket_path("stale");
    let _ = std::fs::remove_file(&path);
    drop(UnixListener::bind(&path).expect("a listener binds the path"));
    assert!(path.exists(), "the dropped listener leaves its file");
    let server = Server::start("stale");
    let mut client = server.connect();
    assert!(client.request(&estimate("e1")).is_ok());
    assert_eq!(client.request(&shutdown("bye")).id, "bye");
    assert_eq!(server.join().requests, 2);
}

#[test]
fn a_regular_file_at_the_path_is_left_alone() {
    let path = socket_path("regular");
    std::fs::write(&path, "keep me").expect("the file is written");
    let err = start_up_error(&path);
    assert_eq!(err.kind(), ErrorKind::AlreadyExists, "{err}");
    assert_eq!(
        std::fs::read(&path).expect("the file is still there"),
        b"keep me"
    );
    std::fs::remove_file(&path).expect("the file is removed");
}
