//! The Unix-domain-socket front end: newline-delimited JSON requests
//! in, [`JobEvent`] lines out.
//!
//! One thread per connection; a connection may carry many submissions,
//! and each job's events are written to that connection (and, when
//! configured, appended to a shared event log — the artifact the CI
//! gate archives). A client that disconnects mid-run does *not* cancel
//! its job: the run completes and populates the cache, so the work is
//! not wasted; only an explicit `cancel` request stops a job early.
//!
//! `shutdown` drains every queued and in-flight job to its terminal
//! event, answers `shutting_down` with the drain count, and stops the
//! accept loop.
//!
//! A request line is at most [`MAX_REQUEST_LINE`] bytes. A longer one is
//! answered with a `protocol_error` naming the limit and the connection
//! closes, since what follows it cannot be framed; a line that is not
//! UTF-8 is answered with a `protocol_error` and the connection keeps
//! serving.

use crate::job::JobPayload;
use crate::lock;
use crate::protocol::{JobEvent, Request};
use crate::service::{EventSink, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Longest request line the server reads, in bytes, newline excluded.
/// Every bundled scenario and sweep, and every benchmark request, is
/// under 2 KiB; an explicit node list covering all 5,256 nodes of the
/// paper machine is about 30 KiB. The limit keeps a client that never
/// sends a newline from growing the connection's buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Serve `service` on a Unix socket at `socket` until a `shutdown`
/// request arrives. `event_log`, when set, receives every event of
/// every connection as JSON lines (append mode).
pub fn serve(
    service: Arc<Service>,
    socket: &Path,
    event_log: Option<&Path>,
) -> std::io::Result<()> {
    // A stale socket file from a killed predecessor would make bind
    // fail — but blindly unlinking would hijack a *live* server's
    // socket. Probe first: only an unanswered socket file is stale.
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("{} already serves a live df-service", socket.display()),
            ));
        }
        std::fs::remove_file(socket)?;
    }
    let listener = UnixListener::bind(socket)?;
    let log = match event_log {
        Some(path) => Some(Arc::new(Mutex::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        ))),
        None => None,
    };
    // Surface what the startup scan quarantined: one `cache_corrupt`
    // line per bad spill file, in the log before any client events.
    if let Some(log) = &log {
        let mut f = lock(log);
        for event in service.startup_events() {
            if let Ok(line) = serde_json::to_string(&event) {
                let _ = writeln!(f, "{line}");
            }
        }
    }
    let shutting_down = Arc::new(AtomicBool::new(false));
    let socket_path: PathBuf = socket.to_path_buf();

    for stream in listener.incoming() {
        if shutting_down.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let service = Arc::clone(&service);
        let log = log.clone();
        let shutting_down = Arc::clone(&shutting_down);
        let socket_path = socket_path.clone();
        std::thread::spawn(move || {
            handle_connection(&service, stream, log, &shutting_down, &socket_path);
        });
    }
    Ok(())
}

/// Build the sink that fans one connection's events out to the client
/// stream and the shared event log. Write errors to the client are
/// ignored (it may have disconnected; the job still runs to completion
/// and its result is cached).
fn line_sink(stream: Arc<Mutex<UnixStream>>, log: Option<Arc<Mutex<std::fs::File>>>) -> EventSink {
    Arc::new(move |event: JobEvent| {
        let line = match serde_json::to_string(&event) {
            Ok(l) => l,
            Err(_) => return,
        };
        {
            let mut s = lock(&stream);
            let _ = writeln!(s, "{line}");
            let _ = s.flush();
        }
        if let Some(log) = &log {
            let _ = writeln!(lock(log), "{line}");
        }
    })
}

fn handle_connection(
    service: &Service,
    stream: UnixStream,
    log: Option<Arc<Mutex<std::fs::File>>>,
    shutting_down: &AtomicBool,
    socket_path: &Path,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    let sink = line_sink(writer, log);

    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit tells a line of exactly the limit
        // (followed by its newline, which JSON reads as whitespace) from
        // a longer one.
        let read = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', &mut buf);
        if !matches!(read, Ok(1..)) {
            break;
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            let error = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            sink(JobEvent::ProtocolError { error });
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            sink(JobEvent::ProtocolError { error: "request line is not UTF-8".into() });
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let request: Request = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                sink(JobEvent::ProtocolError { error: format!("bad request: {e}") });
                continue;
            }
        };
        match request {
            Request::SubmitScenario { spec, options } => {
                service.submit(JobPayload::Scenario(spec), options, Arc::clone(&sink));
            }
            Request::SubmitSweep { spec, options } => {
                service.submit(JobPayload::Sweep(spec), options, Arc::clone(&sink));
            }
            Request::Cancel { job } => {
                if !service.cancel(job) {
                    sink(JobEvent::ProtocolError { error: format!("unknown job {job}") });
                }
            }
            Request::Ping => sink(JobEvent::Pong),
            Request::Shutdown => {
                shutting_down.store(true, Ordering::Release);
                let drained = service.shutdown();
                sink(JobEvent::ShuttingDown { drained });
                // Unblock the accept loop so `serve` observes the flag.
                let _ = UnixStream::connect(socket_path);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    /// A one-worker server on a fresh socket named after `tag`, and the
    /// thread serving it.
    fn boot(tag: &str) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
        let socket =
            std::env::temp_dir().join(format!("df-service-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        let service = Arc::new(Service::new(config));
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve(service, &socket, None))
        };
        (socket, server)
    }

    /// Connect to `socket`, waiting for the server to come up.
    fn connect(socket: &Path) -> (UnixStream, BufReader<UnixStream>) {
        let client = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let reader = BufReader::new(client.try_clone().unwrap());
        (client, reader)
    }

    /// Send `request` as one line and read one event back.
    fn ask(client: &mut UnixStream, reader: &mut impl BufRead, request: &[u8]) -> JobEvent {
        client.write_all(request).unwrap();
        client.write_all(b"\n").unwrap();
        next_event(reader)
    }

    fn next_event(reader: &mut impl BufRead) -> JobEvent {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    }

    fn request(r: &Request) -> Vec<u8> {
        serde_json::to_string(r).unwrap().into_bytes()
    }

    /// Ping on a new connection, shut down, and join the server.
    fn ping_then_shutdown(socket: &Path, server: std::thread::JoinHandle<std::io::Result<()>>) {
        let (mut client, mut reader) = connect(socket);
        assert_eq!(ask(&mut client, &mut reader, &request(&Request::Ping)), JobEvent::Pong);
        assert_eq!(
            ask(&mut client, &mut reader, &request(&Request::Shutdown)),
            JobEvent::ShuttingDown { drained: 0 }
        );
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(socket);
    }

    /// Round-trip ping/shutdown over a real socket; submissions are
    /// exercised end-to-end by the integration suite.
    #[test]
    fn ping_and_shutdown_over_the_socket() {
        let (socket, server) = boot("test");
        let (mut client, mut reader) = connect(&socket);
        assert_eq!(ask(&mut client, &mut reader, &request(&Request::Ping)), JobEvent::Pong);
        // Garbage gets a protocol error, not a dropped connection.
        assert!(matches!(
            ask(&mut client, &mut reader, b"not json"),
            JobEvent::ProtocolError { .. }
        ));
        ping_then_shutdown(&socket, server);
    }

    /// A stream with no newline is read up to the limit, not buffered
    /// until one arrives: one byte past it is answered with the limit and
    /// the connection closes. The server keeps serving others.
    #[test]
    fn an_overlong_request_line_is_refused_by_its_limit() {
        let (socket, server) = boot("overlong");
        let (mut client, mut reader) = connect(&socket);
        client.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
        match next_event(&mut reader) {
            JobEvent::ProtocolError { error } => {
                assert!(error.contains(&MAX_REQUEST_LINE.to_string()), "{error}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(reader.read_line(&mut String::new()).unwrap(), 0, "connection closed");
        ping_then_shutdown(&socket, server);
    }

    /// A line nested deeper than the JSON parser's recursion limit — here
    /// the longest line the server reads, all `[` — is a protocol error,
    /// not a stack overflow that aborts the server: a new connection is
    /// still served.
    #[test]
    fn a_deeply_nested_request_line_is_refused_and_the_server_lives() {
        let (socket, server) = boot("nested");
        let (mut client, mut reader) = connect(&socket);
        match ask(&mut client, &mut reader, &vec![b'['; MAX_REQUEST_LINE]) {
            JobEvent::ProtocolError { error } => {
                assert!(error.contains("recursion limit exceeded"), "{error}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        ping_then_shutdown(&socket, server);
    }

    /// A line that is not UTF-8 is a protocol error on a connection that
    /// stays open, not a silently dropped one.
    #[test]
    fn a_non_utf8_request_line_is_answered_and_the_connection_kept() {
        let (socket, server) = boot("non-utf8");
        let (mut client, mut reader) = connect(&socket);
        match ask(&mut client, &mut reader, b"{\"type\":\"ping\xff\"}") {
            JobEvent::ProtocolError { error } => assert!(error.contains("UTF-8"), "{error}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(ask(&mut client, &mut reader, &request(&Request::Ping)), JobEvent::Pong);
        ping_then_shutdown(&socket, server);
    }

    /// The stale-socket satellite: a dead predecessor's socket file is
    /// reclaimed, but a *live* server's socket is refused instead of
    /// hijacked.
    #[test]
    fn stale_socket_is_reclaimed_but_a_live_one_is_refused() {
        let socket =
            std::env::temp_dir().join(format!("df-service-stale-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        // Simulate a killed predecessor: a socket file with no listener
        // behind it. Connect fails, so serve unlinks and binds.
        drop(UnixListener::bind(&socket).unwrap());
        assert!(socket.exists());
        let service =
            Arc::new(Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() }));
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve(service, &socket, None))
        };
        connect(&socket);
        // A second server against the now-live socket must refuse.
        let rival =
            Arc::new(Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() }));
        let err = serve(rival, &socket, None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        ping_then_shutdown(&socket, server);
    }
}
