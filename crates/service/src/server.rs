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

use crate::job::JobPayload;
use crate::lock;
use crate::protocol::{JobEvent, Request};
use crate::service::{EventSink, Service};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

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
fn line_sink(
    stream: Arc<Mutex<UnixStream>>,
    log: Option<Arc<Mutex<std::fs::File>>>,
) -> EventSink {
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
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    let sink = line_sink(writer, log);

    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let request: Request = match serde_json::from_str(&line) {
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

    /// Round-trip ping/shutdown over a real socket; submissions are
    /// exercised end-to-end by the integration suite.
    #[test]
    fn ping_and_shutdown_over_the_socket() {
        let socket = std::env::temp_dir().join(format!("df-service-test-{}.sock", std::process::id()));
        let service = Arc::new(Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }));
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve(service, &socket, None))
        };
        // Wait for the socket to come up.
        let mut client = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        let mut reader = BufReader::new(client.try_clone().unwrap());
        writeln!(client, "{}", serde_json::to_string(&Request::Ping).unwrap()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(serde_json::from_str::<JobEvent>(&line).unwrap(), JobEvent::Pong);
        // Garbage gets a protocol error, not a dropped connection.
        writeln!(client, "not json").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            serde_json::from_str::<JobEvent>(&line).unwrap(),
            JobEvent::ProtocolError { .. }
        ));
        writeln!(client, "{}", serde_json::to_string(&Request::Shutdown).unwrap()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            serde_json::from_str::<JobEvent>(&line).unwrap(),
            JobEvent::ShuttingDown { drained: 0 }
        );
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&socket);
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
        let service = Arc::new(Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }));
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve(service, &socket, None))
        };
        let mut client = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        };
        // A second server against the now-live socket must refuse.
        let rival = Arc::new(Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }));
        let err = serve(rival, &socket, None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        writeln!(client, "{}", serde_json::to_string(&Request::Shutdown).unwrap()).unwrap();
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&socket);
    }
}
