//! The blocking NDJSON-over-TCP daemon.
//!
//! Plain `std` networking — no async runtime. One accept-loop thread;
//! per connection, one reader thread (parses lines, tags each request
//! with a per-connection sequence number, submits to the shared worker
//! pool) and one writer thread (reorders `(seq, response)` pairs so the
//! client always sees responses in request order, even though requests
//! execute concurrently on whichever workers are free).
//!
//! Malformed lines get an `Error` response *in order* and the
//! connection stays usable; blank lines are ignored. Shutdown is
//! cooperative: a flag plus short read timeouts, so `shutdown()`
//! returns even with idle connections still open.

use crate::pool::{Job, JobQueue, ServeConfig, ServeState, WorkerPool};
use crate::protocol::{ErrorResponse, Request, Response, StatsResponse};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line; anything bigger is answered with an
/// error (a line this size is a client bug, not a topology).
const MAX_LINE_BYTES: usize = 16 << 20;

/// How often blocked reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A running serving daemon. Dropping it shuts it down.
pub struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    state: Arc<ServeState>,
}

impl Daemon {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn spawn(bind: &str, config: ServeConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(config));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_state = Arc::clone(&state);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state, &accept_shutdown))?;
        Ok(Daemon {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            state,
        })
    }

    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot (same numbers a `Stats` request returns).
    pub fn stats(&self) -> StatsResponse {
        self.state.stats()
    }

    /// The shared state, for in-process introspection in tests.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops accepting, drains in-flight work, joins every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the accept loop
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>, shutdown: &Arc<AtomicBool>) {
    let pool = WorkerPool::new(Arc::clone(state));
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let sender = pool.sender();
        let conn_shutdown = Arc::clone(shutdown);
        if let Ok(handle) = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || serve_connection(stream, &sender, &conn_shutdown))
        {
            connections.push(handle);
        }
        connections.retain(|h| !h.is_finished());
    }
    for h in connections {
        let _ = h.join();
    }
    // pool drops here: the job queue closes and workers are joined
}

fn serve_connection(stream: TcpStream, sender: &Arc<JobQueue>, shutdown: &AtomicBool) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = std::sync::mpsc::channel::<(u64, Response)>();
    let writer = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || writer_loop(write_half, &reply_rx));
    let Ok(writer) = writer else { return };

    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let mut seq: u64 = 0;
    loop {
        // `line` persists across timeout retries: read_until appends, so a
        // request split across poll intervals reassembles correctly — bytes,
        // not chars, so a multi-byte character split across two reads is
        // whole again before anything decodes it. The size cap is enforced
        // in the read path itself — each read runs against a `Take`
        // budgeted at one byte past the cap, so a client streaming a
        // newline-free (or oversized but terminated) line can never buffer
        // more than MAX_LINE_BYTES + 1 bytes here.
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !line.ends_with(b"\n") && line.len() > MAX_LINE_BYTES {
                    let _ = reply_tx.send((
                        seq,
                        Response::Error(ErrorResponse {
                            detail: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        }),
                    ));
                    break;
                }
                // invalid UTF-8 is one malformed request, like bad JSON
                let trimmed = std::str::from_utf8(&line).map(str::trim);
                if trimmed != Ok("") {
                    let parsed = trimmed.map_err(|e| e.to_string()).and_then(|text| {
                        serde_json::from_str::<Request>(text).map_err(|e| e.to_string())
                    });
                    match parsed {
                        Ok(request) => {
                            if sender
                                .send(Job::new(seq, request, reply_tx.clone()))
                                .is_err()
                            {
                                break; // pool gone: daemon shutting down
                            }
                        }
                        Err(e) => {
                            // parse errors keep their slot in the order
                            let _ = reply_tx.send((
                                seq,
                                Response::Error(ErrorResponse {
                                    detail: format!("malformed request: {e}"),
                                }),
                            ));
                        }
                    }
                    seq += 1;
                }
                line.clear();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // close our reply handle; the writer drains responses still owed by
    // in-flight jobs, then exits when the last job's clone drops
    drop(reply_tx);
    let _ = writer.join();
}

fn writer_loop(stream: TcpStream, replies: &Receiver<(u64, Response)>) {
    let mut out = BufWriter::new(stream);
    let mut pending: BTreeMap<u64, Response> = BTreeMap::new();
    let mut next: u64 = 0;
    while let Ok((seq, response)) = replies.recv() {
        pending.insert(seq, response);
        let mut wrote = false;
        while let Some(response) = pending.remove(&next) {
            let line = serde_json::to_string(&response)
                .unwrap_or_else(|e| format!("{{\"Error\":{{\"detail\":\"encode: {e}\"}}}}"));
            if writeln!(out, "{line}").is_err() {
                return; // client went away; jobs still running will
                        // drop their sends on the closed channel
            }
            next += 1;
            wrote = true;
        }
        if wrote && out.flush().is_err() {
            return;
        }
    }
}
