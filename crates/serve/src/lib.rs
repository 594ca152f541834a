//! `psa-serve`: the sim-as-a-server daemon for the *Page Size Aware
//! Cache Prefetching* reproduction.
//!
//! A persistent service wrapping [`psa_experiments::service`] behind an
//! async job queue on a small dependency-free HTTP/1.1 + JSON API:
//!
//! * `POST /jobs` — submit a `{figure, workloads, variants, seed}`
//!   sweep spec (validated, strict typed errors);
//! * `GET /jobs/j<id>` — status and progress;
//! * `GET /results/j<id>` — the finished schema-v4 BENCH document;
//! * `GET /healthz` / `GET /metrics` — liveness and Prometheus text
//!   exposition of server + executor + storage-tier counters.
//!
//! Identical requests — concurrent or repeated — deduplicate against
//! the in-flight registry and the tiered store's memoised document
//! tier ([`psa_store::EntryKind::Document`]): one simulation serves N
//! clients, and a repeat sweep after a restart is answered from disk
//! without simulating. A bounded queue sheds excess submissions with a
//! typed 503 + load-aware `Retry-After`. Per-job panics are
//! survivable at two layers (the runner's per-simulation
//! `catch_unwind`, the worker's whole-job one). See `docs/SERVER.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cli;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod signal;

use jobs::JobQueue;
use metrics::Metrics;
use psa_experiments::Executor;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bound on queued (not yet running) jobs; past it, submissions
    /// shed with 503.
    pub queue_capacity: usize,
    /// Bound on request bodies; past it, 413.
    pub max_body_bytes: usize,
    /// Artificial pre-execution delay per job (tests and ops drills;
    /// zero in production).
    pub job_delay: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 64,
            max_body_bytes: 256 * 1024,
            job_delay: Duration::ZERO,
        }
    }
}

/// A running server: accept loop + worker pool, stoppable and
/// drainable.
pub struct RunningServer {
    /// The actually-bound address (resolves ephemeral ports).
    pub addr: SocketAddr,
    queue: Arc<JobQueue>,
    stop_accepting: Arc<AtomicBool>,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// Bind `config.addr` and start serving jobs on `exec` (the daemon
    /// builds it from the environment, once, before binding).
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn spawn(config: ServerConfig, exec: Arc<Executor>) -> std::io::Result<RunningServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new(config.queue_capacity as u64));
        let (queue, worker_handles) = JobQueue::start_with(
            exec,
            config.queue_capacity,
            config.workers,
            config.job_delay,
            metrics,
        );
        let stop_accepting = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop_accepting);
            let max_body = config.max_body_bytes;
            std::thread::Builder::new()
                .name("psa-serve-accept".into())
                .spawn(move || accept_loop(&listener, &queue, &stop, max_body))
                .expect("spawn accept thread")
        };
        Ok(RunningServer {
            addr,
            queue,
            stop_accepting,
            accept_handle,
            worker_handles,
        })
    }

    /// The job queue (tests inspect metrics and jobs through it).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Jobs queued or running right now.
    pub fn outstanding(&self) -> u64 {
        self.queue.outstanding()
    }

    /// Stop accepting connections and admitting jobs, drain queued and
    /// in-flight jobs to completion, and join every thread.
    pub fn shutdown(self) {
        self.stop_accepting.store(true, Ordering::SeqCst);
        self.queue.begin_shutdown();
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        let _ = self.accept_handle.join();
    }
}

fn accept_loop(listener: &TcpListener, queue: &Arc<JobQueue>, stop: &AtomicBool, max_body: usize) {
    let live = Arc::new(AtomicU64::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let queue = Arc::clone(queue);
                let conn_live = Arc::clone(&live);
                live.fetch_add(1, Ordering::SeqCst);
                // Thread-per-connection: connections are one-shot
                // (Connection: close) and short-lived; job execution
                // happens on the worker pool, never here.
                let spawned = std::thread::Builder::new()
                    .name("psa-serve-conn".into())
                    .spawn(move || {
                        serve_connection(stream, &queue, max_body);
                        conn_live.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Give in-flight connection threads a bounded moment to finish
    // writing before the process moves on to drain reporting.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while live.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn serve_connection(mut stream: TcpStream, queue: &Arc<JobQueue>, max_body: usize) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let response = match http::read_request(&mut stream, max_body) {
        Ok(request) => api::handle(queue, &request),
        Err(err) => api::error_response(&err),
    };
    queue.metrics.count_http(response.status);
    let _ = http::write_response(&mut stream, &response);
    // Closing with unread input (e.g. the body of a request rejected
    // at the head) makes the kernel RST the connection, destroying the
    // response before the client reads it. Shut down our write side,
    // then drain (bounded) until the client has read and closed.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while drained < MAX_DRAIN_BYTES {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Cap on post-response input draining (see [`serve_connection`]): far
/// above any declared body this server would have rejected, far below
/// a resource-exhaustion vector.
const MAX_DRAIN_BYTES: usize = 4 * 1024 * 1024;
