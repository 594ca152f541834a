//! Per-server metrics and the `/metrics` Prometheus exposition.
//!
//! The server counters live on a per-[`Metrics`] instance (not process
//! globals) so tests can run several servers in one process without
//! cross-talk. The exposition additionally renders the server's executor
//! counters ([`psa_experiments::Executor::stats`]) and storage-tier
//! counters ([`psa_common::obs::prom::store_metrics`]) — the full
//! observability surface of a long-lived daemon.

use psa_common::obs::prom::{self, MetricKind, PromText};
use psa_experiments::runner::ExecStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Server-level counters and gauges.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Job submissions that created a new queued job.
    pub jobs_accepted: AtomicU64,
    /// Job submissions answered by an existing (in-flight or finished)
    /// identical job.
    pub jobs_deduped: AtomicU64,
    /// Job submissions shed with 503 + `Retry-After` (queue full).
    pub jobs_shed: AtomicU64,
    /// Jobs that finished with a document.
    pub jobs_completed: AtomicU64,
    /// Jobs that died to a worker-level panic.
    pub jobs_failed: AtomicU64,
    /// Completed jobs served from the memoised document tier without
    /// simulating.
    pub jobs_from_cache: AtomicU64,
    /// Jobs currently executing on a worker.
    pub jobs_in_flight: AtomicU64,
    /// Jobs currently queued (excluding running).
    pub queue_depth: AtomicU64,
    /// The configured queue capacity.
    pub queue_capacity: u64,
    /// HTTP responses by status class.
    pub http_2xx: AtomicU64,
    /// 4xx responses.
    pub http_4xx: AtomicU64,
    /// 5xx responses.
    pub http_5xx: AtomicU64,
    job_nanos: AtomicU64,
    job_count: AtomicU64,
}

impl Metrics {
    /// Fresh metrics for one server instance.
    pub fn new(queue_capacity: u64) -> Metrics {
        Metrics {
            started: Instant::now(),
            jobs_accepted: AtomicU64::new(0),
            jobs_deduped: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_from_cache: AtomicU64::new(0),
            jobs_in_flight: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_capacity,
            http_2xx: AtomicU64::new(0),
            http_4xx: AtomicU64::new(0),
            http_5xx: AtomicU64::new(0),
            job_nanos: AtomicU64::new(0),
            job_count: AtomicU64::new(0),
        }
    }

    /// Count one HTTP response by status class.
    pub fn count_http(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.http_2xx,
            400..=499 => &self.http_4xx,
            _ => &self.http_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a finished job's wall time (feeds `Retry-After`).
    pub fn note_job(&self, wall: Duration) {
        self.job_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.job_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Mean seconds per finished job; 1.0 until any job finished (a
    /// sane floor for load-aware `Retry-After` on a cold server).
    pub fn mean_job_secs(&self) -> f64 {
        let count = self.job_count.load(Ordering::Relaxed);
        if count == 0 {
            return 1.0;
        }
        let nanos = self.job_nanos.load(Ordering::Relaxed);
        (nanos as f64 / count as f64 / 1e9).max(0.001)
    }

    /// The full Prometheus text exposition: server families, the
    /// executor families of `exec`, storage-tier families.
    pub fn render(&self, exec: &ExecStats) -> String {
        let mut w = PromText::new();
        w.counter(
            "psa_serve_jobs_accepted_total",
            "Job submissions that created a new queued job.",
            self.jobs_accepted.load(Ordering::Relaxed),
        );
        w.counter(
            "psa_serve_jobs_deduped_total",
            "Job submissions answered by an existing identical job.",
            self.jobs_deduped.load(Ordering::Relaxed),
        );
        w.counter(
            "psa_serve_jobs_shed_total",
            "Job submissions shed with 503 + Retry-After because the queue was full.",
            self.jobs_shed.load(Ordering::Relaxed),
        );
        w.counter(
            "psa_serve_jobs_completed_total",
            "Jobs that finished with a result document.",
            self.jobs_completed.load(Ordering::Relaxed),
        );
        w.counter(
            "psa_serve_jobs_failed_total",
            "Jobs terminated by a worker-level panic.",
            self.jobs_failed.load(Ordering::Relaxed),
        );
        w.counter(
            "psa_serve_jobs_from_cache_total",
            "Completed jobs served from the memoised document tier without simulating.",
            self.jobs_from_cache.load(Ordering::Relaxed),
        );
        w.family(
            "psa_serve_http_requests_total",
            MetricKind::Counter,
            "HTTP responses sent, by status class.",
        );
        w.sample(
            &[("class", "2xx")],
            self.http_2xx.load(Ordering::Relaxed) as f64,
        );
        w.sample(
            &[("class", "4xx")],
            self.http_4xx.load(Ordering::Relaxed) as f64,
        );
        w.sample(
            &[("class", "5xx")],
            self.http_5xx.load(Ordering::Relaxed) as f64,
        );
        w.gauge(
            "psa_serve_jobs_in_flight",
            "Jobs currently executing on a worker.",
            self.jobs_in_flight.load(Ordering::Relaxed) as f64,
        );
        w.gauge(
            "psa_serve_queue_depth",
            "Jobs queued and not yet running.",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        w.gauge(
            "psa_serve_queue_capacity",
            "Configured bound on the job queue.",
            self.queue_capacity as f64,
        );
        w.gauge(
            "psa_serve_uptime_seconds",
            "Seconds since this server instance started.",
            self.started.elapsed().as_secs_f64(),
        );
        executor_metrics(&mut w, exec);
        prom::store_metrics(&mut w);
        w.render()
    }
}

/// Render the server executor's counters as `psa_executor_*`.
fn executor_metrics(w: &mut PromText, stats: &ExecStats) {
    w.counter(
        "psa_executor_simulated_runs_total",
        "Simulations actually executed by this process.",
        stats.simulated,
    );
    w.counter(
        "psa_executor_memo_hits_total",
        "Runs served from an in-process run-cache memo.",
        stats.memo_hits,
    );
    w.counter(
        "psa_executor_warmups_shared_total",
        "Warm-ups skipped via an in-memory checkpoint.",
        stats.warmups_shared,
    );
    w.counter(
        "psa_executor_ckpt_hits_total",
        "Warm-ups, reports and documents served from the on-disk store.",
        stats.ckpt_hits,
    );
    w.counter(
        "psa_executor_failed_runs_total",
        "Jobs that ended in a recorded failure instead of a report.",
        stats.failed,
    );
    w.counter(
        "psa_executor_watchdog_aborts_total",
        "Failed jobs aborted by the forward-progress watchdog.",
        stats.watchdog_aborted,
    );
    w.counter(
        "psa_executor_sim_cycles_total",
        "Simulated cycles across executed runs.",
        stats.sim_cycles,
    );
    w.family(
        "psa_executor_phase_seconds_total",
        MetricKind::Counter,
        "Worker wall time by execution phase.",
    );
    w.sample(&[("phase", "warmup")], stats.phase_warm.as_secs_f64());
    w.sample(&[("phase", "measure")], stats.phase_measure.as_secs_f64());
    w.sample(
        &[("phase", "snapshot_io")],
        stats.phase_snapshot.as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_job_secs_floors_at_one_until_history() {
        let m = Metrics::new(4);
        assert_eq!(m.mean_job_secs(), 1.0);
        m.note_job(Duration::from_millis(500));
        m.note_job(Duration::from_millis(1500));
        let mean = m.mean_job_secs();
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn render_contains_every_server_family() {
        let m = Metrics::new(9);
        m.count_http(200);
        m.count_http(404);
        m.count_http(503);
        let text = m.render(&ExecStats::default());
        for family in [
            "psa_serve_jobs_accepted_total",
            "psa_serve_jobs_deduped_total",
            "psa_serve_jobs_shed_total",
            "psa_serve_jobs_completed_total",
            "psa_serve_jobs_failed_total",
            "psa_serve_jobs_from_cache_total",
            "psa_serve_http_requests_total",
            "psa_serve_jobs_in_flight",
            "psa_serve_queue_depth",
            "psa_serve_queue_capacity",
            "psa_serve_uptime_seconds",
            "psa_executor_simulated_runs_total",
            "psa_executor_phase_seconds_total",
            "psa_store_hits_total",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
        assert!(text.contains("psa_serve_http_requests_total{class=\"2xx\"} 1"));
        assert!(text.contains("psa_serve_http_requests_total{class=\"4xx\"} 1"));
        assert!(text.contains("psa_serve_http_requests_total{class=\"5xx\"} 1"));
        assert!(text.contains("psa_serve_queue_capacity 9"));
    }
}
