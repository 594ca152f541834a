//! Small shared pieces: order statistics, seeds, the metric list and its
//! one-line JSON rendering, peak memory, and the span recorder.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile reported for latencies: the 90th, or the highest
/// percentile that still has at least ten samples beyond it when there
/// are fewer than 110 samples. Returns the value and the percentile used.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let nearest_rank_90 = (0.9 * n as f64).ceil() as usize - 1;
    let idx = nearest_rank_90.min(n.saturating_sub(11));
    (v[idx], (idx + 1) as f64 / n as f64 * 100.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A stopwatch on the calling thread's CPU clock: the thread's on-CPU
/// time, user and system. Single-threaded work that never waits reads
/// the same on it as on a wall clock on an idle host, but time the
/// thread spends preempted, or (with the kernel's paravirtual steal
/// accounting) with its virtual CPU descheduled by the hypervisor, does
/// not count.
#[derive(Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    /// Start timing now.
    pub fn start() -> CpuTimer {
        CpuTimer(thread_cpu_secs())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn secs(self) -> f64 {
        thread_cpu_secs() - self.0
    }
}

fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) through the
    // pointer, which points at a live, properly aligned `Timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel's affinity calls take it: 1024 bits.
type CpuMask = [u64; 16];

/// The first `max` CPUs this process may run on, lowest first (empty if
/// the kernel does not say).
pub fn allowed_cpus(max: usize) -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size` bytes of CPU mask through
    // the pointer, which points at a live array of exactly that size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .take(max)
        .collect()
}

/// Pin the calling thread to `cpu`. Best effort: a thread the kernel
/// does not pin runs where the scheduler puts it.
pub fn pin_to_cpu(cpu: usize) {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes of CPU mask through the
    // pointer, which points at a live array of exactly that size; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Peak resident set size of process `pid` (`None` = this process) in
/// MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The metrics one run reports, in insertion order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Add one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// Keep only the named metrics, in the order given. Names with no
    /// row are returned as missing.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, Vec<String>> {
        let mut out = Metrics::default();
        let mut missing = Vec::new();
        for &n in names {
            match self.rows.iter().find(|r| r.0 == n) {
                Some(r) if r.1.is_finite() => out.rows.push(r.clone()),
                _ => missing.push(n.to_string()),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }

    /// Render the result line: `{"correct", "attempted", "failed",
    /// "metrics": {name: {"value", "unit"}}}` on one line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Outcome counters for the operations a run attempts.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted (jobs, cells, checks).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed and logs
    /// `what` to stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
    }

    /// Add `other`'s counts to these.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One recorded span: a named interval, the span that caused it, and
/// the job it belongs to (0 when none).
struct Span {
    name: String,
    parent: u32,
    job: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends. A
/// disabled recorder records nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span under `parent` (0 = root); returns its id (1-based).
    pub fn open(&mut self, name: &str, parent: u32, job: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            job,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() as u32
    }

    /// Close span `id`.
    pub fn close(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = now;
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total and self time (duration minus the part covered by direct
    /// children) per span name, in milliseconds, sorted by name.
    pub fn self_times(&self) -> Vec<(String, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, f64, f64)> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            let e = by_name.entry(&s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n.to_string(), c, t, o))
            .collect()
    }

    /// Write the spans as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps; `args` carry id, parent and job).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"job\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                s.job
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

/// A scratch directory for one run, under `.bench_work/` in the current
/// directory, emptied first. Removed again by [`WorkDir::drop`].
pub struct WorkDir {
    /// The directory.
    pub path: PathBuf,
}

impl WorkDir {
    /// Create (empty) `.bench_work/<name>`.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = std::env::current_dir()?.join(".bench_work").join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// `path/<file>` as a string (trace refs and specs take `&str`).
    pub fn file(&self, file: &str) -> String {
        self.path.join(file).display().to_string()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where a run's spans go: `.bench_work/spans/<workload>-<seed>.json`.
pub fn spans_path(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = std::env::current_dir()?.join(".bench_work").join("spans");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("{workload}-{seed}.json")))
}
