//! The `serve_sweeps` workload: the `psa_serve` daemon on loopback over
//! a fresh store, one worker, and one closed-loop client sending a
//! seeded sequence of small sweeps in three classes (fresh, overlap,
//! repeat). The daemon restarts once, halfway, over the same store.

use crate::layers::StoreCounts;
use crate::util::{median, mix, peak_rss_mb, secs, tail, Metrics, Spans, Tally, WorkDir};
use psa_common::rng::{fnv1a, DetRng};
use psa_experiments::runner::Variant;
use psa_serve::http::{request, ClientResponse};
use psa_sim::report::{run_report, Json};
use psa_sim::{RunReport, SimConfig, System, WorkloadRef};
use psa_store::{Store, StoreConfig};
use psa_traces::catalog;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Warm-up instructions per served cell.
pub const WARMUP: u64 = 10_000;
/// Measured instructions per served cell.
pub const INSTRUCTIONS: u64 = 20_000;
/// The cell universe's workloads.
pub const WORKLOADS: [&str; 8] = [
    "lbm", "milc", "soplex", "tc.road", "mcf", "omnetpp", "gcc_s", "hmmer",
];
/// The cell universe's variants.
pub const VARIANTS: [&str; 4] = ["no-prefetch", "SPP-PSA-SD", "BOP-PSA-SD", "Pangloss-PSA-SD"];
/// Fresh specs name one workload and one of these variant pairs (indices
/// into [`VARIANTS`]), so every fresh job is one of a few job types that
/// recur under new seeds.
const PAIRS: [[usize; 2]; 2] = [[0, 1], [2, 3]];
/// Simulation seeds in the cell universe (spec `seed` values); enough
/// that no run exhausts the fresh cells.
const SIM_SEEDS: usize = 32;
/// The daemon's store memory-tier budget.
const MEM_TIER_MB: &str = "8";
/// Daemon start-ups timed for `setup_s` before the measured session
/// (the session's own start and restart add two more).
const EXTRA_SPAWNS: usize = 3;
/// `sim_minstr_per_s` counts the first this many fresh jobs of every job
/// type (workload × variant pair): with fresh specs drawn seed by seed,
/// these are every job type at the first simulation seeds of the fresh
/// order, a set the benchmark seed fixes however many jobs a run
/// completes.
const RATE_JOBS_PER_TYPE: usize = 8;

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    stdout: BufReader<ChildStdout>,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

impl Daemon {
    /// Start the daemon over `store` and wait until `GET /healthz`
    /// answers. Returns it with the seconds that took.
    pub fn spawn(store: &Path) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["daemon", "--addr", "127.0.0.1:0", "--workers", "1"])
            .env("PSA_CKPT_DIR", store)
            .env("PSA_THREADS", "1")
            // A fixed memory-tier budget: the daemon's footprint then
            // depends on its configuration, not on how many jobs ran.
            .env("PSA_CKPT_MEM_MB", MEM_TIER_MB)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("psa_serve listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {line:?}"));
        };
        let daemon = Daemon {
            addr: addr.to_string(),
            child,
            stdout,
        };
        while daemon.get("/healthz").map(|r| r.status) != Ok(200) {
            if t.elapsed() > Duration::from_secs(10) {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, secs(t)))
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> Result<ClientResponse, String> {
        request(&self.addr, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))
    }

    /// `POST path` with `body`.
    pub fn post(&self, path: &str, body: &[u8]) -> Result<ClientResponse, String> {
        request(&self.addr, "POST", path, Some(body)).map_err(|e| format!("POST {path}: {e}"))
    }

    /// The daemon's peak resident set, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(Some(self.child.id()))
    }

    /// SIGTERM, then wait for the drain to finish (killing it after 30 s).
    pub fn stop(mut self) -> Result<(), String> {
        let pid = self.child.id() as i32;
        // SAFETY: `kill` is the C library's signal call; it takes plain
        // integers and touches no memory of this process. The pid is our
        // own child, which has not been waited for, so it cannot have
        // been reused.
        unsafe {
            kill(pid, SIGTERM);
        }
        let t = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if t.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain within 30 s".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One cell of the universe: (simulation seed index, workload, variant).
type CellId = (usize, usize, usize);

/// A sweep spec: one seed, one workload, a set of variants.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Spec {
    seed: usize,
    workload: usize,
    variants: BTreeSet<usize>,
}

/// The request classes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Overlap,
    Repeat,
}

/// The seeded request generator: tracks which cells and specs exist.
struct Client {
    rng: DetRng,
    seeds: Vec<u64>,
    fresh: VecDeque<Spec>,
    simulated: BTreeSet<CellId>,
    submitted: Vec<Spec>,
    seen: BTreeSet<Spec>,
}

impl Client {
    fn new(seed: u64) -> Client {
        let mut rng = DetRng::new(mix(seed, 3));
        let fresh = fresh_order(&mut rng);
        Client {
            rng,
            fresh,
            // JSON numbers carry 53 bits exactly.
            seeds: (0..SIM_SEEDS)
                .map(|i| mix(seed, 100 + i as u64) >> 11)
                .collect(),
            simulated: BTreeSet::new(),
            submitted: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    fn overlap(&mut self) -> Option<Spec> {
        let rows: Vec<(usize, usize)> = self
            .simulated
            .iter()
            .map(|&(s, w, _)| (s, w))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        if rows.is_empty() {
            return None;
        }
        for _ in 0..64 {
            let (seed, workload) = *self.rng.pick(&rows);
            let done: Vec<usize> = (0..VARIANTS.len())
                .filter(|&v| self.simulated.contains(&(seed, workload, v)))
                .collect();
            // Two cells when the row has more than one fresh spec's worth,
            // else one: either way a spec never asked for before.
            let size = if done.len() > 2 { 2 } else { 1 };
            let mut variants = BTreeSet::new();
            while variants.len() < size {
                variants.insert(done[self.rng.index(done.len())]);
            }
            let spec = Spec {
                seed,
                workload,
                variants,
            };
            if !self.seen.contains(&spec) {
                return Some(spec);
            }
        }
        None
    }

    /// The next request: the class the seed draws, or fresh when that
    /// class has nothing to offer yet.
    fn next(&mut self) -> (Class, Spec) {
        let draw = self.rng.index(3);
        let pick = match draw {
            1 => self.overlap().map(|s| (Class::Overlap, s)),
            2 if !self.submitted.is_empty() => {
                let s = self.rng.pick(&self.submitted).clone();
                Some((Class::Repeat, s))
            }
            _ => None,
        };
        let (class, spec) = match pick.or_else(|| self.fresh.pop_front().map(|s| (Class::Fresh, s)))
        {
            Some(p) => p,
            // Every fresh cell is spent: fall back to a repeat.
            None => (Class::Repeat, self.rng.pick(&self.submitted).clone()),
        };
        if class == Class::Fresh {
            for &v in &spec.variants {
                self.simulated.insert((spec.seed, spec.workload, v));
            }
        }
        if self.seen.insert(spec.clone()) {
            self.submitted.push(spec.clone());
        }
        (class, spec)
    }

    fn body(&self, spec: &Spec) -> String {
        let variants: Vec<String> = spec
            .variants
            .iter()
            .map(|&v| format!("\"{}\"", VARIANTS[v]))
            .collect();
        format!(
            "{{\"figure\": \"fig08\", \"workloads\": [\"{}\"], \"variants\": [{}], \
             \"seed\": {}, \"warmup\": {WARMUP}, \"instructions\": {INSTRUCTIONS}}}",
            WORKLOADS[spec.workload],
            variants.join(", "),
            self.seeds[spec.seed]
        )
    }
}

/// Shuffle `v` in place (Fisher-Yates).
fn shuffle(v: &mut [usize], rng: &mut DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

/// The order fresh specs are drawn in: seed by seed (in a seeded
/// order), every job type (workload × variant pair) once per seed in a
/// seeded order, so the simulated mix barely depends on how many jobs a
/// run completes.
fn fresh_order(rng: &mut DetRng) -> VecDeque<Spec> {
    let mut order = VecDeque::new();
    let mut seeds: Vec<usize> = (0..SIM_SEEDS).collect();
    shuffle(&mut seeds, rng);
    for seed in seeds {
        let mut types: Vec<usize> = (0..WORKLOADS.len() * PAIRS.len()).collect();
        shuffle(&mut types, rng);
        for t in types {
            order.push_back(Spec {
                seed,
                workload: t / PAIRS.len(),
                variants: PAIRS[t % PAIRS.len()].into(),
            });
        }
    }
    order
}

/// The configuration a served cell runs under.
pub fn cell_config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_warmup(WARMUP)
        .with_instructions(INSTRUCTIONS)
}

/// What the client saw of one job.
struct Done {
    class: Class,
    spec: Spec,
    ms: f64,
    /// Server-side simulation seconds of a fresh job: the growth of
    /// the executor's warm-up + measure phase time that its document
    /// reports, since the previous simulated document of the same
    /// daemon.
    sim_s: Option<f64>,
    deduped: bool,
    after_restart: bool,
    doc: Vec<u8>,
}

/// Submit one spec and follow it to its result: POST, poll status until
/// done, GET the document.
fn run_job(
    daemon: &Daemon,
    body: &str,
    spans: &mut Spans,
    job: u64,
) -> Result<(bool, Vec<u8>), String> {
    let s = spans.open("http.post", 0, job);
    let resp = daemon.post("/jobs", body.as_bytes())?;
    spans.close(s);
    if resp.status != 200 && resp.status != 202 {
        return Err(format!("POST /jobs: HTTP {}: {}", resp.status, resp.text()));
    }
    let posted = Json::parse(&resp.text()).map_err(|e| format!("POST /jobs body: {e}"))?;
    let id = posted
        .get("id")
        .and_then(Json::as_str)
        .ok_or("POST /jobs: no id")?
        .to_string();
    let deduped = matches!(posted.get("deduped"), Some(Json::Bool(true)));
    loop {
        let s = spans.open("http.poll", 0, job);
        let resp = daemon.get(&format!("/jobs/{id}"))?;
        spans.close(s);
        let status = Json::parse(&resp.text()).map_err(|e| format!("status body: {e}"))?;
        match status.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(1)),
            other => return Err(format!("job {id}: state {other:?}")),
        }
    }
    let s = spans.open("http.get_result", 0, job);
    let resp = daemon.get(&format!("/results/{id}"))?;
    spans.close(s);
    if resp.status != 200 {
        return Err(format!("GET /results/{id}: HTTP {}", resp.status));
    }
    Ok((deduped, resp.body))
}

/// Counters scraped from a daemon's `/metrics`, summed over lifetimes.
#[derive(Default)]
struct Scrape {
    accepted: f64,
    deduped: f64,
    from_cache: f64,
    store_hits: f64,
    store_misses: f64,
}

impl Scrape {
    fn add(&mut self, daemon: &Daemon) -> Result<(), String> {
        let text = daemon.get("/metrics")?.text();
        let value = |name: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        self.accepted += value("psa_serve_jobs_accepted_total ");
        self.deduped += value("psa_serve_jobs_deduped_total ");
        self.from_cache += value("psa_serve_jobs_from_cache_total ");
        self.store_hits += value("psa_store_hits_total ");
        self.store_misses += value("psa_store_misses_total ");
        Ok(())
    }
}

/// What the session leaves for the per-layer harness.
pub struct Session {
    /// The first simulation seed of the cell universe.
    pub seed0: u64,
    /// Request bodies sent, in order.
    pub bodies: Vec<String>,
    /// Direct reports of the fresh cells, with workload and variant.
    pub reports: Vec<(String, String, RunReport)>,
    /// Served documents, one per distinct spec.
    pub docs: Vec<Vec<u8>>,
    /// The daemon's own store traffic over both lives.
    pub store: StoreCounts,
}

/// Run the session for `seconds`, check every served document, and put
/// the end-to-end rows (and, when tracing, the server's counts) into `m`.
pub fn session(
    seed: u64,
    seconds: f64,
    work: &WorkDir,
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<Session, String> {
    let store = work.path.join("store");
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SPAWNS {
        let (d, s) = Daemon::spawn(&store)?;
        setups.push(s);
        d.stop()?;
    }
    let s = spans.open("serve.spawn", 0, 0);
    let (mut daemon, s0) = Daemon::spawn(&store)?;
    spans.close(s);
    setups.push(s0);
    let mut rss: f64 = 0.0;
    let mut scrape = Scrape::default();
    let mut client = Client::new(seed);
    let mut done: Vec<Done> = Vec::new();
    let mut restarted = false;
    let mut phase_s = 0.0;
    // The throughput window leaves the restart out.
    let mut restart_s = 0.0;
    let mut n = 0u64;
    let start = Instant::now();
    while secs(start) - restart_s < seconds {
        if !restarted && secs(start) - restart_s >= seconds / 2.0 {
            let t = Instant::now();
            scrape.add(&daemon)?;
            rss = rss.max(daemon.peak_rss_mb().unwrap_or(0.0));
            daemon.stop()?;
            let s = spans.open("serve.restart", 0, 0);
            let (d, s1) = Daemon::spawn(&store)?;
            spans.close(s);
            setups.push(s1);
            daemon = d;
            restarted = true;
            phase_s = 0.0;
            restart_s = secs(t);
        }
        let (class, spec) = client.next();
        let body = client.body(&spec);
        n += 1;
        let t = Instant::now();
        let result = run_job(&daemon, &body, spans, n);
        let ms = secs(t) * 1e3;
        match result {
            Ok((deduped, doc)) => {
                let sim_s = if class == Class::Fresh {
                    let now = phase_seconds(&doc)?;
                    let delta = now - phase_s;
                    phase_s = now;
                    Some(delta)
                } else {
                    None
                };
                done.push(Done {
                    class,
                    spec,
                    ms,
                    sim_s,
                    deduped,
                    after_restart: restarted,
                    doc,
                });
            }
            Err(e) => tally.check(false, &format!("job {n}: {e}")),
        }
    }
    let window = secs(start) - restart_s;
    scrape.add(&daemon)?;
    rss = rss.max(daemon.peak_rss_mb().unwrap_or(0.0));
    daemon.stop()?;

    // Latency rows.
    let class_ms =
        |c: Class| -> Vec<f64> { done.iter().filter(|d| d.class == c).map(|d| d.ms).collect() };
    for (name, c) in [
        ("fresh_job_ms", Class::Fresh),
        ("overlap_job_ms", Class::Overlap),
        ("repeat_job_ms", Class::Repeat),
    ] {
        let v = class_ms(c);
        if v.is_empty() {
            return Err(format!("no {name} samples"));
        }
        let (p, pct) = tail(&v);
        eprintln!(
            "perfbench: {name}: {} samples, p50 {:.2} ms, p{pct:.0} {p:.2} ms",
            v.len(),
            median(&v)
        );
        m.put(format!("{name}.p50"), median(&v), "ms");
        m.put(format!("{name}.p90"), p, "ms");
    }
    m.put("jobs_per_s", done.len() as f64 / window, "1/s");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", rss, "MB");
    // The fixed set of fresh jobs: the first RATE_JOBS_PER_TYPE of each
    // job type. Each type counts at the median of its jobs' server
    // warm-up + measure seconds, so a burst of host noise over a few
    // jobs does not move the rate.
    let mut per_type: BTreeMap<(usize, &BTreeSet<usize>), Vec<f64>> = BTreeMap::new();
    for d in &done {
        if let Some(s) = d.sim_s {
            let v = per_type
                .entry((d.spec.workload, &d.spec.variants))
                .or_default();
            if v.len() < RATE_JOBS_PER_TYPE {
                v.push(s);
            }
        }
    }
    let types = WORKLOADS.len() * PAIRS.len();
    if per_type.len() < types || per_type.values().any(|v| v.len() < RATE_JOBS_PER_TYPE) {
        return Err(format!(
            "too few fresh jobs for sim_minstr_per_s: {RATE_JOBS_PER_TYPE} of each of \
             {types} job types are needed; run for longer"
        ));
    }
    let cells: usize = per_type.keys().map(|(_, variants)| variants.len()).sum();
    let sim_s: f64 = per_type.values().map(|v| median(v)).sum();
    m.put(
        "sim_minstr_per_s",
        (cells as u64 * (WARMUP + INSTRUCTIONS)) as f64 / sim_s / 1e6,
        "Minstr/s",
    );
    m.put("serve.jobs_accepted", scrape.accepted, "count");
    m.put("serve.jobs_deduped", scrape.deduped, "count");
    m.put("serve.jobs_from_cache", scrape.from_cache, "count");

    // Every key the daemon writes is new, so the entries its store holds
    // after the session are its puts.
    let puts = Store::open(StoreConfig::new(&store)).disk_entries();
    let reports = check(seed, &client, &done, tally);
    let mut docs = Vec::new();
    let mut seen = BTreeSet::new();
    for d in &done {
        if seen.insert(d.spec.clone()) {
            docs.push(d.doc.clone());
        }
    }
    Ok(Session {
        seed0: client.seeds[0],
        bodies: done.iter().map(|d| client.body(&d.spec)).collect(),
        reports,
        docs,
        store: StoreCounts {
            puts: puts as f64,
            hits: scrape.store_hits,
            misses: scrape.store_misses,
        },
    })
}

/// The executor's cumulative warm-up + measure seconds that a served
/// document reports.
fn phase_seconds(doc: &[u8]) -> Result<f64, String> {
    let text = std::str::from_utf8(doc).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let phases = doc
        .get("executor")
        .and_then(|e| e.get("phases"))
        .ok_or("document without executor phases")?;
    let get = |k: &str| {
        phases
            .get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("no {k}"))
    };
    Ok(get("warmup_seconds")? + get("measure_seconds")?)
}

/// Rows of a served document: `(cell, rendered report)`.
fn rows(spec: &Spec, doc: &[u8]) -> Result<Vec<(CellId, String)>, String> {
    let text = std::str::from_utf8(doc).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("no rows")?;
    let mut out = Vec::new();
    for row in rows {
        let label = row
            .get("variant")
            .and_then(Json::as_str)
            .ok_or("row without variant")?;
        let v = VARIANTS
            .iter()
            .position(|&l| l == label)
            .ok_or("row of an unrequested variant")?;
        let report = row.get("report").ok_or("row without report")?;
        out.push(((spec.seed, spec.workload, v), report.pretty()));
    }
    Ok(out)
}

/// Check the session's documents: every fresh cell against a direct
/// `System` run, every overlap row against the fresh result, every
/// repeat byte-for-byte against the first answer to its spec, and the
/// dedup flags against the class. Returns the direct reports.
fn check(
    seed: u64,
    client: &Client,
    done: &[Done],
    tally: &mut Tally,
) -> Vec<(String, String, RunReport)> {
    let mut cell_reports: BTreeMap<CellId, String> = BTreeMap::new();
    let mut first_doc: BTreeMap<&Spec, &[u8]> = BTreeMap::new();
    let mut direct = Vec::new();
    let mut digest_input = Vec::new();
    for d in done {
        let rows = match rows(&d.spec, &d.doc) {
            Ok(rows) => rows,
            Err(e) => {
                tally.check(false, &format!("document: {e}"));
                continue;
            }
        };
        tally.check(
            rows.len() == d.spec.variants.len(),
            "document has one row per requested cell",
        );
        match d.class {
            Class::Fresh => {
                tally.check(!d.deduped, "a fresh spec is not deduplicated");
                for (cell, served) in rows {
                    let (s, w, v) = cell;
                    let config = Variant::parse(VARIANTS[v])
                        .expect("universe variants parse")
                        .build_config(cell_config(client.seeds[s]));
                    let spec = catalog::workload(WORKLOADS[w]).expect("universe workloads exist");
                    let built = System::try_from_refs(config, &[WorkloadRef::from(spec)]);
                    let run = built.and_then(System::try_run);
                    match run {
                        Ok(r) => {
                            let ok = run_report(&r).pretty() == served;
                            tally.check(ok, &format!("served {cell:?} differs from a direct run"));
                            if digest_input.len() < 8 {
                                digest_input.push(served.clone());
                            }
                            direct.push((WORKLOADS[w].to_string(), VARIANTS[v].to_string(), r));
                        }
                        Err(e) => tally.check(false, &format!("direct run of {cell:?}: {e}")),
                    }
                    cell_reports.insert(cell, served);
                }
            }
            Class::Overlap => {
                tally.check(!d.deduped, "an overlap spec is not deduplicated");
                for (cell, served) in rows {
                    tally.check(
                        cell_reports.get(&cell) == Some(&served),
                        &format!("overlap row {cell:?} differs from its fresh result"),
                    );
                }
            }
            Class::Repeat => {
                tally.check(
                    d.deduped || d.after_restart,
                    "a repeat before the restart is deduplicated",
                );
            }
        }
        match first_doc.get(&d.spec) {
            Some(first) => tally.check(
                *first == d.doc.as_slice(),
                "a repeated spec's document differs from its first answer",
            ),
            None => {
                first_doc.insert(&d.spec, &d.doc);
            }
        }
    }
    let digest = fnv1a(digest_input.join("\n").as_bytes());
    eprintln!("perfbench: served-results digest {digest:016x}");
    if let Some(pinned) = crate::pinned_digest("serve_sweeps", seed) {
        tally.check(digest == pinned, "served results match the pinned digest");
    }
    direct
}

/// Universe cells the `--trace 1` run simulates directly (at the first
/// simulation seed) for the simulator rows and counts.
pub fn traced_cells(seed: u64) -> Vec<crate::sim::Cell> {
    let mut cells = Vec::new();
    for w in &WORKLOADS[..4] {
        let spec = catalog::workload(w).expect("universe workloads exist");
        for v in ["no-prefetch", "SPP-PSA-SD"] {
            cells.push(crate::sim::Cell {
                wref: WorkloadRef::from(spec),
                spec,
                variant: Variant::parse(v).expect("universe variants parse"),
                seed,
            });
        }
    }
    cells
}
