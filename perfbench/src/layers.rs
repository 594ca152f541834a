//! The per-layer harness: each simulator workload's stream is captured
//! once through the layers' public APIs — `WorkloadSource` →
//! `AddressSpace`/`Mmu` → `Cache` → `PsaModule` → `Dram` — and then each
//! layer's own captured input is replayed into a fresh instance of that
//! layer, timed in ns per call. The store, spec-parse, document-render
//! and request-handling rows replay the workload's own payloads.

use crate::serve::Daemon;
use crate::util::{median, secs, Metrics, Spans, Tally, WorkDir};
use psa_cache::{Cache, FillKind, Mshr, MshrEntry, MshrMeta};
use psa_common::{PLine, PageSize, VAddr};
use psa_core::{Candidate, ModuleConfig, PageSizePolicy, PageSizeSource, SdConfig};
use psa_cpu::InstrKind;
use psa_dram::Dram;
use psa_experiments::service::SweepSpec;
use psa_prefetchers::{ModuleSpec, PrefetcherKind};
use psa_serve::http::Request;
use psa_serve::jobs::JobQueue;
use psa_serve::metrics::Metrics as ServeMetrics;
use psa_sim::report::{run_report, sim_config, Json};
use psa_sim::{RunReport, SimConfig, TraceRef, WorkloadRef};
use psa_store::{EntryKind, Store, StoreConfig, Tier};
use psa_traces::format::verify_file;
use psa_traces::{TraceReader, WorkloadSource, WorkloadSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instructions captured per workload.
const CAPTURE: u64 = 150_000;
/// Timed repetitions per row; the row is their median.
const REPS: usize = 5;

/// One memory access after translation.
#[derive(Clone, Copy)]
struct Access {
    vaddr: VAddr,
    line: PLine,
    write: bool,
}

/// One L2C access as the prefetching module sees it.
#[derive(Clone, Copy)]
struct L2Access {
    line: PLine,
    pc: VAddr,
    hit: bool,
    size: PageSize,
    set: usize,
}

/// One workload's captured streams.
struct Capture {
    instructions: u64,
    accesses: Vec<Access>,
    l1d_misses: Vec<(PLine, bool)>,
    l2c: Vec<L2Access>,
    l2c_misses: Vec<PLine>,
    llc_misses: Vec<(PLine, bool)>,
    dtlb_misses: u64,
    walks: u64,
}

/// Median over `REPS` runs of `f`, which returns (seconds, ops); in ns/op.
fn ns_per_op(mut f: impl FnMut() -> (f64, usize)) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (s, n) = f();
            s * 1e9 / n.max(1) as f64
        })
        .collect();
    median(&v)
}

/// Capture `spec`'s stream under `config` (core 0's seeds).
fn capture(config: &SimConfig, spec: &WorkloadSpec) -> Capture {
    let mut source = WorkloadRef::from(spec)
        .build_source(config.seed)
        .expect("synthetic sources are infallible");
    let mut aspace = psa_vmem::AddressSpace::new(psa_vmem::AspaceConfig {
        huge_fraction: spec.huge_fraction,
        seed: config.seed,
    });
    let mut phys = psa_vmem::PhysMem::new(config.phys, config.seed).expect("Table I memory");
    let mut mmu = psa_vmem::Mmu::new(config.mmu).expect("Table I MMU");
    let mut l1d = Cache::new(config.l1d).expect("Table I L1D");
    let mut l2c = Cache::new(config.l2c).expect("Table I L2C");
    let mut llc = Cache::new(config.llc).expect("Table I LLC");
    let mut c = Capture {
        instructions: CAPTURE,
        accesses: Vec::new(),
        l1d_misses: Vec::new(),
        l2c: Vec::new(),
        l2c_misses: Vec::new(),
        llc_misses: Vec::new(),
        dtlb_misses: 0,
        walks: 0,
    };
    for _ in 0..CAPTURE {
        let instr = source
            .next_instr()
            .expect("synthetic sources are infallible");
        let (vaddr, write) = match instr.kind {
            InstrKind::Op => continue,
            InstrKind::Load { vaddr, .. } => (vaddr, false),
            InstrKind::Store { vaddr } => (vaddr, true),
        };
        let t = mmu
            .translate(&mut aspace, &mut phys, vaddr)
            .expect("physical memory suffices");
        let line = t.paddr.line();
        c.accesses.push(Access { vaddr, line, write });
        if l1d.probe(line).is_some() {
            continue;
        }
        l1d.fill(line, FillKind::Demand, write);
        c.l1d_misses.push((line, t.size == PageSize::Size2M));
        let hit = l2c.probe(line).is_some();
        c.l2c.push(L2Access {
            line,
            pc: instr.pc,
            hit,
            size: t.size,
            set: l2c.set_of(line),
        });
        if hit {
            continue;
        }
        l2c.fill(line, FillKind::Demand, false);
        c.l2c_misses.push(line);
        if llc.probe(line).is_none() {
            llc.fill(line, FillKind::Demand, false);
            c.llc_misses.push((line, write));
        }
    }
    c.dtlb_misses = mmu.dtlb_stats().misses;
    c.walks = mmu.stats().walks;
    c
}

/// Time a workload source: ns per `next_instr`.
fn time_source(mut make: impl FnMut() -> Box<dyn WorkloadSource>) -> f64 {
    ns_per_op(|| {
        let mut src = make();
        let t = Instant::now();
        for _ in 0..CAPTURE {
            black_box(src.next_instr().expect("sources replay without error"));
        }
        (secs(t), CAPTURE as usize)
    })
}

/// Inputs to the harness beyond the simulator streams.
pub struct Inputs<'a> {
    /// Base configuration of the workload.
    pub config: SimConfig,
    /// The synthetic workloads behind the workload's cells.
    pub specs: Vec<&'static WorkloadSpec>,
    /// Warm-up snapshots of the workload's cells.
    pub snapshots: &'a [Vec<u8>],
    /// The workload's reports, with their workload/variant labels.
    pub reports: Vec<(String, String, RunReport)>,
    /// The workload's sweep-spec request bodies.
    pub bodies: Vec<String>,
    /// Served documents (serve workload) — rendered from `reports`
    /// otherwise.
    pub docs: Vec<Vec<u8>>,
    /// The daemon's store counts (serve workload); the harness's own
    /// otherwise.
    pub store_counts: Option<StoreCounts>,
}

/// Store operation counts.
#[derive(Clone, Copy)]
pub struct StoreCounts {
    /// Entries written.
    pub puts: f64,
    /// Lookups served, from either tier.
    pub hits: f64,
    /// Lookups that found no usable entry.
    pub misses: f64,
}

/// Run every per-layer row over `inp`, recording spans around the store
/// and request calls.
pub fn run(
    inp: &Inputs,
    work: &WorkDir,
    with_queue_counts: bool,
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<(), String> {
    let root = spans.open("harness", 0, 0);
    let config = inp.config;
    let captures: Vec<Capture> = inp.specs.iter().map(|s| capture(&config, s)).collect();
    let instr: u64 = captures.iter().map(|c| c.instructions).sum();

    // traces
    let gen: Vec<f64> = inp
        .specs
        .iter()
        .map(|s| {
            time_source(|| {
                WorkloadRef::from(*s)
                    .build_source(config.seed)
                    .expect("synthetic sources are infallible")
            })
        })
        .collect();
    m.put("traces.gen.ns_per_instr", median(&gen), "ns");
    let mut replay = Vec::new();
    let mut verify = Vec::new();
    for spec in &inp.specs {
        let path = &work.file(&format!("harness-{}.psatrace", spec.name));
        crate::sim::record(spec, config.seed, CAPTURE + 1, path)?;
        let t = Instant::now();
        let s = spans.open("traces.open_verify", root, 0);
        let ok = verify_file(path).is_ok();
        spans.close(s);
        verify.push(secs(t) * 1e3);
        tally.check(ok, &format!("verify {path}"));
        let tref = TraceRef::open(path).map_err(|e| format!("{path}: {e}"))?;
        replay.push(time_source(|| {
            Box::new(TraceReader::open(&tref).expect("a verified recording opens"))
        }));
    }
    m.put("traces.replay.ns_per_instr", median(&replay), "ns");
    m.put("traces.open_verify_ms", median(&verify), "ms");

    // vmem
    let translate: Vec<f64> = inp
        .specs
        .iter()
        .zip(&captures)
        .map(|(spec, c)| {
            ns_per_op(|| {
                let mut aspace = psa_vmem::AddressSpace::new(psa_vmem::AspaceConfig {
                    huge_fraction: spec.huge_fraction,
                    seed: config.seed,
                });
                let mut phys =
                    psa_vmem::PhysMem::new(config.phys, config.seed).expect("Table I memory");
                let mut mmu = psa_vmem::Mmu::new(config.mmu).expect("Table I MMU");
                let t = Instant::now();
                for a in &c.accesses {
                    let out = mmu
                        .translate(&mut aspace, &mut phys, a.vaddr)
                        .expect("physical memory suffices");
                    black_box(out.paddr);
                }
                (secs(t), c.accesses.len())
            })
        })
        .collect();
    m.put("vmem.translate.ns_per_op", median(&translate), "ns");
    let per_ki = |f: &dyn Fn(&Capture) -> u64| {
        captures.iter().map(f).sum::<u64>() as f64 * 1e3 / instr as f64
    };
    m.put("vmem.dtlb_miss_pki", per_ki(&|c| c.dtlb_misses), "1/kinstr");
    m.put("vmem.page_walks_pki", per_ki(&|c| c.walks), "1/kinstr");

    // cache
    let per_capture = |f: &dyn Fn(&Capture) -> f64| -> f64 {
        median(&captures.iter().map(f).collect::<Vec<_>>())
    };
    let demand = |cache_config, stream: &[(PLine, bool)]| {
        ns_per_op(|| {
            let mut cache = Cache::new(cache_config).expect("Table I shape");
            let t = Instant::now();
            for &(line, write) in stream {
                if cache.probe(line).is_none() {
                    black_box(cache.fill(line, FillKind::Demand, write));
                }
            }
            (secs(t), stream.len())
        })
    };
    m.put(
        "cache.l1d.probe.ns_per_op",
        per_capture(&|c| {
            let s: Vec<(PLine, bool)> = c.accesses.iter().map(|a| (a.line, a.write)).collect();
            demand(config.l1d, &s)
        }),
        "ns",
    );
    m.put(
        "cache.l2c.probe.ns_per_op",
        per_capture(&|c| {
            let s: Vec<(PLine, bool)> = c.l2c.iter().map(|a| (a.line, false)).collect();
            demand(config.l2c, &s)
        }),
        "ns",
    );
    m.put(
        "cache.llc.fill.ns_per_op",
        per_capture(&|c| {
            ns_per_op(|| {
                let mut llc = Cache::new(config.llc).expect("Table I LLC");
                let t = Instant::now();
                for &line in &c.l2c_misses {
                    black_box(llc.fill(line, FillKind::Demand, false));
                }
                (secs(t), c.l2c_misses.len())
            })
        }),
        "ns",
    );
    m.put(
        "cache.mshr.alloc_drain.ns_per_op",
        per_capture(&|c| mshr_ns(config.l1d.mshr_entries, &c.l1d_misses)),
        "ns",
    );

    // prefetchers (through the PSA module)
    let policies = [
        ("orig", PageSizePolicy::Original),
        ("psa", PageSizePolicy::Psa),
        ("psa2m", PageSizePolicy::Psa2m),
        ("psasd", PageSizePolicy::PsaSd),
    ];
    for (tag, policy) in policies {
        m.put(
            format!("prefetchers.SPP.{tag}.on_access.ns_per_op"),
            per_capture(&|c| module_ns(&config, PrefetcherKind::Spp, policy, &c.l2c)),
            "ns",
        );
    }
    for kind in [
        PrefetcherKind::Bop,
        PrefetcherKind::Vldp,
        PrefetcherKind::Dspatch,
        PrefetcherKind::Pangloss,
    ] {
        m.put(
            format!("prefetchers.{}.psasd.on_access.ns_per_op", kind.name()),
            per_capture(&|c| module_ns(&config, kind, PageSizePolicy::PsaSd, &c.l2c)),
            "ns",
        );
    }

    // dram
    m.put(
        "dram.access.ns_per_op",
        per_capture(&|c| {
            ns_per_op(|| {
                let mut dram = Dram::new(config.dram).expect("Table I DRAM");
                let mut now = 0u64;
                let t = Instant::now();
                for &(line, write) in &c.llc_misses {
                    now += 40;
                    black_box(dram.access(line, now, write));
                }
                (secs(t), c.llc_misses.len())
            })
        }),
        "ns",
    );

    store_rows(inp, work, m, tally, spans, root)?;
    request_rows(inp, with_queue_counts, m, tally, spans, root)?;
    spans.close(root);
    Ok(())
}

/// MSHR traffic: allocate each L1D miss (merging into a pending entry
/// for the same line) and drain whatever has filled.
fn mshr_ns(capacity: usize, misses: &[(PLine, bool)]) -> f64 {
    ns_per_op(|| {
        let mut mshr = Mshr::new(capacity);
        let mut drained: Vec<MshrEntry> = Vec::with_capacity(capacity);
        let mut now = 0u64;
        let t = Instant::now();
        for &(line, huge) in misses {
            now += 8;
            if mshr.pending(line).is_some() {
                mshr.merge(line, true, false, now);
            } else {
                if mshr.is_full() {
                    now = now.max(mshr.earliest_fill().unwrap_or(now));
                    mshr.drain_filled_into(now, &mut drained);
                }
                let _ = mshr.alloc(line, now + 200, MshrMeta::demand(huge));
            }
            mshr.drain_filled_into(now, &mut drained);
            drained.clear();
        }
        (secs(t), misses.len())
    })
}

/// `PsaModule::on_access` over the L2C stream.
fn module_ns(
    config: &SimConfig,
    kind: PrefetcherKind,
    policy: PageSizePolicy,
    stream: &[L2Access],
) -> f64 {
    let absent = |_: &Candidate| false;
    ns_per_op(|| {
        let mut module = ModuleSpec::pref(kind, policy)
            .build_module(
                config.l2c.sets() as usize,
                SdConfig::default(),
                ModuleConfig::default(),
                PageSizeSource::Ppm,
                false,
            )
            .expect("valid module shape")
            .expect("a prefetcher builds a module");
        let mut out = Vec::with_capacity(8);
        let t = Instant::now();
        for a in stream {
            module.on_access(
                a.line,
                a.pc,
                a.hit,
                a.size == PageSize::Size2M,
                a.size,
                a.set,
                &absent,
                &mut out,
            );
            black_box(&out);
            out.clear();
        }
        (secs(t), stream.len())
    })
}

/// The store rows: put the workload's snapshots, reports and documents,
/// read them back from memory and from disk, look up absent keys, and
/// reopen (recover) the store.
fn store_rows(
    inp: &Inputs,
    work: &WorkDir,
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
    root: u32,
) -> Result<(), String> {
    let dir = work.path.join("harness-store");
    let docs = documents(inp);
    let mut payloads: Vec<(EntryKind, u64, Arc<Vec<u8>>)> = Vec::new();
    for (i, s) in inp.snapshots.iter().enumerate() {
        payloads.push((EntryKind::Warmup, i as u64, Arc::new(s.clone())));
    }
    for (i, (_, _, r)) in inp.reports.iter().enumerate() {
        payloads.push((EntryKind::Report, i as u64, Arc::new(r.to_store_bytes())));
    }
    for (i, d) in docs.iter().enumerate() {
        payloads.push((EntryKind::Document, i as u64, Arc::new(d.clone())));
    }
    let mut counts = StoreCounts {
        puts: 0.0,
        hits: 0.0,
        misses: 0.0,
    };
    let mut put_us = Vec::new();
    let mut mem_us = Vec::new();
    let mut disk_us = Vec::new();
    let mut open_ms = Vec::new();
    let mut store = Store::open(StoreConfig::new(&dir));
    for (kind, key, payload) in &payloads {
        let t = Instant::now();
        let s = spans.open("store.put", root, *key);
        let ok = store.put(*kind, *key, Arc::clone(payload)).is_ok();
        spans.close(s);
        put_us.push(secs(t) * 1e6);
        counts.puts += 1.0;
        tally.check(ok, "store put");
    }
    let mut read_all = |store: &mut Store, tier: Tier, out: &mut Vec<f64>, spans: &mut Spans| {
        for (kind, key, payload) in &payloads {
            let t = Instant::now();
            let s = spans.open("store.get", root, *key);
            let got = store.get(*kind, *key);
            spans.close(s);
            out.push(secs(t) * 1e6);
            match &got {
                Some(_) => counts.hits += 1.0,
                None => counts.misses += 1.0,
            }
            tally.check(
                got.is_some_and(|(bytes, t)| bytes == *payload && t == tier),
                "store returns what was put, from the expected tier",
            );
        }
    };
    read_all(&mut store, Tier::Memory, &mut mem_us, spans);
    store.clear_memory();
    read_all(&mut store, Tier::Disk, &mut disk_us, spans);
    for key in 0..payloads.len() as u64 {
        let s = spans.open("store.get", root, key);
        let got = store.get(EntryKind::Report, u64::MAX - key);
        spans.close(s);
        counts.misses += 1.0;
        tally.check(got.is_none(), "an absent key misses");
    }
    drop(store);
    for _ in 0..3 {
        let t = Instant::now();
        let s = spans.open("store.open_recover", root, 0);
        let store = Store::open(StoreConfig::new(&dir));
        spans.close(s);
        open_ms.push(secs(t) * 1e3);
        tally.check(
            store.disk_entries() == payloads.len(),
            "recovery keeps every entry",
        );
    }
    m.put("store.put.us_per_op", median(&put_us), "us");
    m.put("store.get_mem.us_per_op", median(&mem_us), "us");
    m.put("store.get_disk.us_per_op", median(&disk_us), "us");
    m.put("store.open_recover_ms", median(&open_ms), "ms");
    // The counts are the workload's own store traffic where it has any
    // (the daemon's); else the harness's, fixed by the payload count.
    let counts = inp.store_counts.unwrap_or(counts);
    m.put("store.puts", counts.puts, "count");
    m.put("store.hits", counts.hits, "count");
    m.put("store.misses", counts.misses, "count");
    Ok(())
}

/// The documents of the workload: served ones, or rendered from its
/// reports.
fn documents(inp: &Inputs) -> Vec<Vec<u8>> {
    if inp.docs.is_empty() {
        vec![render(inp).into_bytes()]
    } else {
        inp.docs.clone()
    }
}

/// Render the workload's reports as a BENCH-style document.
fn render(inp: &Inputs) -> String {
    let rows = inp
        .reports
        .iter()
        .map(|(w, v, r)| {
            Json::obj([
                ("workload", Json::str(w.as_str())),
                ("variant", Json::str(v.as_str())),
                ("report", run_report(r)),
            ])
        })
        .collect();
    Json::obj([
        ("config", sim_config(&inp.config)),
        ("rows", Json::Arr(rows)),
    ])
    .pretty()
}

/// Spec parsing, document rendering and request handling, in process.
fn request_rows(
    inp: &Inputs,
    with_queue_counts: bool,
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
    root: u32,
) -> Result<(), String> {
    let mut parse_us = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let s = spans.open("service.spec_parse", root, 0);
        for body in &inp.bodies {
            let ok = SweepSpec::from_body(body.as_bytes()).is_ok();
            tally.check(ok, "the workload's spec parses");
        }
        spans.close(s);
        parse_us.push(secs(t) * 1e6 / inp.bodies.len() as f64);
    }
    m.put("service.spec_parse.us_per_op", median(&parse_us), "us");
    let mut render_us = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(render(inp));
        render_us.push(secs(t) * 1e6);
    }
    m.put("report.doc_render.us_per_op", median(&render_us), "us");

    // `api::handle` on an in-process queue: one small job of the
    // workload, then its request mix (dedup submit, status, result,
    // health) replayed.
    let spec = inp.specs[0];
    let body = format!(
        "{{\"figure\": \"fig08\", \"workloads\": [\"{}\"], \"variants\": [\"SPP-PSA-SD\"], \
         \"seed\": {}, \"warmup\": 1000, \"instructions\": 1000}}",
        spec.name, inp.config.seed
    );
    let (queue, workers) = JobQueue::start(8, 1, Duration::ZERO, Arc::new(ServeMetrics::new(8)));
    let req = |method: &str, path: &str, body: &[u8]| Request {
        method: method.into(),
        path: path.into(),
        body: body.to_vec(),
    };
    let first = psa_serve::api::handle(&queue, &req("POST", "/jobs", body.as_bytes()));
    tally.check(first.status == 202, "the first submit is accepted");
    let waited = Instant::now();
    while queue.outstanding() > 0 && waited.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mix = [
        req("POST", "/jobs", body.as_bytes()),
        req("GET", "/jobs/j1", b""),
        req("GET", "/results/j1", b""),
        req("GET", "/healthz", b""),
    ];
    let mut handle_us = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let s = spans.open("serve.handle", root, 1);
        for _ in 0..50 {
            for r in &mix {
                let resp = psa_serve::api::handle(&queue, r);
                tally.check(resp.status == 200, "handled request succeeds");
            }
        }
        spans.close(s);
        handle_us.push(secs(t) * 1e6 / (50 * mix.len()) as f64);
    }
    let handle = median(&handle_us);
    m.put("serve.handle.us_per_op", handle, "us");
    if with_queue_counts {
        use std::sync::atomic::Ordering::Relaxed;
        m.put(
            "serve.jobs_accepted",
            queue.metrics.jobs_accepted.load(Relaxed) as f64,
            "count",
        );
        m.put(
            "serve.jobs_deduped",
            queue.metrics.jobs_deduped.load(Relaxed) as f64,
            "count",
        );
        m.put(
            "serve.jobs_from_cache",
            queue.metrics.jobs_from_cache.load(Relaxed) as f64,
            "count",
        );
    }
    queue.begin_shutdown();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// `serve.http_rtt_ms`: median `GET /healthz` round trip against a
/// daemon over an empty store, and its gap to the in-process handle time.
pub fn http_rtt(work: &WorkDir, m: &mut Metrics, spans: &mut Spans) -> Result<(), String> {
    let (daemon, _) = Daemon::spawn(&work.path.join("rtt-store"))?;
    let mut rtt = Vec::new();
    for i in 0..40 {
        let t = Instant::now();
        let s = spans.open("http.healthz", 0, i);
        let resp = daemon.get("/healthz")?;
        spans.close(s);
        rtt.push(secs(t) * 1e3);
        if resp.status != 200 {
            return Err(format!("healthz: HTTP {}", resp.status));
        }
    }
    daemon.stop()?;
    let rtt = median(&rtt);
    m.put("serve.http_rtt_ms", rtt, "ms");
    let handle_ms = m.get("serve.handle.us_per_op").unwrap_or(0.0) / 1e3;
    m.put("serve.rtt_minus_handle_ms", rtt - handle_ms, "ms");
    Ok(())
}
