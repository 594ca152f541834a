//! End-to-end: a sweep submitted to a live server over real sockets
//! yields a BENCH document whose stable sections (everything before the
//! per-process `executor` block) are byte-identical to a direct
//! [`RunCache::run_batch`] of the same spec through the public runner
//! primitives — the server adds transport and queueing, never drift.

mod common;

use psa_experiments::runner::RunCache;
use psa_experiments::service::SweepSpec;
use psa_experiments::{Executor, RunnerOptions};
use psa_serve::ServerConfig;
use psa_sim::report::Json;
use std::time::Duration;

const SPEC: &str = r#"{"figure": "fig08", "workloads": ["lbm", "mcf"],
    "variants": ["SPP", "no-prefetch"], "seed": 11,
    "warmup": 300, "instructions": 900}"#;

/// The document bytes before the `"executor"` key: schema version,
/// figure, title, config, rows and failures — everything reproducible
/// from the spec alone.
fn stable_prefix(doc: &[u8]) -> &[u8] {
    let needle = b"\"executor\"";
    let pos = doc
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("document has an executor section");
    &doc[..pos]
}

#[test]
fn served_document_matches_direct_run_batch_byte_for_byte() {
    let (server, addr) = common::spawn(ServerConfig::default());
    assert_eq!(common::get(&addr, "/healthz").status, 200);

    let submit = common::post(&addr, "/jobs", SPEC);
    assert_eq!(submit.status, 202, "{}", submit.text());
    let body = common::json(&submit);
    assert!(matches!(body.get("deduped"), Some(Json::Bool(false))));
    let id = common::submitted_id(&submit);
    assert_eq!(
        body.get("result_url").and_then(Json::as_str),
        Some(format!("/results/{id}").as_str())
    );

    let status = common::wait_done(&addr, &id, Duration::from_secs(300));
    assert_eq!(
        status.get("completed").and_then(Json::as_f64),
        status.get("total").and_then(Json::as_f64),
        "progress reaches completion: {}",
        status.pretty()
    );
    assert_eq!(status.get("total").and_then(Json::as_f64), Some(4.0));
    assert!(matches!(status.get("from_cache"), Some(Json::Bool(false))));
    assert!(matches!(status.get("clean"), Some(Json::Bool(true))));

    let result = common::get(&addr, &format!("/results/{id}"));
    assert_eq!(result.status, 200);
    let served = result.body;
    server.shutdown();

    // The same spec through the primitives the server wraps: one
    // run_batch over the workload x variant cross product on an executor
    // from the same (default) options, rendered as the cache's document.
    let spec = SweepSpec::from_body(SPEC.as_bytes()).expect("the spec is valid");
    let exec = Executor::new(RunnerOptions::default());
    let mut cache = RunCache::new(&exec, spec.config(exec.config));
    let jobs: Vec<_> = spec
        .workloads
        .iter()
        .flat_map(|&w| spec.variants.iter().map(move |&v| (w, v)))
        .collect();
    cache.run_batch(&jobs);
    let direct = cache
        .doc(&spec.figure, &spec.title(), cache.runs_json())
        .pretty()
        .into_bytes();

    let served_stable = stable_prefix(&served);
    let direct_stable = stable_prefix(&direct);
    let text = std::str::from_utf8(served_stable).expect("document is UTF-8");
    for section in [
        "\"schema_version\"",
        "\"figure\"",
        "\"title\"",
        "\"config\"",
        "\"rows\"",
        "\"failures\"",
    ] {
        assert!(text.contains(section), "{section} is in the stable prefix");
    }
    assert_eq!(
        served_stable, direct_stable,
        "served and direct stable sections are byte-identical"
    );
}
