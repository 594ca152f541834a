//! Trace replay: the SPP ladder over a streamed `.psatrace` recording
//! (the committed sample fixture, or `PSA_TRACE_FILE`).

use psa_experiments::trace_replay;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Trace replay", &exec);
    let (text, doc) = trace_replay::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "trace_replay", &doc);
}
