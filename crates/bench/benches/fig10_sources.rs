//! Figure 10: sources of improvement (latency, coverage, accuracy).

use psa_experiments::fig10;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 10", &exec);
    let (text, doc) = fig10::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig10", &doc);
}
