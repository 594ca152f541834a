//! Figure 8: per-workload speedups of the SPP PSA variants.

use psa_experiments::fig08;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 8", &exec);
    let (text, doc) = fig08::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig08", &doc);
}
