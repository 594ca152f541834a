//! Figure 16: Pangloss and DSPatch vs SPP across the PSA policy matrix.

use psa_experiments::fig16;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 16", &exec);
    let (text, doc) = fig16::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig16", &doc);
}
