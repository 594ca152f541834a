//! Figure 12: constrained evaluation (MSHR / LLC / DRAM sweeps).

use psa_experiments::fig12;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 12", &exec);
    let (text, doc) = fig12::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig12", &doc);
}
