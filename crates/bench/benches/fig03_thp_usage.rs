//! Figure 3: memory mapped in 2MB pages across execution.

use psa_experiments::fig03;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 3", &exec);
    let (text, doc) = fig03::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig03", &doc);
}
