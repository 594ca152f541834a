//! Figure 11: selection-logic ablation + ISO storage.

use psa_experiments::fig11;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 11", &exec);
    let (text, doc) = fig11::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig11", &doc);
}
