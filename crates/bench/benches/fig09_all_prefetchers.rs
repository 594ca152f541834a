//! Figure 9: per-suite geomeans for all four prefetchers.

use psa_experiments::fig09;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 9", &exec);
    let (text, doc) = fig09::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig09", &doc);
}
