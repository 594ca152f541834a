//! Figure 2: probability a prefetch is discarded for crossing 4KB inside a
//! 2MB page, for the original prefetchers.

use psa_experiments::fig02;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 2", &exec);
    let (text, doc) = fig02::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig02", &doc);
}
