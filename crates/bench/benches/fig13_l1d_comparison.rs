//! Figure 13: comparison with state-of-the-art L1D prefetching.

use psa_experiments::fig13;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 13", &exec);
    let (text, doc) = fig13::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig13", &doc);
}
