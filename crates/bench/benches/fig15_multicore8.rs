//! Figure 15: 8-core weighted speedups over random mixes.

use psa_experiments::fig1415;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figure 15 (8-core)", &exec);
    println!(
        "mixes: {} (PSA_MIXES to scale; the paper uses 100)\n",
        exec.mixes()
    );
    let (text, doc) = fig1415::report(&exec, 8);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig15", &doc);
}
