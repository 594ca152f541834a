//! Figures 4 & 5: the motivation study (SPP vs magic page-size awareness).

use psa_experiments::fig0405;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Figures 4 & 5", &exec);
    let (text, doc) = fig0405::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "fig0405", &doc);
}
