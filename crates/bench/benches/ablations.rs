//! Set-Dueling shape ablations (dedicated sets, Csel width).

use psa_experiments::ablations;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Ablations — Set-Dueling shape", &exec);
    let (text, doc) = ablations::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "ablations", &doc);
}
