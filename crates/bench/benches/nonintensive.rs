//! §VI-B1: the non-intensive workload augmentation ("no harm" check).

use psa_experiments::nonintensive;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("§VI-B1 non-intensive augmentation", &exec);
    let (text, doc) = nonintensive::report(&exec);
    println!("{text}");
    psa_bench::emit_json(&exec, "nonintensive", &doc);
}
