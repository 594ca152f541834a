//! Table I: the simulated system configuration.

use psa_experiments::runner;
use psa_sim::Json;

fn main() {
    let exec = psa_bench::executor();
    psa_bench::banner("Table I — system configuration", &exec);
    println!("{}", exec.config.table1());
    let doc = runner::doc("table1", "system configuration", &exec, Json::Arr(vec![]));
    psa_bench::emit_json(&exec, "table1", &doc);
}
