//! Prints the series of every figure in the RankSQL paper's evaluation
//! section (Figures 12(a)–(d) and 13).
//!
//! By default a scaled-down configuration is used so the whole run finishes
//! in a couple of minutes on a laptop; pass `--full` to use the paper-scale
//! parameters (s up to 1 000 000 tuples per table — this takes a while).
//! Pass `--json <path>` to also dump the raw series as one JSON object keyed
//! by figure id (`fig12a` … `fig13`).

use std::collections::BTreeMap;

use ranksql_bench::experiments::fig13_to_json;
use ranksql_bench::{run_fig12a, run_fig12b, run_fig12c, run_fig12d, run_fig13};
use ranksql_workload::SyntheticConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (base, ks, costs, sels, sizes) = if full {
        (
            SyntheticConfig::default(), // s = 100 000, j = 0.0001, c = 1, k = 10
            vec![1usize, 10, 100, 1000],
            vec![0u64, 1, 10, 100, 1000],
            vec![0.00001, 0.0001, 0.001],
            vec![10_000usize, 100_000, 1_000_000],
        )
    } else {
        (
            SyntheticConfig {
                table_size: 5_000,
                join_selectivity: 0.002,
                predicate_cost: 1,
                k: 10,
                ..SyntheticConfig::default()
            },
            vec![1usize, 10, 100, 1000],
            vec![0u64, 1, 10, 100, 1000],
            vec![0.0002, 0.002, 0.02],
            vec![1_000usize, 5_000, 20_000],
        )
    };

    println!(
        "RankSQL paper experiments ({} configuration)\n\
         base parameters: s = {}, j = {}, c = {}, k = {}\n",
        if full {
            "full paper-scale"
        } else {
            "scaled-down"
        },
        base.table_size,
        base.join_selectivity,
        base.predicate_cost,
        base.k
    );

    let mut json = BTreeMap::new();

    println!("==== Figure 12(a): execution time vs k ====");
    let a = run_fig12a(&base, &ks).expect("fig12a");
    println!("{}", a.to_table());
    json.insert("fig12a", a.to_json());

    println!("==== Figure 12(b): execution time vs predicate cost c ====");
    let b = run_fig12b(&base, &costs).expect("fig12b");
    println!("{}", b.to_table());
    json.insert("fig12b", b.to_json());

    println!("==== Figure 12(c): execution time vs join selectivity j ====");
    let c = run_fig12c(&base, &sels).expect("fig12c");
    println!("{}", c.to_table());
    json.insert("fig12c", c.to_json());

    println!("==== Figure 12(d): execution time vs table size s (plans 2-4) ====");
    let d = run_fig12d(&base, &sizes).expect("fig12d");
    println!("{}", d.to_table());
    json.insert("fig12d", d.to_json());

    println!("==== Figure 13: real vs estimated operator output cardinalities ====");
    let ratio = if full { 0.001 } else { 0.02 };
    let rows = run_fig13(&base, ratio).expect("fig13");
    println!(
        "{:<6} {:>3}  {:<28} {:>12} {:>12}",
        "plan", "op", "operator", "real", "estimated"
    );
    for r in &rows {
        println!(
            "{:<6} {:>3}  {:<28} {:>12} {:>12.1}",
            r.plan, r.operator_index, r.operator, r.real, r.estimated
        );
    }
    json.insert("fig13", fig13_to_json(&rows));

    if let Some(path) = json_path {
        let body: Vec<String> = json
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write json");
        println!("\nraw series written to {path}");
    }
}
