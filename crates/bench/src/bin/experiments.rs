//! Experiment runner: regenerates the quantitative claims of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run -p oblisched_bench --bin experiments --release             # all experiments
//! cargo run -p oblisched_bench --bin experiments --release -- --exp e3 # one experiment
//! cargo run -p oblisched_bench --bin experiments --release -- --json out.json
//! ```

#![forbid(unsafe_code)]

use oblisched_bench::{all_experiments, run_experiment, Experiment, Table};
use std::time::Instant;

const USAGE: &str = "usage: experiments [--exp e1..e11]... [--json FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<Experiment> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                let id = args.get(i).map(String::as_str).unwrap_or("");
                match Experiment::parse(id) {
                    Some(e) => selected.push(e),
                    None => {
                        eprintln!("unknown experiment id '{id}' (expected e1..e11)");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json_path = Some(path.clone()),
                    None => {
                        eprintln!("--json needs a FILE\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if selected.is_empty() {
        selected = all_experiments();
    }

    let mut tables: Vec<Table> = Vec::new();
    for exp in selected {
        let start = Instant::now();
        let mut table = run_experiment(exp);
        table.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        println!("{table}");
        println!("(completed in {:.1}ms)\n", table.wall_ms);
        tables.push(table);
    }

    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&tables) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote machine-readable results to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialise results: {e}");
                std::process::exit(1);
            }
        }
    }
}
