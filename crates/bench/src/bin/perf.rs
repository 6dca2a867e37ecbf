//! Perf-trajectory runner: times the pinned hot-path suite and gates
//! regressions against a committed `BENCH_<date>.json` baseline.
//!
//! Usage:
//!
//! ```text
//! # Regenerate the committed baseline (full suite):
//! cargo run -p oblisched_bench --bin perf --release -- \
//!     --date 2026-08-08 --out BENCH_2026-08-08.json
//!
//! # Gate a change against the committed baseline (smoke suite in CI):
//! PERF_SMOKE=1 cargo run -p oblisched_bench --bin perf --release -- \
//!     --check BENCH_2026-08-08.json
//!
//! # Print the README "Performance" table of a committed report (runs
//! # nothing):
//! cargo run -p oblisched_bench --bin perf --release -- \
//!     --readme-table BENCH_2026-08-08.json
//! ```
//!
//! Environment:
//!
//! * `PERF_SMOKE=1` — run the scaled-down smoke suite (tier-1 CI time).
//! * `PERF_REPEATS=N` — override the per-case repeat counts.
//! * `PERF_FINGERPRINT_SALT=N` — XOR the salt into every fingerprint; only
//!   used by CI's negative control to prove the gate trips on a
//!   slowdown-free fingerprint change.

#![forbid(unsafe_code)]

use oblisched_bench::perf::{compare, readme_table, run_suite, PerfReport};

/// Reads and parses a committed report, exiting 1 on failure.
fn load_report(path: &str) -> PerfReport {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("failed to read report {path}: {e}");
            std::process::exit(1);
        }
    };
    match serde_json::from_str(&raw) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("failed to parse report {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut date = "unpinned".to_string();
    let mut notes: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned();
            }
            "--check" => {
                i += 1;
                check_path = args.get(i).cloned();
            }
            "--readme-table" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--readme-table needs a BENCH file");
                    std::process::exit(2);
                };
                let name = std::path::Path::new(path)
                    .file_name()
                    .map_or(path.clone(), |n| n.to_string_lossy().into_owned());
                print!("{}", readme_table(&load_report(path), &name));
                return;
            }
            "--date" => {
                i += 1;
                if let Some(d) = args.get(i) {
                    date = d.clone();
                }
            }
            "--note" => {
                i += 1;
                if let Some(n) = args.get(i) {
                    notes.push(n.clone());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: perf [--out FILE] [--check BASELINE] [--date ISO] [--note TEXT]... \
                     | perf --readme-table BENCH_FILE"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let smoke = std::env::var("PERF_SMOKE").is_ok_and(|v| v == "1");
    // A committed baseline must cover both suite shapes: CI's smoke gate
    // compares against the same file the full regeneration writes, so
    // `--out` always runs full + smoke regardless of `PERF_SMOKE`.
    let cases = if out_path.is_some() {
        eprintln!("running full + smoke perf suites (baseline regeneration)...");
        let mut cases = run_suite(false);
        cases.extend(run_suite(true));
        cases
    } else {
        eprintln!(
            "running {} perf suite...",
            if smoke { "smoke" } else { "full" }
        );
        run_suite(smoke)
    };
    for case in &cases {
        println!(
            "{:<28} median {:>10.1} ms   min {:>10.1} ms   colors {:>4}   fp {}",
            case.id, case.median_ms, case.min_ms, case.colors, case.fingerprint
        );
    }

    if let Some(path) = &check_path {
        let baseline = load_report(path);
        let (failures, skipped) = compare(&cases, &baseline);
        for s in &skipped {
            eprintln!("note: {s}");
        }
        if failures.is_empty() {
            println!(
                "perf gate green against {path} ({} cases compared)",
                cases.len() - skipped.len()
            );
        } else {
            for f in &failures {
                eprintln!("PERF REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }

    if let Some(path) = &out_path {
        let mut report = PerfReport::new(&date, cases);
        report.notes = notes;
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote perf report to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialise report: {e}");
                std::process::exit(1);
            }
        }
    }
}
