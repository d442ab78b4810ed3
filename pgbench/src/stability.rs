//! `pgbench stability` and `pgbench all`: fresh child processes of this
//! binary, one per run, so every run pays its own page faults and gets
//! its own memory layout, which is where the spread on this box comes from.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::util::{json_num, json_str, median, quartiles};
use crate::workload::WORKLOADS;
use crate::Cli;

/// The contract's bounds, read from the one place they are declared.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, better, bound)` of every end-to-end metric in BENCHMARK.json.
fn declared_bounds() -> Vec<(String, bool, f64)> {
    let section = BENCHMARK_JSON
        .split("\"end_to_end\"")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .unwrap_or("");
    let field = |obj: &str, key: &str| -> Option<String> {
        let rest = obj.split(&format!("\"{key}\"")).nth(1)?.split(':').nth(1)?;
        Some(
            rest.split([',', '}'])
                .next()?
                .trim()
                .trim_matches('"')
                .to_string(),
        )
    };
    section
        .split('{')
        .filter_map(|obj| {
            Some((
                field(obj, "name")?,
                field(obj, "better")? == "higher",
                field(obj, "bound")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Metric values out of a result line this binary printed.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    const MARK: &str = "\": {\"value\": ";
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(pos) = rest.find(MARK) {
        let name = &rest[rest[..pos].rfind('"').map_or(0, |q| q + 1)..pos];
        let after = &rest[pos + MARK.len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse() {
            out.insert(name.to_string(), v);
        }
        rest = &after[end..];
    }
    out
}

/// Runs one untraced child and returns its result line.
fn child_run(cli: &Cli, workload: &str) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &cli.cfg.seed.to_string()])
        .args(["--seconds", &cli.cfg.seconds.to_string()])
        .args(["--scale", &cli.cfg.scale.to_string()])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last()?.to_string();
    (out.status.success() && line.contains("\"correct\": true")).then_some(line)
}

/// Two alternating sets of runs of the same code must agree within the
/// bound on every end-to-end metric, and `bytes_per_quad` must repeat.
pub fn stability(cli: &Cli) -> ExitCode {
    let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    for i in 0..cli.runs {
        let Some(line) = child_run(cli, &cli.cfg.workload) else {
            eprintln!("pgbench: run {i} failed or returned a wrong answer");
            return ExitCode::FAILURE;
        };
        for (name, v) in parse_metrics(&line) {
            sets[i % 2].entry(name).or_default().push(v);
        }
        eprintln!("run {i} done");
    }
    println!(
        "workload {} runs {} seed {}",
        cli.cfg.workload, cli.runs, cli.cfg.seed
    );
    println!(
        "{:<16} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}",
        "metric", "median A", "median B", "B vs A", "min-max", "iqr", "bound"
    );
    let mut ok = true;
    for (name, higher_better, bound) in declared_bounds() {
        let (Some(a), Some(b)) = (sets[0].get(&name), sets[1].get(&name)) else {
            eprintln!("pgbench: metric {name} missing from the runs");
            return ExitCode::FAILURE;
        };
        let all: Vec<f64> = a.iter().chain(b).copied().collect();
        let (ma, mb, mall) = (median(a), median(b), median(&all));
        // How much worse B is than A, as a share of A.
        let worse = if higher_better {
            (ma - mb) / ma
        } else {
            (mb - ma) / ma
        };
        let range = all.iter().fold(f64::MIN, |m, v| m.max(*v))
            - all.iter().fold(f64::MAX, |m, v| m.min(*v));
        let iqr = if all.len() >= 4 {
            let (q1, q3) = quartiles(&all);
            (q3 - q1) / mall
        } else {
            f64::NAN
        };
        let exact = name != "bytes_per_quad" || range == 0.0;
        let pass = worse.abs() <= bound && exact;
        ok &= pass;
        println!(
            "{name:<16} {ma:>14.5} {mb:>14.5} {:>8.2}% {:>8.2}% {:>8.2}% {:>5.0}% {}",
            worse * 100.0,
            range / mall * 100.0,
            iqr * 100.0,
            bound * 100.0,
            if pass { "ok" } else { "FAIL" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The four workloads in a fixed order, one JSON document.
pub fn all(cli: &Cli) -> ExitCode {
    let mut docs = Vec::new();
    for name in WORKLOADS {
        let Some(line) = child_run(cli, name) else {
            eprintln!("pgbench: workload {name} failed or returned a wrong answer");
            return ExitCode::FAILURE;
        };
        docs.push(format!("{}: {line}", json_str(name)));
    }
    println!(
        "{{\"comparable\": {}, \"scale\": {}, \"seconds\": {}, \"seed\": {}, \"workloads\": {{{}}}}}",
        !cli.quick,
        json_num(cli.cfg.scale),
        json_num(cli.cfg.seconds),
        cli.cfg.seed,
        docs.join(", ")
    );
    ExitCode::SUCCESS
}
