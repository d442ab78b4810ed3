//! pgbench: a deterministic four-workload benchmark of the pgrdf stack
//! (lookup / analytic / topk / mixed_rw) with an outside-in per-layer
//! trace. See README.md in this directory.
//!
//! ```text
//! pgbench run    --workload W --seed N --seconds S --trace 0|1
//! pgbench trace  W --seed N          (same as run --trace 1)
//! pgbench params --seed N            (parameters and expected answers)
//! pgbench stability W --runs 6       (two alternating sets of child runs)
//! pgbench all [--quick]              (the four workloads, one JSON document)
//! ```

// `enc` indexes the NG/SP halves of several parallel arrays at once.
#![allow(clippy::needless_range_loop)]

mod params;
mod run;
mod setup;
mod stability;
mod trace;
mod util;
mod workload;

use std::process::ExitCode;

use run::{Config, Report};
use util::{json_num, json_str};

/// About 0.57 M NG quads and 0.75 M SP quads: the largest graph whose
/// set-ups and windows fit the driver's time cap (README, "Sizing").
const DEFAULT_SCALE: f64 = 0.05;

/// Everything the command line can set.
pub struct Cli {
    pub command: String,
    pub cfg: Config,
    pub trace: bool,
    pub runs: usize,
    pub quick: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pgbench <run|trace|params|stability|all> [workload] [--workload W] [--seed N] \
         [--seconds S] [--trace 0|1] [--scale F] [--runs N] [--quick]\n\
         workloads: {}",
        workload::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        command: args.first()?.clone(),
        cfg: Config {
            workload: String::new(),
            seed: 1,
            seconds: 12.0,
            scale: DEFAULT_SCALE,
        },
        trace: false,
        runs: 6,
        quick: false,
    };
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => cli.cfg.workload = value()?.to_string(),
            "--seed" => cli.cfg.seed = value()?.parse().ok()?,
            "--seconds" => cli.cfg.seconds = value()?.parse().ok()?,
            "--scale" => cli.cfg.scale = value()?.parse().ok()?,
            "--runs" => cli.runs = value()?.parse().ok()?,
            "--trace" => cli.trace = value()? == "1",
            "--quick" => cli.quick = true,
            name if !name.starts_with('-') => cli.cfg.workload = name.to_string(),
            _ => return None,
        }
    }
    if cli.quick {
        // Smoke mode: the numbers are not comparable with a normal run.
        cli.cfg.scale = 0.01;
        cli.cfg.seconds = 2.0;
    }
    let sane = cli.cfg.seconds > 0.0 && cli.cfg.scale > 0.0;
    sane.then_some(cli)
}

/// The one-line JSON object the driver reads from the end of stdout.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = parse(&args) else {
        return usage();
    };
    let known = workload::layout_of(&cli.cfg.workload).is_some();
    match cli.command.as_str() {
        "run" | "trace" if known => {
            let report = if cli.trace || cli.command == "trace" {
                trace::trace(&cli.cfg)
            } else {
                run::run(&cli.cfg)
            };
            for m in &report.metrics {
                println!("{:<44} {:>18} {}", m.name, json_num(m.value), m.unit);
            }
            println!("failed/attempted {}/{}", report.failed, report.attempted);
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        "params" => {
            for name in workload::WORKLOADS
                .iter()
                .filter(|w| !known || **w == cli.cfg.workload)
            {
                let cfg = Config {
                    workload: name.to_string(),
                    ..cli.cfg.clone()
                };
                let bench = run::Bench::set_up(&cfg, None, &mut util::Calibrator::new());
                print!("{}", bench.header());
            }
            ExitCode::SUCCESS
        }
        "stability" if known => stability::stability(&cli),
        "all" => stability::all(&cli),
        _ => usage(),
    }
}
