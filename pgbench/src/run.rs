//! The untraced run: a few epochs, each a fresh set-up, one verified
//! warm-up round, and a closed loop with one client for its share of the
//! timed window. End-to-end metrics come from here and nowhere else.

use std::time::Instant;

use crate::params::{GraphFacts, Params};
use crate::setup::{self, Env, ENC_NAMES};
use crate::util::{geomean, median, peak_rss_mb, percentile, str_hash, Calibrator};
use crate::workload::{call, layout_of, Agree, Outcome, Pair, Reply, Workload};

/// Command-line settings shared by `run` and `trace`.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
}

/// A metric as it goes into the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands back to `main` for the result line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The graph-side knowledge of one seed. The graph is the same in every
/// epoch, so this is worked out once per process.
pub struct Known {
    pub facts: GraphFacts,
    pub params: Params,
}

/// A loaded, warmed-up system and the workload's ops against it.
pub struct Bench {
    pub env: Env,
    pub known: Known,
    pub workload: Workload,
    /// Ops whose warm-up answer was wrong or differed between NG and SP.
    pub verify_failed: u64,
    /// Set-up layers plus the facade time of prefill and warm-up, so that
    /// lazy first-query work counts as set-up too.
    pub setup_s: f64,
    /// Median of the calibration kernel between the set-up phases, in ms.
    pub setup_calib_ms: f64,
}

/// Runs one step through the facade; only the call itself is timed.
pub fn timed_call(env: &Env, pair: &Pair, enc: usize) -> (f64, Option<(Reply, Outcome)>, bool) {
    let step = &pair.steps[enc];
    let t0 = Instant::now();
    let reply = call(&env.stores[enc], &step.action);
    let secs = t0.elapsed().as_secs_f64();
    match reply {
        Ok(reply) => {
            let outcome = Outcome::of(&reply);
            let ok = step.accepts(&reply, outcome);
            (secs, Some((reply, outcome)), ok)
        }
        Err(err) => {
            eprintln!("pgbench: op failed on {}: {err}", ENC_NAMES[enc]);
            (secs, None, false)
        }
    }
}

impl Bench {
    /// Builds the stores, fills the `mixed_rw` window, and runs the
    /// warm-up round that checks every distinct op against the graph
    /// oracle and NG against SP, then pins the verified answers.
    pub fn set_up(cfg: &Config, known: Option<Known>, calibrator: &mut Calibrator) -> Bench {
        let layout = layout_of(&cfg.workload).expect("known workload");
        let mut calib = Vec::new();
        let env = setup::build(cfg.scale, layout, &mut || {
            calib.push(calibrator.sample_ms())
        });
        let known = known.unwrap_or_else(|| {
            let facts = GraphFacts::collect(&env.graph);
            let params = Params::choose(&facts, &env.graph, cfg.scale, cfg.seed);
            Known { facts, params }
        });
        let mut workload = Workload::new(&cfg.workload, &env, &known.facts, &known.params)
            .expect("known workload");
        let mut setup_s = env.times.total_s();
        let mut verify_failed = 0u64;
        for i in 0..workload.prefill {
            workload.advance(i);
            for pair in workload.pairs.iter().filter(|p| Workload::is_write(p)) {
                for enc in 0..2 {
                    let (secs, _, ok) = timed_call(&env, pair, enc);
                    setup_s += secs;
                    verify_failed += !ok as u64;
                }
            }
        }
        workload.advance(workload.prefill);
        for pair in &mut workload.pairs {
            let mut seen = [None, None];
            for enc in 0..2 {
                let (secs, got, ok) = timed_call(&env, pair, enc);
                setup_s += secs;
                verify_failed += !ok as u64;
                seen[enc] = got.map(|(_, outcome)| outcome);
            }
            if let [Some(ng), Some(sp)] = seen {
                let agree = match pair.agree {
                    Agree::Answer => ng == sp,
                    Agree::Rows => ng.rows == sp.rows,
                    Agree::Nothing => true,
                };
                if !agree {
                    eprintln!("pgbench: NG and SP disagree on {}", workload.ops[pair.op]);
                    verify_failed += 1;
                }
                pair.steps[0].pin(ng);
                pair.steps[1].pin(sp);
            }
        }
        calib.push(calibrator.sample_ms());
        Bench {
            env,
            known,
            workload,
            verify_failed,
            setup_s,
            setup_calib_ms: median(&calib),
        }
    }

    /// First round of the timed window or the traced replay.
    pub fn first_round(&self) -> usize {
        self.workload.prefill + 1
    }

    /// `StorageReport` bytes over quads, both stores.
    pub fn bytes_per_quad(&self) -> f64 {
        let reports = self.env.stores.iter().map(|s| s.storage_report());
        let (bytes, quads) = reports.fold((0, 0), |(b, q), r| {
            // Row 0 is the quads table; its entry count is the quad count.
            (b + r.total_bytes(), q + r.rows[0].entries)
        });
        bytes as f64 / quads as f64
    }

    /// The run header: parameters, expected row counts and one plan
    /// fingerprint per op type and encoding. Identical in every process
    /// that is given the same seed.
    pub fn header(&self) -> String {
        use std::fmt::Write;
        let mut s = self.known.params.render(&self.known.facts, &self.env.graph);
        let _ = writeln!(
            s,
            "workload {} ops {}",
            self.workload.name,
            self.workload.ops.join(" ")
        );
        for (op, name) in self.workload.ops.iter().enumerate() {
            let Some(pair) = self.workload.pairs.iter().find(|p| p.op == op) else {
                continue;
            };
            for enc in 0..2 {
                let step = &pair.steps[enc];
                let rows = step.rows.map_or("-".to_string(), |r| r.to_string());
                let plan = crate::trace::plan_text(&self.env, enc, &step.action)
                    .map_or("-".to_string(), |p| format!("{:016x}", str_hash(&p)));
                let _ = writeln!(s, "op {name} {} rows {rows} plan {plan}", ENC_NAMES[enc]);
            }
        }
        s
    }
}

/// What one epoch measured.
struct Epoch {
    /// Latency samples in ms per slot and encoding. A slot is one distinct
    /// op of the round (one parameter value of one op type), or the op
    /// type where every round brings new texts.
    samples: Vec<[Vec<f64>; 2]>,
    /// Op type of each slot.
    slot_ops: Vec<usize>,
    attempted: u64,
    failed: u64,
    /// Sum of the op latencies: the window minus the client's checking.
    busy_s: f64,
    setup_s: f64,
    /// `Calibrator::REFERENCE_MS` over the median kernel time during set-up
    /// and during the window: how much faster than its quiet self the box
    /// was then (below 1 when neighbours keep its memory system busy).
    setup_speed: f64,
    window_speed: f64,
}

impl Epoch {
    /// Latency of one op type: the median per parameter value, then the
    /// mean over the values. The median drops the hiccups of the box; the
    /// mean keeps a parameter whose plan is 40x slower in proportion to
    /// how often it occurs, where a median over all samples would flip
    /// between the two plans as that share crosses one half.
    fn op_ms(&self, op: usize, enc: usize) -> Option<f64> {
        let medians: Vec<f64> = (0..self.samples.len())
            .filter(|&slot| self.slot_ops[slot] == op && !self.samples[slot][enc].is_empty())
            .map(|slot| median(&self.samples[slot][enc]))
            .collect();
        (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
    }

    /// Geometric mean over op types of the per-op-type latency.
    fn query_ms(&self, enc: usize, n_ops: usize) -> f64 {
        geomean(
            &(0..n_ops)
                .filter_map(|op| self.op_ms(op, enc))
                .collect::<Vec<_>>(),
        )
    }

    fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.busy_s
    }
}

/// One timed window on a freshly set-up system. The clock is read between
/// blocks of rounds only, so every window holds whole blocks.
fn epoch(bench: &mut Bench, seconds: f64, calibrator: &mut Calibrator) -> Epoch {
    let n_ops = bench.workload.ops.len();
    let slot_ops = bench.workload.slot_ops();
    // Preallocated: a push must not reallocate inside the window.
    let capacity = ((1 << 18) / slot_ops.len()).max(64);
    let mut e = Epoch {
        samples: slot_ops
            .iter()
            .map(|_| [Vec::with_capacity(capacity), Vec::with_capacity(capacity)])
            .collect(),
        slot_ops,
        attempted: 0,
        failed: bench.verify_failed,
        busy_s: 0.0,
        setup_s: bench.setup_s,
        setup_speed: Calibrator::REFERENCE_MS / bench.setup_calib_ms,
        window_speed: 1.0,
    };
    let window = Instant::now();
    let mut round = bench.first_round();
    let mut calib = Vec::new();
    let mut last = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        for _ in 0..bench.workload.block {
            bench.workload.advance(round);
            round += 1;
            for (idx, pair) in bench.workload.pairs.iter().enumerate() {
                // Between ops, four times a second: the box changes speed
                // within seconds.
                if calib.is_empty() || last.elapsed().as_secs_f64() > 0.25 {
                    calib.push(calibrator.sample_ms());
                    last = Instant::now();
                }
                let slot = bench.workload.slot(idx);
                for enc in 0..2 {
                    let (secs, _, ok) = timed_call(&bench.env, pair, enc);
                    e.samples[slot][enc].push(secs * 1e3);
                    e.busy_s += secs;
                    e.attempted += 1;
                    e.failed += !ok as u64;
                }
            }
        }
    }
    e.window_speed = Calibrator::REFERENCE_MS / median(&calib);
    println!(
        "epoch (as measured): setup {:.3} s at box speed {:.2}, window {:.2} s, busy {:.2} s, \
         rounds {}, box speed {:.2} ({} samples), ng {:.5} ms, sp {:.5} ms, {:.2} ops/s",
        e.setup_s,
        e.setup_speed,
        window.elapsed().as_secs_f64(),
        e.busy_s,
        round - bench.first_round(),
        e.window_speed,
        calib.len(),
        e.query_ms(0, n_ops),
        e.query_ms(1, n_ops),
        e.ops_per_s()
    );
    for (op, name) in bench.workload.ops.iter().enumerate() {
        for enc in 0..2 {
            let all: Vec<f64> = (0..e.samples.len())
                .filter(|&slot| e.slot_ops[slot] == op)
                .flat_map(|slot| e.samples[slot][enc].iter().copied())
                .collect();
            if let Some(ms) = e.op_ms(op, enc) {
                println!(
                    "  {name:<6} {} {ms:>10.4} ms  p95 {:>10.4} ms  n {}",
                    ENC_NAMES[enc],
                    percentile(&all, 0.95),
                    all.len()
                );
            }
        }
    }
    e
}

/// `pgbench run`: the end-to-end metrics of one workload.
///
/// Every timing metric is scaled to the box's reference speed, epoch by
/// epoch, with the calibration kernel that ran between the rounds of that
/// epoch, and is then the median over the epochs. Both steps answer
/// README finding 3: the memory system of the shared host moves every
/// latency by 20-35 % over minutes and the kernel moves with it, and a
/// build's memory layout moves them as much as a change of process does.
pub fn run(cfg: &Config) -> Report {
    let mut epochs: Vec<Epoch> = Vec::new();
    let (mut bytes_per_quad, mut n_ops);
    let mut known = None;
    let mut calibrator = Calibrator::new();
    loop {
        // The previous epoch's stores are gone by now, so the peak
        // resident set holds one system at a time.
        let mut bench = Bench::set_up(cfg, known.take(), &mut calibrator);
        if epochs.is_empty() {
            print!("{}", bench.header());
        }
        bytes_per_quad = bench.bytes_per_quad();
        n_ops = bench.workload.ops.len();
        let n = bench.workload.epochs;
        epochs.push(epoch(&mut bench, cfg.seconds / n as f64, &mut calibrator));
        if epochs.len() == n {
            break;
        }
        known = Some(bench.known);
    }
    let over = |f: &dyn Fn(&Epoch) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
    Report {
        attempted: epochs.iter().map(|e| e.attempted).sum(),
        failed: epochs.iter().map(|e| e.failed).sum(),
        metrics: vec![
            metric("setup_s", over(&|e| e.setup_s * e.setup_speed), "s"),
            metric(
                "ng_query_ms",
                over(&|e| e.query_ms(0, n_ops) * e.window_speed),
                "ms",
            ),
            metric(
                "sp_query_ms",
                over(&|e| e.query_ms(1, n_ops) * e.window_speed),
                "ms",
            ),
            metric(
                "ops_per_s",
                over(&|e| e.ops_per_s() / e.window_speed),
                "1/s",
            ),
            metric("bytes_per_quad", bytes_per_quad, "bytes/quad"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn config(workload: &str, seed: u64) -> Config {
        Config {
            workload: workload.to_string(),
            seed,
            seconds: 0.2,
            scale: 0.01,
        }
    }

    /// Every op of every workload agrees with the graph oracle and across
    /// encodings, in the warm-up round and in a short window after it.
    #[test]
    fn every_workload_answers_correctly() {
        for name in WORKLOADS {
            let mut calibrator = Calibrator::new();
            let mut bench = Bench::set_up(&config(name, 7), None, &mut calibrator);
            assert_eq!(bench.verify_failed, 0, "{name}: warm-up round");
            let e = epoch(&mut bench, 0.2, &mut calibrator);
            assert!(e.attempted > 0, "{name}: no op ran");
            assert_eq!(e.failed, 0, "{name}: timed window");
        }
    }

    /// One seed gives one header (parameters, expected rows, plan
    /// fingerprints); another seed gives another.
    #[test]
    fn header_depends_on_the_seed_only() {
        let mut calibrator = Calibrator::new();
        let mut header =
            |seed| Bench::set_up(&config("lookup", seed), None, &mut calibrator).header();
        assert_eq!(header(7), header(7));
        assert_ne!(header(7), header(8));
    }
}
