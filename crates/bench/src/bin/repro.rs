//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--scale 0.02] [--seed 7739251] [table2|table5|table6|table7|table8|table9|
//!        fig4|fig5|fig6|fig7|fig8|fig9|rf|mono|pr2|pr3|pr4|pr9|durability|
//!        overhead|governor|flightguard|all]
//! ```
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! dataset, scaled size); the harness prints paper reference values next
//! to measurements so the *shape* comparison is direct.

use std::time::Instant;

use pgrdf::cardinality::{self, PgCardinalities};
use pgrdf::{PgRdfModel, PgVocab, QuerySet};
use pgrdf_bench::{fmt_ms, paper, Eq, Fixture};
use propertygraph::PropertyGraph;

struct Args {
    scale: f64,
    seed: u64,
    sections: Vec<String>,
}

fn parse_args() -> Args {
    let mut scale = 0.02;
    let mut seed = 0x7717_73;
    let mut sections = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                scale = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale F] [--seed N] [table2|table5|table6|table7|table8|table9|fig4|fig5|fig6|fig7|fig8|fig9|rf|mono|pr2|pr3|pr4|pr9|durability|overhead|governor|flightguard|all]"
                );
                std::process::exit(0);
            }
            section => sections.push(section.to_string()),
        }
    }
    if sections.is_empty() {
        sections.push("all".to_string());
    }
    Args { scale, seed, sections }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let want = |name: &str| args.sections.iter().any(|s| s == name || s == "all");

    println!("== pgrdf repro harness ==");
    println!("scale = {} (1.0 = paper size), seed = {}", args.scale, args.seed);

    if want("table2") {
        table2();
    }

    // Everything below needs the generated dataset.
    let needs_fixture = [
        "table5", "table6", "table7", "table8", "table9", "fig4", "fig5", "fig6", "fig7",
        "fig8", "fig9", "rf", "mono", "pr2", "pr3", "pr4", "pr9", "durability", "overhead",
        "governor", "flightguard",
    ]
    .iter()
    .any(|s| want(s));
    if !needs_fixture {
        return;
    }

    let t0 = Instant::now();
    let fixture = Fixture::with_seed(args.scale, args.seed);
    println!(
        "\ngenerated + loaded dataset in {} (NG/SP/RF stores, partitioned)",
        fmt_ms(t0.elapsed())
    );

    if want("table6") {
        table6(&fixture);
    }
    if want("table7") {
        table7(&fixture);
    }
    if want("table8") {
        table8(&fixture);
    }
    if want("table9") {
        table9(&fixture);
    }
    if want("table5") {
        table5(&fixture);
    }
    if want("fig4") {
        fig4(&fixture);
    }
    if want("fig5") {
        experiment(
            &fixture,
            "Experiment 1 - node-centric (Figure 5)",
            &[Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4],
            &[PgRdfModel::NG, PgRdfModel::SP],
        );
    }
    if want("fig6") {
        experiment(
            &fixture,
            "Experiment 2 - edge-centric (Figure 6)",
            &[Eq::Eq5, Eq::Eq6, Eq::Eq7, Eq::Eq8],
            &[PgRdfModel::NG, PgRdfModel::SP],
        );
    }
    if want("fig7") {
        experiment(
            &fixture,
            "Experiment 3 - aggregates (Figure 7)",
            &[Eq::Eq9, Eq::Eq10],
            &[PgRdfModel::NG, PgRdfModel::SP],
        );
    }
    if want("fig8") {
        let hops: Vec<Eq> = (1..=max_hops(args.scale)).map(Eq::Eq11).collect();
        experiment(
            &fixture,
            "Experiment 4 - graph traversal (Figure 8)",
            &hops,
            &[PgRdfModel::NG, PgRdfModel::SP],
        );
    }
    if want("fig9") {
        experiment(
            &fixture,
            "Experiment 5 - triangle counting (Figure 9)",
            &[Eq::Eq12],
            &[PgRdfModel::NG, PgRdfModel::SP],
        );
    }
    if want("rf") {
        experiment(
            &fixture,
            "Ablation - RF model on edge-centric queries (S2.3)",
            &[Eq::Eq5, Eq::Eq6, Eq::Eq8],
            &[PgRdfModel::RF, PgRdfModel::NG, PgRdfModel::SP],
        );
    }
    if want("mono") {
        monolithic_scan_ablation(&fixture);
    }
    if want("pr2") {
        bench_pr2(&fixture, &args);
    }
    if want("pr3") {
        bench_pr3(&fixture, &args);
    }
    if want("pr4") {
        bench_pr4(&fixture, &args);
    }
    if want("pr9") {
        bench_pr9(&fixture, &args);
    }
    // Opt-in (not part of `all`): fsync-heavy, so only on explicit ask.
    if args.sections.iter().any(|s| s == "durability") {
        durability(&fixture);
    }
    // Opt-in (not part of `all`): toggles the global telemetry flag and
    // exits non-zero on a regression, so only on explicit ask (CI calls
    // `repro overhead` as the telemetry-overhead guard).
    if args.sections.iter().any(|s| s == "overhead") {
        overhead_guard(&fixture);
    }
    // Opt-in (not part of `all`): installs and removes a process governor
    // and exits non-zero on a regression (CI calls `repro governor` as
    // the resource-governor overhead guard).
    if args.sections.iter().any(|s| s == "governor") {
        governor_guard(&fixture);
    }
    // Opt-in (not part of `all`): toggles the global flight recorder and
    // exits non-zero on a regression (CI calls `repro flightguard` as
    // the flight-recorder overhead guard).
    if args.sections.iter().any(|s| s == "flightguard") {
        flightguard(&fixture);
    }
}

/// Crash-safe persistence cost on the generated dataset: WAL-per-op
/// fsync, group commit, and one-record bulk load + checkpoint, each
/// verified by a full recovery (`DurableStore::open`). Opt-in: not part
/// of `all` runs of the paper tables, run `repro durability`.
fn durability(fixture: &Fixture) {
    use quadstore::{DurableStore, RealFs, SyncPolicy};
    use std::sync::Arc;

    println!("\n--- Durability: WAL + snapshot cost (opt-in section) ---");
    let quads = fixture.ng.quads();
    let per_op = quads.len().min(500);
    println!(
        "{:<26} {:>10} {:>12} {:>14}",
        "mode", "quads", "write time", "recovery time"
    );
    let modes: [(&str, SyncPolicy, bool); 3] = [
        ("fsync-per-op", SyncPolicy::Always, false),
        ("group-commit(64)", SyncPolicy::EveryN(64), false),
        ("bulk+checkpoint", SyncPolicy::Manual, true),
    ];
    for (label, policy, bulk) in modes {
        let dir = std::env::temp_dir()
            .join(format!("repro_durability_{}_{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ds = DurableStore::open_with(&dir, Arc::new(RealFs), policy)
            .expect("open durable store");
        ds.create_model("bench").expect("model");
        let t0 = Instant::now();
        let n = if bulk {
            let n = ds.bulk_load("bench", &quads).expect("bulk load");
            ds.checkpoint().expect("checkpoint");
            n
        } else {
            for quad in quads.iter().take(per_op) {
                ds.insert("bench", quad).expect("insert");
            }
            ds.sync().expect("sync");
            per_op
        };
        let write = t0.elapsed();
        drop(ds);
        let t1 = Instant::now();
        let recovered = DurableStore::open(&dir).expect("recovery");
        let recovery = t1.elapsed();
        assert_eq!(recovered.store().model("bench").expect("model").len(), n);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        println!(
            "{:<26} {:>10} {:>12} {:>14}",
            label,
            n,
            fmt_ms(write),
            fmt_ms(recovery)
        );
    }
}

/// The paper's Figures 8/9 NG-vs-SP gap comes from full scans over the
/// whole (monolithic) triples table, where SP is ~1.5x larger. Our
/// partitioned layout erases that gap (both topology partitions are
/// identical), so this section reruns EQ11c and EQ12 against monolithic
/// stores to reproduce the paper's size effect.
fn monolithic_scan_ablation(fixture: &Fixture) {
    use pgrdf::{LoadOptions, PgRdfStore, PgVocab};
    println!("\n--- Ablation - monolithic full-scan gap (Figures 8/9) ---");
    println!(
        "{:<8} {:<6} {:>12} {:>12} {:>12}",
        "query", "model", "time", "results", "quads"
    );
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = PgRdfStore::load_with(
            &fixture.graph,
            model,
            LoadOptions { vocab: PgVocab::twitter(), ..Default::default() },
        )
        .expect("monolithic load");
        for eq in [Eq::Eq11(3), Eq::Eq12] {
            let text = fixture.query_text(eq, model);
            let warmup = store.select(&text).expect("query");
            let _ = warmup;
            let t0 = Instant::now();
            let sols = store.select(&text).expect("query");
            let elapsed = t0.elapsed();
            let rows = sols.scalar_i64().map(|n| n as usize).unwrap_or(sols.len());
            println!(
                "{:<8} {:<6} {:>12} {:>12} {:>12}",
                eq.label(model),
                model.to_string(),
                fmt_ms(elapsed),
                rows,
                store.stats().quads
            );
        }
    }
}

/// Path counts explode exponentially with the hop count and the graph's
/// mean degree (Figure 8's log scale): cap the sweep so the default
/// harness stays snappy. Run `repro fig8 --scale 0.005` for the full
/// 5-hop sweep.
fn max_hops(scale: f64) -> usize {
    if scale <= 0.006 {
        5
    } else {
        4
    }
}

fn table2() {
    println!("\n--- Table 2: PG vs RDF cardinalities (predicted vs measured, Figure 1 graph) ---");
    let g = PropertyGraph::sample_figure1();
    let vocab = PgVocab::default();
    let pg = PgCardinalities::of(&g);
    println!(
        "PG: E={} E1={} V={} eKV={} nKV={} eL={} eK={} nK={}",
        pg.e, pg.e1, pg.v, pg.ekv, pg.nkv, pg.el, pg.ek, pg.nk
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "model", "namedGraphs", "objProp", "dataProp", "distObjProp", "distDataProp"
    );
    for model in PgRdfModel::ALL {
        let quads = pgrdf::convert(&g, model, &vocab);
        let measured = cardinality::measure(&quads, &vocab);
        let predicted = cardinality::predict(model, &pg);
        let check = if measured == predicted { "ok" } else { "MISMATCH" };
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}   {}",
            model.to_string(),
            measured.named_graphs,
            measured.obj_prop,
            measured.data_prop,
            measured.distinct_obj_properties,
            measured.distinct_data_properties,
            check
        );
    }
}

fn table6(fixture: &Fixture) {
    println!(
        "\n--- Table 6: dataset characteristics (paper @ 1.0 vs measured @ {}) ---",
        fixture.scale
    );
    let g = &fixture.graph;
    let rows = [
        ("Nodes", paper::table6::NODES, g.vertex_count()),
        ("Edges", paper::table6::EDGES, g.edge_count()),
        ("Node KVs", paper::table6::NODE_KVS, g.node_kv_count()),
        ("Edge KVs", paper::table6::EDGE_KVS, g.edge_kv_count()),
    ];
    print_scaled_rows(&rows, fixture.scale);
}

fn table7(fixture: &Fixture) {
    println!("\n--- Table 7: transformed RDF characteristics (triples) ---");
    let g = &fixture.graph;
    let follows = g.edges().filter(|(_, e)| e.label == "follows").count();
    let knows = g.edges().filter(|(_, e)| e.label == "knows").count();
    let count_kvs = |key: &str| -> usize {
        g.vertices()
            .flat_map(|(_, v)| v.props.get(key).map(Vec::len))
            .sum::<usize>()
            + g.edges()
                .flat_map(|(_, e)| e.props.get(key).map(Vec::len))
                .sum::<usize>()
    };
    let refs = count_kvs("refs");
    let has_tag = count_kvs("hasTag");
    let ng_total = fixture.ng.stats().quads;
    let sp_total = fixture.sp.stats().quads;
    let rows = [
        ("follows edges", paper::table7::FOLLOWS, follows),
        ("knows edges", paper::table7::KNOWS, knows),
        ("refs KVs", paper::table7::REFS, refs),
        ("hasTag KVs", paper::table7::HAS_TAG, has_tag),
        ("NG total", paper::table7::NG_TOTAL, ng_total),
        ("SP total", paper::table7::SP_TOTAL, sp_total),
    ];
    print_scaled_rows(&rows, fixture.scale);
    println!(
        "shape check: SP total - NG total = {} (expected 2*E = {})",
        sp_total - ng_total,
        2 * fixture.graph.edge_count()
    );
}

fn table8(fixture: &Fixture) {
    println!("\n--- Table 8: transformed RDF characteristics (resources) ---");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "model", "subjects", "predicates", "objects", "namedGraphs"
    );
    for (name, store, p_subj, p_pred, p_obj, p_g) in [
        (
            "NG",
            &fixture.ng,
            paper::table8::NG_SUBJECTS,
            paper::table8::NG_PREDICATES,
            paper::table8::NG_OBJECTS,
            paper::table8::NG_NAMED_GRAPHS,
        ),
        (
            "SP",
            &fixture.sp,
            paper::table8::SP_SUBJECTS,
            paper::table8::SP_PREDICATES,
            paper::table8::SP_OBJECTS,
            paper::table8::SP_NAMED_GRAPHS,
        ),
    ] {
        let stats = store.stats();
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}   (measured)",
            name,
            stats.distinct_subjects,
            stats.distinct_predicates,
            stats.distinct_objects,
            stats.distinct_named_graphs
        );
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}   (paper @ 1.0)",
            "", p_subj, p_pred, p_obj, p_g
        );
    }
    println!("shape check: SP predicates ~= E + labels + keys + 1; NG predicates = labels + keys");
}

fn table9(fixture: &Fixture) {
    println!("\n--- Table 9: storage characteristics (logical entries / est. bytes) ---");
    for (name, store) in [("NG", &fixture.ng), ("SP", &fixture.sp)] {
        println!("[{name}]");
        print!("{}", store.storage_report());
    }
    let ng = fixture.ng.storage_report().total_bytes();
    let sp = fixture.sp.storage_report().total_bytes();
    println!(
        "shape check: SP/NG total ratio = {:.3} (paper: {:.3})",
        sp as f64 / ng as f64,
        paper::table9::SP_TOTAL_MB as f64 / paper::table9::NG_TOTAL_MB as f64
    );
}

fn table5(fixture: &Fixture) {
    println!("\n--- Table 5: index-based access plans (EXPLAIN) ---");
    for (name, store) in [("NG", &fixture.ng), ("SP", &fixture.sp)] {
        let qs: QuerySet = store.queries();
        for (label, q) in [
            ("Q1 (triangles)", qs.q1_triangles()),
            ("Q2 (edge + edge-KVs)", qs.q2_edge_kvs()),
            ("Q3 (node KVs)", qs.q3_node_kvs("Amy")),
        ] {
            println!("[{name}] {label}:");
            match store.explain(&q) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("  explain failed: {e}"),
            }
        }
    }
}

fn fig4(fixture: &Fixture) {
    println!("\n--- Figure 4: degree distributions ---");
    let out = twittergen::degree::out_degree_distribution(&fixture.graph);
    let inn = twittergen::degree::in_degree_distribution(&fixture.graph);
    let so = twittergen::degree::summarize(&out);
    let si = twittergen::degree::summarize(&inn);
    println!(
        "out-degree: distinct={} max={} mean={:.2}",
        so.distinct_degrees, so.max_degree, so.mean_degree
    );
    println!(
        "in-degree:  distinct={} max={} mean={:.2}",
        si.distinct_degrees, si.max_degree, si.mean_degree
    );
    println!("(EQ9/EQ10 in Figure 7 recompute these via SPARQL aggregation)");
}

fn experiment(fixture: &Fixture, title: &str, queries: &[Eq], models: &[PgRdfModel]) {
    println!("\n--- {title} ---");
    println!("tag = {:?}, start node = n{}", fixture.tag, fixture.start_node);
    println!(
        "{:<8} {:<6} {:>12} {:>12} {:>16}",
        "query", "model", "time", "results", "paper results@1.0"
    );
    for &eq in queries {
        for &model in models {
            let label = eq.label(model);
            let (elapsed, rows) = fixture.run(eq, model);
            let paper_count = paper::results::count_for(&label)
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:<8} {:<6} {:>12} {:>12} {:>16}",
                label,
                model.to_string(),
                fmt_ms(elapsed),
                rows,
                paper_count
            );
        }
    }
}

fn print_scaled_rows(rows: &[(&str, usize, usize)], scale: f64) {
    println!(
        "{:<16} {:>12} {:>14} {:>12}",
        "metric", "paper@1.0", "scaled-target", "measured"
    );
    for (name, paper_value, measured) in rows {
        let scaled = (*paper_value as f64 * scale).round() as usize;
        println!(
            "{:<16} {:>12} {:>14} {:>12}",
            name, paper_value, scaled, measured
        );
    }
}

/// PR2 artifact: per-family latency distributions for the morsel-parallel
/// executor (sequential `threads(1)` vs parallel `threads(4)`) and
/// plan-cache cold/hit timings, written to `BENCH_PR2.json`.
///
/// Families follow the paper's experiment grouping: node-centric
/// (EQ1–EQ4), edge-centric (EQ5–EQ8), aggregates (EQ9/EQ10), traversal
/// (EQ11c), triangle counting (EQ12). Medians/p95s pool every timed
/// iteration of the family's queries; the warm-up run populates the plan
/// cache, so both modes replay the same compiled plan.
fn bench_pr2(fixture: &Fixture, args: &Args) {
    use sparql::ExecOptions;

    const PAR_THREADS: usize = 4;
    const ITERS: usize = 9;
    let families: &[(&str, &[Eq])] = &[
        ("node", &[Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4]),
        ("edge", &[Eq::Eq5, Eq::Eq6, Eq::Eq7, Eq::Eq8]),
        ("aggregate", &[Eq::Eq9, Eq::Eq10]),
        ("traversal", &[Eq::Eq11(3)]),
        ("triangle", &[Eq::Eq12]),
    ];

    println!("\n--- PR2: parallel execution + plan cache (BENCH_PR2.json) ---");
    println!(
        "{:<10} {:<6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "family", "model", "seq med", "seq p95", "par med", "par p95", "speedup"
    );

    let mut model_blocks = Vec::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let mut family_blocks = Vec::new();
        for (family, queries) in families {
            let mut seq_ms = Vec::new();
            let mut par_ms = Vec::new();
            for &eq in *queries {
                let to_ms =
                    |v: Vec<std::time::Duration>| v.into_iter().map(|d| d.as_secs_f64() * 1e3);
                seq_ms.extend(to_ms(fixture.time_with_options(
                    eq,
                    model,
                    ExecOptions::threads(1),
                    ITERS,
                )));
                par_ms.extend(to_ms(fixture.time_with_options(
                    eq,
                    model,
                    ExecOptions::threads(PAR_THREADS),
                    ITERS,
                )));
            }
            let (seq_med, seq_p95) = (percentile(&seq_ms, 50.0), percentile(&seq_ms, 95.0));
            let (par_med, par_p95) = (percentile(&par_ms, 50.0), percentile(&par_ms, 95.0));
            let speedup = seq_med / par_med;
            println!(
                "{:<10} {:<6} {:>10} {:>10} {:>10} {:>10} {:>7.2}x",
                family,
                model.to_string(),
                format!("{seq_med:.3}ms"),
                format!("{seq_p95:.3}ms"),
                format!("{par_med:.3}ms"),
                format!("{par_p95:.3}ms"),
                speedup
            );
            family_blocks.push(format!(
                concat!(
                    "      \"{}\": {{\n",
                    "        \"queries\": [{}],\n",
                    "        \"sequential\": {{\"median_ms\": {:.3}, \"p95_ms\": {:.3}}},\n",
                    "        \"parallel\": {{\"median_ms\": {:.3}, \"p95_ms\": {:.3}}},\n",
                    "        \"speedup_median\": {:.3}\n",
                    "      }}"
                ),
                family,
                queries
                    .iter()
                    .map(|eq| format!("\"{}\"", eq.label(model)))
                    .collect::<Vec<_>>()
                    .join(", "),
                seq_med,
                seq_p95,
                par_med,
                par_p95,
                speedup
            ));
        }

        // Plan-cache cold-vs-hit timing on a representative aggregate
        // query: clearing the cache forces one parse+compile (cold); the
        // replays execute the cached plan only.
        let store = fixture.store(model);
        let text = fixture.query_text(Eq::Eq9, model);
        let dataset = fixture.dataset_for(Eq::Eq9, model);
        store.plan_cache().clear();
        let compiles_before = store.plan_cache().compiles();
        let t0 = Instant::now();
        store.select_in(&dataset, &text).expect("EQ9 cold run");
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let hit_ms: Vec<f64> = (0..ITERS)
            .map(|_| {
                let t0 = Instant::now();
                store.select_in(&dataset, &text).expect("EQ9 hit run");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let compiled = store.plan_cache().compiles() - compiles_before;
        assert_eq!(compiled, 1, "cache hits must not recompile");
        let hit_med = percentile(&hit_ms, 50.0);
        println!(
            "plan cache {:<6} cold={:.3}ms hit(med)={:.3}ms compiles={} (hits recompile nothing)",
            model.to_string(),
            cold_ms,
            hit_med,
            compiled
        );

        model_blocks.push(format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"families\": {{\n{}\n      }},\n",
                "      \"plan_cache\": {{\"query\": \"EQ9\", \"cold_ms\": {:.3}, ",
                "\"hit_median_ms\": {:.3}, \"compiles_during_hits\": {}}}\n",
                "    }}"
            ),
            model,
            family_blocks.join(",\n"),
            cold_ms,
            hit_med,
            compiled - 1
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": {},\n",
            "  \"seed\": {},\n",
            "  \"iterations_per_query\": {},\n",
            "  \"parallel_threads\": {},\n",
            "  \"models\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        args.scale,
        args.seed,
        ITERS,
        PAR_THREADS,
        model_blocks.join(",\n")
    );
    std::fs::write("BENCH_PR2.json", &json).expect("write BENCH_PR2.json");
    println!("wrote BENCH_PR2.json");
}

/// PR3 artifact: snapshot-isolated read scaling, written to
/// `BENCH_PR3.json`. For NG and SP, N reader threads (1/2/4/8) replay
/// node-centric queries against the node-KV partition for a fixed window,
/// first with no concurrent DML and then with a background writer thread
/// continuously committing and retracting a multi-quad sentinel through
/// the MVCC writer path. Readers pin a fresh snapshot per query and never
/// block on the writer, so reads/s should scale with the reader count in
/// both modes.
fn bench_pr3(fixture: &Fixture, args: &Args) {
    use propertygraph::PropValue;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];
    const WINDOW: Duration = Duration::from_millis(250);

    println!("\n--- PR3: snapshot-isolated read scaling (BENCH_PR3.json) ---");
    println!(
        "{:<6} {:<10} {:>8} {:>12} {:>18}",
        "model", "writer", "readers", "reads/s", "writer commits/s"
    );

    let mut model_blocks = Vec::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = fixture.store(model);
        let names = store.partition_names().expect("fixture stores are partitioned");
        let dataset = names.node_kv.clone();
        let queries =
            [fixture.query_text(Eq::Eq1, model), fixture.query_text(Eq::Eq4, model)];
        // A sentinel vertex's node-KV quads in this model's shape — what
        // the background writer toggles atomically.
        let mut g = PropertyGraph::new();
        g.add_vertex_with_props(99_999_001, [("name", PropValue::from("pr3-sentinel"))]);
        let sentinel = pgrdf::convert(&g, model, &PgVocab::twitter());

        let mut mode_blocks = Vec::new();
        for with_writer in [false, true] {
            let mut cells = Vec::new();
            for &readers in &READER_COUNTS {
                let stop = AtomicBool::new(false);
                let reads = AtomicU64::new(0);
                let writes = AtomicU64::new(0);
                let counters_before = counter_totals();
                std::thread::scope(|scope| {
                    for _ in 0..readers {
                        scope.spawn(|| {
                            // threads(1): each query executes sequentially,
                            // so measured scaling comes from reader
                            // concurrency, not the morsel-parallel executor
                            // saturating the cores on its own.
                            let opts = sparql::ExecOptions::threads(1);
                            while !stop.load(Ordering::Relaxed) {
                                for q in &queries {
                                    store
                                        .select_in_with(&dataset, q, opts.clone())
                                        .expect("pr3 read");
                                    reads.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        });
                    }
                    if with_writer {
                        scope.spawn(|| {
                            let raw = store.store();
                            while !stop.load(Ordering::Relaxed) {
                                let mut b = raw.begin();
                                for q in &sentinel {
                                    b.insert(&dataset, q).expect("pr3 insert");
                                }
                                b.commit();
                                let mut b = raw.begin();
                                for q in &sentinel {
                                    b.remove(&dataset, q).expect("pr3 remove");
                                }
                                b.commit();
                                writes.fetch_add(2, Ordering::Relaxed);
                            }
                        });
                    }
                    std::thread::sleep(WINDOW);
                    stop.store(true, Ordering::Relaxed);
                });
                let secs = WINDOW.as_secs_f64();
                let rps = reads.load(Ordering::Relaxed) as f64 / secs;
                let wps = writes.load(Ordering::Relaxed) as f64 / secs;
                println!(
                    "{:<6} {:<10} {:>8} {:>12} {:>18}",
                    model.to_string(),
                    if with_writer { "yes" } else { "no" },
                    readers,
                    format!("{rps:.0}"),
                    if with_writer { format!("{wps:.0}") } else { "-".to_string() }
                );
                // With PGRDF_TELEMETRY=1 (or --metrics anywhere in the
                // process) the engine counters expose *why* a cell is
                // slow: per-read deltas separate real scan work from
                // coordination overhead — if rows-scanned/read is flat
                // while reads/s drops, the regression is contention, not
                // index work.
                if telemetry::enabled() {
                    let after = counter_totals();
                    let n = reads.load(Ordering::Relaxed).max(1) as f64;
                    println!(
                        "       per read: index_scans={:.2} rows_scanned={:.2} \
                         rows_matched={:.2} snapshot_pins={:.2} cache_hits={:.2}",
                        (after.index_scans - counters_before.index_scans) / n,
                        (after.rows_scanned - counters_before.rows_scanned) / n,
                        (after.rows_matched - counters_before.rows_matched) / n,
                        (after.snapshot_pins - counters_before.snapshot_pins) / n,
                        (after.cache_hits - counters_before.cache_hits) / n,
                    );
                }
                cells.push(format!(
                    "\"{readers}\": {{\"reads_per_s\": {rps:.1}, \"writer_commits_per_s\": {wps:.1}}}"
                ));
            }
            mode_blocks.push(format!(
                "      \"{}\": {{{}}}",
                if with_writer { "with_writer" } else { "no_writer" },
                cells.join(", ")
            ));
        }
        model_blocks.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            model,
            mode_blocks.join(",\n")
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": {},\n",
            "  \"seed\": {},\n",
            "  \"window_ms\": {},\n",
            "  \"cores\": {},\n",
            "  \"queries\": [\"EQ1\", \"EQ4\"],\n",
            "  \"reader_counts\": [1, 2, 4, 8],\n",
            "  \"models\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        args.scale,
        args.seed,
        WINDOW.as_millis(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        model_blocks.join(",\n")
    );
    std::fs::write("BENCH_PR3.json", &json).expect("write BENCH_PR3.json");
    println!("wrote BENCH_PR3.json");
}

/// PR4 artifact: operator-level execution profiles for EQ1–EQ5 under NG
/// and SP, written to `BENCH_PR4.json`. Each query runs once to warm the
/// plan cache, then once through the profiled sequential executor; the
/// artifact embeds the full `QueryProfile` (per-step estimated vs actual
/// rows, loops, inclusive time, chosen index, strategy) per query.
fn bench_pr4(fixture: &Fixture, args: &Args) {
    use sparql::ExecOptions;

    const QUERIES: [Eq; 5] = [Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq5];

    println!("\n--- PR4: operator-level query profiles (BENCH_PR4.json) ---");
    println!(
        "{:<8} {:<6} {:>10} {:>10} {:>8} {:>24}",
        "query", "model", "wall", "results", "steps", "hottest step"
    );

    let mut model_blocks = Vec::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = fixture.store(model);
        let mut query_blocks = Vec::new();
        for eq in QUERIES {
            let label = eq.label(model);
            let text = fixture.query_text(eq, model);
            let dataset = fixture.dataset_for(eq, model);
            // Warm-up populates the plan cache so the profiled run
            // reports `cache_hit: true` and zero compile time.
            store.select_in(&dataset, &text).expect("pr4 warm-up");
            let (sols, profile) = store
                .select_profiled_in(&dataset, &text, ExecOptions::default())
                .expect("pr4 profiled run");
            let hottest = profile
                .steps
                .iter()
                .max_by_key(|s| s.nanos)
                .map(|s| format!("#{} {} ({})", s.ordinal, s.strategy, s.index))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:<8} {:<6} {:>10} {:>10} {:>8} {:>24}",
                label,
                model.to_string(),
                format!("{:.3}ms", profile.wall_nanos as f64 / 1e6),
                sols.len(),
                profile.steps.len(),
                hottest
            );
            query_blocks.push(format!("      \"{}\": {}", label, profile.to_json()));
        }
        model_blocks.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            model,
            query_blocks.join(",\n")
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": {},\n",
            "  \"seed\": {},\n",
            "  \"queries\": [\"EQ1\", \"EQ2\", \"EQ3\", \"EQ4\", \"EQ5\"],\n",
            "  \"models\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        args.scale,
        args.seed,
        model_blocks.join(",\n")
    );
    std::fs::write("BENCH_PR4.json", &json).expect("write BENCH_PR4.json");
    println!("wrote BENCH_PR4.json");
}

/// Times the warmed EQ1–EQ5 batch (NG and SP) with the flight recorder
/// disabled and enabled back-to-back in each round and returns the
/// cleanest round's `(ratio, disabled_ms, enabled_ms)`. Telemetry is
/// forced off for the measurement so the disabled side takes the
/// untracked fast path and the delta is purely the recorder's tracked
/// path; paired rounds + minimum ratio cancel machine-load drift the
/// same way the telemetry and governor guards do.
fn recorder_overhead(fixture: &Fixture, rounds: usize, passes: usize) -> (f64, f64, f64) {
    const QUERIES: [Eq; 5] = [Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq5];

    let mut work = Vec::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = fixture.store(model);
        for eq in QUERIES {
            let text = fixture.query_text(eq, model);
            let dataset = fixture.dataset_for(eq, model);
            store.select_in(&dataset, &text).expect("recorder warm-up");
            work.push((store, dataset, text));
        }
    }
    let batch = || {
        let t0 = Instant::now();
        for _ in 0..passes {
            for (store, dataset, text) in &work {
                store.select_in(dataset, text).expect("recorder batch");
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    };

    let recorder = telemetry::flight_recorder();
    let was_recording = recorder.enabled();
    let was_telemetry = telemetry::enabled();
    telemetry::set_enabled(false);
    let mut ratio = f64::INFINITY;
    let (mut off, mut on) = (f64::NAN, f64::NAN);
    for round in 0..rounds {
        let timed = |rec: bool| {
            recorder.set_enabled(rec);
            batch()
        };
        let (o, e) = if round % 2 == 0 {
            let o = timed(false);
            (o, timed(true))
        } else {
            let e = timed(true);
            (timed(false), e)
        };
        if e / o < ratio {
            (ratio, off, on) = (e / o, o, e);
        }
    }
    recorder.set_enabled(was_recording);
    telemetry::set_enabled(was_telemetry);
    (ratio, off, on)
}

/// PR9: the cost of self-observation, written to `BENCH_PR9.json`. Two
/// measurements: (1) the flight recorder's paired on/off overhead on the
/// EQ1–EQ5 batch (NG and SP) — the recorder is on by default, so this is
/// the price every query pays; (2) the latency of querying each system
/// graph with SPARQL, which bounds how expensive `pgrdf:sys/*`
/// dashboards are (every run re-materializes the overlay from live
/// engine state).
fn bench_pr9(fixture: &Fixture, args: &Args) {
    const ROUNDS: usize = 5;
    const PASSES: usize = 5;
    const SYS_ITERS: usize = 9;

    println!("\n--- PR9: flight recorder + system views (BENCH_PR9.json) ---");
    let (ratio, off, on) = recorder_overhead(fixture, ROUNDS, PASSES);
    println!(
        "recorder overhead: EQ1-EQ5 x NG,SP x {PASSES} passes, cleanest of {ROUNDS} paired \
         rounds: off={off:.3}ms on={on:.3}ms ratio={ratio:.3}"
    );

    // Sys-view latency on the NG store, which by now holds flight
    // entries and warmed plan-cache entries from the overhead rounds.
    // One instrumented query first so the metrics graph has samples.
    let store = fixture.store(PgRdfModel::NG);
    let was_telemetry = telemetry::enabled();
    telemetry::set_enabled(true);
    store
        .select_in(
            &fixture.dataset_for(Eq::Eq1, PgRdfModel::NG),
            &fixture.query_text(Eq::Eq1, PgRdfModel::NG),
        )
        .expect("metrics seed query");
    telemetry::set_enabled(was_telemetry);
    let sys_queries: [(&str, &str); 4] = [
        (
            "queries_top10",
            "SELECT ?q ?ns WHERE { GRAPH <pgrdf:sys/queries> { \
               ?q <pgrdf:sys#execNanos> ?ns } } ORDER BY DESC(?ns) LIMIT 10",
        ),
        (
            "metrics_all",
            "SELECT ?m ?v WHERE { GRAPH <pgrdf:sys/metrics> { ?m <pgrdf:sys#value> ?v } }",
        ),
        (
            "plans_hot",
            "SELECT ?p ?h WHERE { GRAPH <pgrdf:sys/plans> { ?p <pgrdf:sys#hits> ?h } } \
             ORDER BY DESC(?h) LIMIT 10",
        ),
        (
            "store_bytes",
            "SELECT ?b WHERE { GRAPH <pgrdf:sys/store> { \
               <pgrdf:sys/store> <pgrdf:sys#totalBytes> ?b } }",
        ),
    ];
    println!("{:<14} {:>10} {:>10} {:>6}", "sys view", "median", "p95", "rows");
    let mut sys_blocks = Vec::new();
    for (label, text) in sys_queries {
        let mut ms = Vec::new();
        let mut rows = 0usize;
        for _ in 0..SYS_ITERS {
            let t0 = Instant::now();
            let sols = store.select_sys(text).expect("sys query");
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rows = sols.len();
        }
        let (med, p95) = (percentile(&ms, 50.0), percentile(&ms, 95.0));
        println!(
            "{label:<14} {:>10} {:>10} {rows:>6}",
            format!("{med:.3}ms"),
            format!("{p95:.3}ms")
        );
        sys_blocks.push(format!(
            "    \"{label}\": {{\"median_ms\": {med:.3}, \"p95_ms\": {p95:.3}, \"rows\": {rows}}}"
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"scale\": {},\n",
            "  \"seed\": {},\n",
            "  \"recorder_overhead\": {{\n",
            "    \"batch\": \"EQ1-EQ5 x NG,SP x {} passes\",\n",
            "    \"rounds\": {},\n",
            "    \"disabled_ms\": {:.3},\n",
            "    \"enabled_ms\": {:.3},\n",
            "    \"ratio\": {:.4}\n",
            "  }},\n",
            "  \"sys_view_latency_ms\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        args.scale,
        args.seed,
        PASSES,
        ROUNDS,
        off,
        on,
        ratio,
        sys_blocks.join(",\n")
    );
    std::fs::write("BENCH_PR9.json", &json).expect("write BENCH_PR9.json");
    println!("wrote BENCH_PR9.json");
}

/// CI guard for the flight-recorder budget: the recorder is on by
/// default, so its tracked path is the price every query pays — the
/// EQ1–EQ5 batch with the recorder on must cost at most 5% more wall
/// time than with it off (cleanest of 5 paired rounds, same noise model
/// as the telemetry guard). Exits non-zero past the budget.
fn flightguard(fixture: &Fixture) {
    const ROUNDS: usize = 5;
    const PASSES: usize = 5;
    const BUDGET: f64 = 1.05;

    println!("\n--- Flight-recorder overhead guard (budget: +5% wall time) ---");
    let (ratio, off, on) = recorder_overhead(fixture, ROUNDS, PASSES);
    println!(
        "batch = EQ1-EQ5 x NG,SP x {PASSES} passes, cleanest of {ROUNDS} paired rounds: \
         recorder-off={off:.3}ms recorder-on={on:.3}ms ratio={ratio:.3}"
    );
    if ratio > BUDGET {
        eprintln!(
            "repro: flight-recorder overhead {:.1}% exceeds the {:.0}% budget",
            (ratio - 1.0) * 100.0,
            (BUDGET - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "flight-recorder overhead within budget ({:+.1}%)",
        (ratio - 1.0) * 100.0
    );
}

/// CI guard for the telemetry overhead budget: times the EQ1–EQ5 batch
/// (NG and SP) with telemetry disabled and enabled back-to-back in each
/// round and fails the process when the cleanest round still shows the
/// enabled engine costing more than 5% wall time. Pairing both modes
/// inside one round and taking the minimum ratio across rounds cancels
/// machine-load drift, which on CI boxes dwarfs the effect being
/// measured: a genuine regression inflates every round's ratio, while a
/// load spike inflates only the rounds it lands in.
fn overhead_guard(fixture: &Fixture) {
    const ROUNDS: usize = 5;
    const PASSES_PER_BATCH: usize = 5;
    const BUDGET: f64 = 1.05;
    const QUERIES: [Eq; 5] = [Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq5];

    println!("\n--- Telemetry overhead guard (budget: +5% wall time) ---");

    // Pre-resolve texts/datasets and warm the plan caches so the batch
    // measures execution, not compilation.
    let mut work = Vec::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = fixture.store(model);
        for eq in QUERIES {
            let text = fixture.query_text(eq, model);
            let dataset = fixture.dataset_for(eq, model);
            store.select_in(&dataset, &text).expect("overhead warm-up");
            work.push((store, dataset, text));
        }
    }
    let batch = || {
        let t0 = Instant::now();
        for _ in 0..PASSES_PER_BATCH {
            for (store, dataset, text) in &work {
                store.select_in(dataset, text).expect("overhead batch");
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    };

    let was_enabled = telemetry::enabled();
    let mut ratio = f64::INFINITY;
    let (mut off, mut on) = (f64::NAN, f64::NAN);
    for round in 0..ROUNDS {
        let timed = |enabled: bool| {
            telemetry::set_enabled(enabled);
            batch()
        };
        let (o, e) = if round % 2 == 0 {
            let o = timed(false);
            (o, timed(true))
        } else {
            let e = timed(true);
            (timed(false), e)
        };
        if e / o < ratio {
            (ratio, off, on) = (e / o, o, e);
        }
    }
    telemetry::set_enabled(was_enabled);

    println!(
        "batch = EQ1-EQ5 x NG,SP x {PASSES_PER_BATCH} passes, cleanest of {ROUNDS} paired rounds: \
         disabled={off:.3}ms enabled={on:.3}ms ratio={ratio:.3}"
    );
    if ratio > BUDGET {
        eprintln!(
            "repro: telemetry overhead {:.1}% exceeds the {:.0}% budget",
            (ratio - 1.0) * 100.0,
            (BUDGET - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!("telemetry overhead within budget ({:+.1}%)", (ratio - 1.0) * 100.0);
}

/// CI guard for the resource-governor cost: the EQ1–EQ5 batch under full
/// governance — an admission permit per query, a live cancellation token,
/// a (generous) memory budget, and a deadline — must finish within 5% of
/// the same batch ungoverned. Guards the per-row charge and the strided
/// deadline/cancel checks against accidental hot-path regressions.
/// Paired rounds + cleanest ratio, same noise model as the telemetry
/// guard.
fn governor_guard(fixture: &Fixture) {
    use pgrdf::GovernorConfig;
    use sparql::{CancelToken, ExecLimits, ExecOptions};
    use std::time::Duration;

    const ROUNDS: usize = 5;
    const PASSES_PER_BATCH: usize = 5;
    const BUDGET: f64 = 1.05;
    const QUERIES: [Eq; 5] = [Eq::Eq1, Eq::Eq2, Eq::Eq3, Eq::Eq4, Eq::Eq5];

    println!("\n--- Resource-governor overhead guard (budget: +5% wall time) ---");

    let mut work = Vec::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        let store = fixture.store(model);
        for eq in QUERIES {
            let text = fixture.query_text(eq, model);
            let dataset = fixture.dataset_for(eq, model);
            store.select_in(&dataset, &text).expect("governor warm-up");
            work.push((store, dataset, text));
        }
    }

    // Full governance: every charge path is live, no limit ever binds.
    let token = CancelToken::new();
    let governed_options = ExecOptions::default()
        .with_limits(
            ExecLimits::timeout(Duration::from_secs(3600)).with_max_memory(4 << 30),
        )
        .with_cancel(token.clone());
    let batch = |options: Option<&ExecOptions>| {
        let t0 = Instant::now();
        for _ in 0..PASSES_PER_BATCH {
            for (store, dataset, text) in &work {
                match options {
                    Some(o) => store
                        .select_in_with(dataset, text, o.clone())
                        .expect("governed batch"),
                    None => store.select_in(dataset, text).expect("bare batch"),
                };
            }
        }
        t0.elapsed().as_secs_f64() * 1e3
    };

    let mut ratio = f64::INFINITY;
    let (mut bare, mut governed) = (f64::NAN, f64::NAN);
    for round in 0..ROUNDS {
        let timed_bare = || {
            for (store, _, _) in &work {
                store.clear_governor();
            }
            batch(None)
        };
        let timed_governed = || {
            for (store, _, _) in &work {
                store.set_governor(GovernorConfig::concurrency(64));
            }
            batch(Some(&governed_options))
        };
        let (b, g) = if round % 2 == 0 {
            let b = timed_bare();
            (b, timed_governed())
        } else {
            let g = timed_governed();
            (timed_bare(), g)
        };
        if g / b < ratio {
            (ratio, bare, governed) = (g / b, b, g);
        }
    }
    for (store, _, _) in &work {
        store.clear_governor();
    }

    println!(
        "batch = EQ1-EQ5 x NG,SP x {PASSES_PER_BATCH} passes, cleanest of {ROUNDS} paired rounds: \
         bare={bare:.3}ms governed={governed:.3}ms ratio={ratio:.3}"
    );
    if ratio > BUDGET {
        eprintln!(
            "repro: governor overhead {:.1}% exceeds the {:.0}% budget",
            (ratio - 1.0) * 100.0,
            (BUDGET - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!("governor overhead within budget ({:+.1}%)", (ratio - 1.0) * 100.0);
}

/// Engine-counter snapshot used by the PR3 per-read diagnostics.
#[derive(Debug, Default)]
struct CounterTotals {
    index_scans: f64,
    rows_scanned: f64,
    rows_matched: f64,
    snapshot_pins: f64,
    cache_hits: f64,
}

/// Sums each counter family across its label series by parsing the
/// registry's own Prometheus rendering — the same path an external
/// scraper would use, so the diagnostics exercise the exposition too.
fn counter_totals() -> CounterTotals {
    let mut totals = CounterTotals::default();
    for line in telemetry::global().render_prometheus().lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        let Ok(value) = value.parse::<f64>() else { continue };
        let family = series.split('{').next().unwrap_or(series);
        match family {
            "pgrdf_index_range_scans_total" => totals.index_scans += value,
            "pgrdf_index_rows_scanned_total" => totals.rows_scanned += value,
            "pgrdf_index_rows_matched_total" => totals.rows_matched += value,
            "pgrdf_snapshot_pins_total" => totals.snapshot_pins += value,
            "pgrdf_plan_cache_hits_total" => totals.cache_hits += value,
            _ => {}
        }
    }
    totals
}

/// Nearest-rank percentile (q in 0..=100) over unsorted samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}
