//! The traced run: the same inputs for a fixed op count, with
//! `telemetry::set_enabled(true)`, each op taken apart from outside by
//! calling the layers' public functions in turn, and the lower layers
//! timed by direct calls. Per-layer metrics come from here; end-to-end
//! metrics never do.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use quadstore::{DatasetView, DurableStore, QuadPattern, RealFs, Store, SyncPolicy};
use rdf_model::{Quad, Term, TermId};
use sparql::{CompileOptions, CompiledQuery, ExecObserver, ExecOptions, PlanCache, QueryResults};
use telemetry::MetricValue;

use crate::run::{metric, timed_call, Bench, Config, Metric, Report};
use crate::setup::Env;
use crate::util::{geomean, json_str, median, str_hash, Calibrator};
use crate::workload::{Action, Reply};

/// Name and unit of every per-layer metric, in the order of
/// BENCHMARK.json (a unit test keeps the two in step).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("twittergen.generate_s", "s"),
    ("core.convert.quads_per_s", "1/s"),
    ("core.convert.sp_over_ng_quads", "ratio"),
    ("quadstore.bulk.load_quads_per_s", "1/s"),
    ("quadstore.stats.refresh_ms", "ms"),
    ("quadstore.index.bytes_per_quad", "bytes/quad"),
    ("rdf-model.dictionary.bytes_per_term", "bytes/term"),
    ("sparql.parser.parse_us", "us"),
    ("sparql.plan.compile_us", "us"),
    ("core.store.overhead_us", "us"),
    ("telemetry.flight_overhead_pct", "%"),
    ("rdf-model.dictionary.encode_ns", "ns"),
    ("rdf-model.dictionary.decode_ns", "ns"),
    ("sparql.cache.hit_ns", "ns"),
    ("sparql.cache.hit_ratio", "ratio"),
    ("sparql.cache.invalidations", "count"),
    ("sparql.exec.exec_ms", "ms"),
    ("sparql.exec.share", "ratio"),
    ("quadstore.index.scan_mrows_per_s", "Mrows/s"),
    ("quadstore.index.probe_ns", "ns"),
    ("quadstore.index.rows_scanned_per_result", "ratio"),
    ("sparql.exec.hash_build_rows", "count"),
    ("sparql.exec.rows_materialized_per_row_out", "ratio"),
    ("sparql.exec.cells_decoded", "count"),
    ("sparql.update.batch_us", "us"),
    ("quadstore.delta.insert_us_per_quad", "us"),
    ("quadstore.delta.compactions", "count"),
    ("quadstore.delta.compact_ms", "ms"),
    ("quadstore.delta.scan_slowdown", "ratio"),
    ("quadstore.wal.bytes_per_quad", "bytes/quad"),
    ("quadstore.wal.append_us", "us"),
    ("quadstore.persist.save_s", "s"),
    ("quadstore.persist.load_s", "s"),
    ("quadstore.persist.disk_bytes_per_quad", "bytes/quad"),
    ("sparql.plan.fingerprint_changes", "count"),
    ("sparql.exec.par2_speedup", "ratio"),
    ("harness.calib_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.trace_coverage", "ratio"),
    ("harness.trace_spans", "count"),
];

/// Quads in the scratch store the write-path layers are timed on.
const SCRATCH_QUADS: usize = 200_000;
/// Fresh compiles per op when looking for plan flips.
const FINGERPRINT_COMPILES: usize = 8;

/// One timed interval. `parent` is an index into the span buffer, or -1.
struct Span {
    name: &'static str,
    op_id: u32,
    parent: i64,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span buffer; written out once, at exit.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span that started at `start_ns`; returns `(index, seconds)`.
    fn close(&mut self, name: &'static str, op_id: u32, parent: i64, start_ns: u64) -> (i64, f64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        (
            self.spans.len() as i64 - 1,
            (end_ns - start_ns) as f64 * 1e-9,
        )
    }

    fn write(&self, path: &Path, cfg: &Config) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": {}, \"seed\": {}, \"scale\": {}, \"spans\": [",
            json_str(&cfg.workload),
            cfg.seed,
            cfg.scale
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{}\n{{\"name\": {}, \"op_id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(s.name),
                s.op_id,
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// The dataset and text of a read, or `None` for a write.
fn read_target<'a>(env: &Env, enc: usize, action: &'a Action) -> Option<(String, &'a str)> {
    match action {
        Action::Select { dataset, text } => Some((dataset.clone(), text)),
        Action::Ask { text } => Some((env.stores[enc].dataset_name(), text)),
        Action::Write { .. } => None,
    }
}

fn compile(view: &DatasetView, text: &str) -> Option<CompiledQuery> {
    let parsed = sparql::parse_query(text).ok()?;
    sparql::compile_with(view, &parsed, CompileOptions::default()).ok()
}

/// `explain::render` of a freshly compiled read; its hash is the plan
/// fingerprint the run header prints.
pub fn plan_text(env: &Env, enc: usize, action: &Action) -> Option<String> {
    let (dataset, text) = read_target(env, enc, action)?;
    let view = env.stores[enc].store().dataset(&dataset).ok()?;
    Some(sparql::explain::render(&compile(&view, text)?))
}

/// Sum of a telemetry counter (over its labels) or of a histogram.
fn telemetry_sum(name: &str) -> u64 {
    telemetry::global()
        .samples()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(c) => c,
            MetricValue::Gauge(g) => g.max(0) as u64,
            MetricValue::Histogram { sum, .. } => sum,
        })
        .sum()
}

/// What the traced replay adds up, in seconds unless named otherwise.
#[derive(Default)]
struct Totals {
    /// Over the reads that were taken apart: the parts (snapshot + cache +
    /// execution + recorder), execution alone, and the facade.
    parts: f64,
    exec: f64,
    facade_reads: f64,
    /// Facade time of the ops whose facade call ran before their parts,
    /// and of the ops at the same positions in the untraced pass.
    facade_traced: f64,
    facade_untraced: f64,
    /// Per read: facade minus plan-cache lookup minus execution, in us.
    overhead_us: Vec<f64>,
    parse_us: Vec<f64>,
    compile_us: Vec<f64>,
    /// Per op type: direct execution times in ms.
    exec_ms: BTreeMap<usize, Vec<f64>>,
    result_rows: u64,
    cells: u64,
    attempted: u64,
    failed: u64,
    calib_ms: Vec<f64>,
}

/// One mirror of the facade's plan cache per store: same capacity, same
/// key, same sequence of lookups, hence the same hits and misses.
type Mirrors = [PlanCache; 2];

/// A plan-cache lookup the way the facade does it.
fn mirror_lookup(
    mirror: &PlanCache,
    key: &str,
    text: &str,
    snapshot: &quadstore::Snapshot,
    view: &DatasetView,
    compile: impl FnOnce() -> Result<CompiledQuery, sparql::SparqlError>,
) -> Arc<CompiledQuery> {
    let copts = CompileOptions::default();
    mirror
        .get_or_compile(
            key,
            text,
            copts,
            snapshot.epoch(),
            || view.stats_version(),
            compile,
        )
        .expect("the warm-up round compiled this text")
}

/// Replays `rounds` rounds through the facade only, with telemetry off;
/// returns the facade seconds of each op in order. The mirrors see the
/// same reads, untimed.
fn untraced_pass(
    bench: &mut Bench,
    first: usize,
    rounds: usize,
    mirrors: &Mirrors,
    t: &mut Totals,
) -> Vec<f64> {
    let mut all = Vec::new();
    for round in first..first + rounds {
        bench.workload.advance(round);
        for pair in &bench.workload.pairs {
            for enc in 0..2 {
                let (secs, _, ok) = timed_call(&bench.env, pair, enc);
                all.push(secs);
                t.attempted += 1;
                t.failed += !ok as u64;
                let Some((dataset, text)) = read_target(&bench.env, enc, &pair.steps[enc].action)
                else {
                    continue;
                };
                let snapshot = bench.env.stores[enc].store().snapshot();
                let view = snapshot.dataset(&dataset).expect("dataset exists");
                let key = format!("{dataset}={}", view.index_signature());
                mirror_lookup(&mirrors[enc], &key, text, &snapshot, &view, || {
                    sparql::compile_with(
                        &view,
                        &sparql::parse_query(text)?,
                        CompileOptions::default(),
                    )
                });
            }
        }
    }
    all
}

/// Facade seconds of the current round's light reads with the flight
/// recorder on and off: each read is run both ways, in alternating order,
/// and the round is repeated until each side holds 500 calls or two
/// seconds have passed.
fn recorder_pass(bench: &Bench) -> (f64, f64) {
    let recorder = telemetry::flight_recorder();
    let light: Vec<_> = bench.workload.pairs.iter().filter(|p| p.light).collect();
    let mut secs = [0.0, 0.0];
    let (mut calls, mut off_first) = (0, false);
    let started = Instant::now();
    while !light.is_empty() && calls < 500 && started.elapsed().as_secs_f64() < 2.0 {
        for pair in &light {
            for enc in 0..2 {
                off_first = !off_first;
                for on in [!off_first, off_first] {
                    recorder.set_enabled(on);
                    secs[on as usize] += timed_call(&bench.env, pair, enc).0;
                }
                calls += 1;
            }
        }
    }
    recorder.set_enabled(true);
    (secs[1], secs[0])
}

/// Replays `rounds` rounds with every read taken apart: snapshot, plan
/// cache (parse and compile inside it on a miss), execution, and then
/// the facade call for the same op. Parts and facade swap order from op
/// to op so neither always runs on the caches the other warmed.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    calibrator: &mut Calibrator,
    bench: &mut Bench,
    first: usize,
    rounds: usize,
    untraced: &[f64],
    mirrors: &Mirrors,
    tr: &mut Tracer,
    t: &mut Totals,
) {
    let copts = CompileOptions::default();
    let mut op_id = 0u32;
    let mut last_calib = Instant::now();
    for round in first..first + rounds {
        bench.workload.advance(round);
        for pair in &bench.workload.pairs {
            if last_calib.elapsed().as_secs_f64() >= 1.0 || t.calib_ms.is_empty() {
                t.calib_ms.push(calibrator.sample_ms());
                last_calib = Instant::now();
            }
            for enc in 0..2 {
                op_id += 1;
                let store = &bench.env.stores[enc];
                let root_start = tr.now();
                let root = tr.spans.len() as i64;
                tr.spans.push(Span {
                    name: bench.workload.ops[pair.op],
                    op_id,
                    parent: -1,
                    start_ns: root_start,
                    end_ns: root_start,
                });
                let facade = |tr: &mut Tracer, t: &mut Totals| {
                    let start = tr.now();
                    let (_, got, ok) = timed_call(&bench.env, pair, enc);
                    let (_, secs) = tr.close("core.store.facade", op_id, root, start);
                    t.attempted += 1;
                    t.failed += !ok as u64;
                    if let Some((Reply::Rows(s), _)) = &got {
                        t.result_rows += s.len() as u64;
                        t.cells += (s.len() * s.vars.len()) as u64;
                    }
                    secs
                };
                let Some((dataset, text)) = read_target(&bench.env, enc, &pair.steps[enc].action)
                else {
                    t.facade_traced += facade(tr, t);
                    t.facade_untraced += untraced[op_id as usize - 1];
                    tr.spans[root as usize].end_ns = tr.now();
                    continue;
                };
                let facade_first = op_id % 2 == 1;
                let mut facade_s = 0.0;
                if facade_first {
                    facade_s = facade(tr, t);
                    t.facade_traced += facade_s;
                    t.facade_untraced += untraced[op_id as usize - 1];
                }

                let start = tr.now();
                let snapshot = store.store().snapshot();
                let view = snapshot.dataset(&dataset).expect("dataset exists");
                let snapshot_s = tr.close("quadstore.store.snapshot", op_id, root, start).1;

                // The key is built inside the span: the facade builds it too.
                let start = tr.now();
                let key = format!("{dataset}={}", view.index_signature());
                let mut inner = None;
                let plan = mirror_lookup(&mirrors[enc], &key, text, &snapshot, &view, || {
                    let p0 = tr.now();
                    let parsed = sparql::parse_query(text)?;
                    let p1 = tr.now();
                    let compiled = sparql::compile_with(&view, &parsed, copts);
                    inner = Some((p0, p1, tr.now()));
                    compiled
                });
                let (cache_span, cache_s) =
                    tr.close("sparql.cache.get_or_compile", op_id, root, start);
                if let Some((p0, p1, p2)) = inner {
                    for (name, a, b, into) in [
                        ("sparql.parser.parse", p0, p1, &mut t.parse_us),
                        ("sparql.plan.compile", p1, p2, &mut t.compile_us),
                    ] {
                        tr.spans.push(Span {
                            name,
                            op_id,
                            parent: cache_span,
                            start_ns: a,
                            end_ns: b,
                        });
                        into.push((b - a) as f64 * 1e-3);
                    }
                }

                // With an observer attached, as the facade runs every
                // query while the flight recorder is on.
                let start = tr.now();
                let options = ExecOptions::threads(1).with_observer(Arc::new(ExecObserver::new()));
                let results = sparql::execute_compiled_with_options(&view, &plan, options);
                let exec_s = tr.close("sparql.exec.execute", op_id, root, start).1;
                t.exec_ms.entry(pair.op).or_default().push(exec_s * 1e3);
                let rows = match &results {
                    Ok(QueryResults::Solutions(s)) => s.len() as u64,
                    _ => 0,
                };
                t.result_rows += rows;
                let start = tr.now();
                mirrors[enc].note_result(&key, text, copts, rows);
                let note_s = tr.close("sparql.cache.note_result", op_id, root, start).1;

                // The facade's routing and admission checks, and what it
                // hands the flight recorder for each query.
                let start = tr.now();
                std::hint::black_box((pgrdf::is_sys_query(text), store.governor().is_some()));
                telemetry::flight_recorder().record(telemetry::QueryEvent {
                    query_id: telemetry::next_query_id(),
                    family: pgrdf::metrics::family(&plan),
                    text_hash: telemetry::fnv1a64(text.as_bytes()),
                    admission_wait_nanos: 0,
                    cache_hit: inner.is_none(),
                    compile_nanos: 0,
                    exec_nanos: (exec_s * 1e9) as u64,
                    rows_out: rows,
                    peak_mem_bytes: 0,
                    threads: 1,
                    vectorized: true,
                    outcome: telemetry::QueryOutcome::Ok,
                    spans: Vec::new(),
                });
                let recorder_s = tr.close("telemetry.flight.record", op_id, root, start).1;

                if !facade_first {
                    facade_s = facade(tr, t);
                }
                let parts_s = snapshot_s + cache_s + exec_s + note_s + recorder_s;
                t.parts += parts_s;
                t.exec += exec_s;
                t.facade_reads += facade_s;
                t.overhead_us
                    .push((facade_s - cache_s - note_s - exec_s) * 1e6);
                tr.spans[root as usize].end_ns = tr.now();
            }
        }
    }
}

/// A directory for WAL and snapshot files inside the build directory,
/// which lies in the checkout and is ignored by git.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent()
        .expect("a file has a parent")
        .join(format!("pgbench-tmp-{}", std::process::id()))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Seconds per call of `f`, as the median of `reps` timings.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The read-side layers under the executor, by direct calls with the
/// workload's own patterns: a full `follows` scan, one probe per pool
/// vertex, and the dictionary both ways.
fn read_layers(bench: &Bench, out: &mut BTreeMap<&'static str, f64>) {
    let store = &bench.env.stores[0];
    let dataset = match store.partition_names() {
        Some(names) => names.topology,
        None => store.dataset_name(),
    };
    let view = store.store().dataset(&dataset).expect("dataset exists");
    let dict = view.dictionary();
    let vocab = store.vocab();
    let follows = dict.get(&Term::Iri(vocab.label_iri("follows")));
    let terms: Vec<Term> = bench
        .known
        .params
        .vertex_pool
        .iter()
        .map(|v| Term::Iri(vocab.vertex_iri(*v)))
        .collect();
    let ids: Vec<TermId> = terms.iter().filter_map(|t| dict.get(t)).collect();

    let pattern = QuadPattern {
        p: follows,
        ..QuadPattern::any()
    };
    let mut rows = 0usize;
    let scan_s = time_median(5, || {
        rows = std::hint::black_box(view.scan(pattern).count())
    });
    out.insert(
        "quadstore.index.scan_mrows_per_s",
        rows as f64 / scan_s / 1e6,
    );

    let probe_s = time_median(20, || {
        for id in &ids {
            let probe = QuadPattern {
                s: Some(*id),
                ..pattern
            };
            std::hint::black_box(view.probe(probe).count());
        }
    });
    out.insert("quadstore.index.probe_ns", probe_s / ids.len() as f64 * 1e9);

    let encode_s = time_median(20, || {
        for term in &terms {
            std::hint::black_box(dict.get(term));
        }
    });
    out.insert(
        "rdf-model.dictionary.encode_ns",
        encode_s / terms.len() as f64 * 1e9,
    );
    let decode_s = time_median(20, || {
        for id in &ids {
            std::hint::black_box(dict.lookup(*id));
        }
    });
    out.insert(
        "rdf-model.dictionary.decode_ns",
        decode_s / ids.len() as f64 * 1e9,
    );

    // Optimizer statistics of every member model of both stores.
    let t0 = Instant::now();
    for store in &bench.env.stores {
        let all = store
            .store()
            .dataset(&store.dataset_name())
            .expect("dataset exists");
        for model in all.members() {
            model.refresh_cbo_stats();
        }
    }
    out.insert(
        "quadstore.stats.refresh_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // A plan-cache hit, on a cache of its own.
    let cache = PlanCache::default();
    let text = "SELECT ?s WHERE { ?s ?p ?o }";
    let lookup = || {
        cache
            .get_or_compile(
                "d",
                text,
                CompileOptions::default(),
                1,
                || 0,
                || compile(&view, text).ok_or(sparql::SparqlError::Unsupported("compile".into())),
            )
            .expect("compiles")
    };
    lookup();
    let hit_s = time_median(20, || {
        for _ in 0..256 {
            std::hint::black_box(lookup());
        }
    });
    out.insert("sparql.cache.hit_ns", hit_s / 256.0 * 1e9);

    // Storage: index bytes per quad and dictionary bytes per term.
    let (mut index_bytes, mut quads, mut dict_bytes, mut terms) = (0usize, 0usize, 0usize, 0usize);
    for store in &bench.env.stores {
        for row in store.storage_report().rows {
            match row.object.as_str() {
                "Quads Table" => quads += row.entries,
                "Values Table" => {
                    dict_bytes += row.bytes;
                    terms += row.entries;
                }
                _ => index_bytes += row.bytes,
            }
        }
    }
    out.insert(
        "quadstore.index.bytes_per_quad",
        index_bytes as f64 / quads as f64,
    );
    out.insert(
        "rdf-model.dictionary.bytes_per_term",
        dict_bytes as f64 / terms as f64,
    );
}

/// The write-side layers, on a scratch store holding the first
/// `SCRATCH_QUADS` quads of the NG store: `WriteBatch`, delta scans,
/// `Store::compact`, SPARQL Update, `DurableStore` and `persist`. None of
/// them is in a timed path of any workload (fsync on a shared VM is
/// noise); they are the baseline for a later durable workload.
fn write_layers(bench: &Bench, out: &mut BTreeMap<&'static str, f64>) -> std::io::Result<()> {
    let source = &bench.env.stores[0];
    let all = source
        .store()
        .dataset(&source.dataset_name())
        .expect("dataset exists");
    let quads: Vec<Quad> = all
        .scan_decoded(QuadPattern::any())
        .take(SCRATCH_QUADS)
        .collect();
    let scratch = Store::with_default_indexes(&quadstore::IndexKind::PAPER_FOUR);
    scratch.create_model("m").expect("fresh store");
    scratch.bulk_load("m", &quads).expect("model exists");
    let fresh: Vec<Quad> = (0..1000)
        .map(|i| {
            Quad::triple(
                Term::iri(format!("http://pg/scratch/s{i}")),
                Term::iri("http://pg/r/follows"),
                Term::iri(format!("http://pg/scratch/o{}", i % 37)),
            )
            .expect("IRIs are valid in every position")
        })
        .collect();

    // 256 probes `(s, follows, ?)`, the pattern a nested-loop join issues
    // once per input row: each probe of a delta-bearing model also has to
    // look through the pending entries.
    let follows = scratch.term_id(&Term::iri("http://pg/r/follows"));
    let subjects: Vec<TermId> = quads
        .iter()
        .filter_map(|q| scratch.term_id(&q.subject))
        .step_by(quads.len() / 256 + 1)
        .collect();
    let scan = |store: &Store| {
        let view = store.dataset("m").expect("model exists");
        time_median(5, || {
            for s in &subjects {
                let probe = QuadPattern {
                    s: Some(*s),
                    p: follows,
                    ..QuadPattern::any()
                };
                std::hint::black_box(view.probe(probe).count());
            }
        })
    };
    let compacted_s = scan(&scratch);
    let t0 = Instant::now();
    let mut batch = scratch.begin();
    for quad in &fresh {
        batch.insert("m", quad).expect("model exists");
    }
    batch.commit();
    out.insert(
        "quadstore.delta.insert_us_per_quad",
        t0.elapsed().as_secs_f64() * 1e6 / fresh.len() as f64,
    );
    out.insert(
        "quadstore.delta.scan_slowdown",
        scan(&scratch) / compacted_s,
    );
    let t0 = Instant::now();
    scratch.compact("m").expect("model exists");
    out.insert(
        "quadstore.delta.compact_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // SPARQL Update: 16-quad INSERT DATA statements through the parser.
    let statements: Vec<String> = (0..16)
        .map(|s| {
            let body: String = (0..16)
                .map(|i| format!("<http://pg/scratch/u{s}_{i}> <http://pg/r/follows> <http://pg/scratch/o{i}> . "))
                .collect();
            format!("INSERT DATA {{ {body}}}")
        })
        .collect();
    let mut next = statements.iter();
    let update_s = time_median(statements.len(), || {
        let text = next.next().expect("one statement per repetition");
        sparql::update(&scratch, "m", text).expect("ground INSERT DATA");
    });
    out.insert("sparql.update.batch_us", update_s * 1e6);

    // Durability: Manual sync and one final sync, so byte counts repeat.
    let dir = scratch_dir();
    let io = |e: quadstore::StoreError| std::io::Error::other(e.to_string());
    let mut durable =
        DurableStore::open_with(dir.join("wal"), Arc::new(RealFs), SyncPolicy::Manual)
            .map_err(io)?;
    durable.create_model("m").map_err(io)?;
    let t0 = Instant::now();
    for quad in &fresh {
        durable.insert("m", quad).map_err(io)?;
    }
    let append_s = t0.elapsed().as_secs_f64();
    durable.sync().map_err(io)?;
    out.insert(
        "quadstore.wal.append_us",
        append_s * 1e6 / fresh.len() as f64,
    );
    out.insert(
        "quadstore.wal.bytes_per_quad",
        durable.wal_len() as f64 / fresh.len() as f64,
    );
    drop(durable);

    let snap = dir.join("snapshot");
    let t0 = Instant::now();
    quadstore::persist::save_to_dir(&scratch, &snap).map_err(io)?;
    out.insert("quadstore.persist.save_s", t0.elapsed().as_secs_f64());
    let stored = scratch.dataset("m").expect("model exists").len();
    out.insert(
        "quadstore.persist.disk_bytes_per_quad",
        dir_bytes(&snap) as f64 / stored as f64,
    );
    let t0 = Instant::now();
    let loaded = quadstore::persist::load_from_dir(&snap).map_err(io)?;
    out.insert("quadstore.persist.load_s", t0.elapsed().as_secs_f64());
    assert_eq!(
        loaded.dataset("m").map(|v| v.len()).ok(),
        Some(stored),
        "snapshot round trip"
    );
    std::fs::remove_dir_all(&dir)
}

/// Fresh compiles of each op type: parse and compile times, and how many
/// ops change plan between compiles (a bimodal latency waiting to happen).
fn compile_layers(bench: &Bench, t: &mut Totals) -> (f64, Vec<String>) {
    let mut flipping = Vec::new();
    let (mut parse_us, mut compile_us) = (Vec::new(), Vec::new());
    for (op, name) in bench.workload.ops.iter().enumerate() {
        let Some(pair) = bench.workload.pairs.iter().find(|p| p.op == op) else {
            continue;
        };
        for enc in 0..2 {
            let Some((dataset, text)) = read_target(&bench.env, enc, &pair.steps[enc].action)
            else {
                continue;
            };
            let view = bench.env.stores[enc]
                .store()
                .dataset(&dataset)
                .expect("dataset exists");
            let mut prints = Vec::new();
            for _ in 0..FINGERPRINT_COMPILES {
                let t0 = Instant::now();
                let parsed = sparql::parse_query(text).expect("the warm-up round parsed this text");
                let t1 = Instant::now();
                let plan = sparql::compile_with(&view, &parsed, CompileOptions::default())
                    .expect("the warm-up round compiled this text");
                compile_us.push(t1.elapsed().as_secs_f64() * 1e6);
                parse_us.push((t1 - t0).as_secs_f64() * 1e6);
                prints.push(str_hash(&sparql::explain::render(&plan)));
            }
            if prints.iter().any(|p| *p != prints[0]) {
                flipping.push(format!("{name}/{}", crate::setup::ENC_NAMES[enc]));
            }
        }
    }
    // A workload that compiles inside its loop reports what the loop paid
    // (cache-cold, 3-4x a tight loop); one that always hits the plan
    // cache has only these stand-alone compiles to report.
    if t.parse_us.is_empty() {
        t.parse_us = parse_us;
        t.compile_us = compile_us;
    }
    (flipping.len() as f64, flipping)
}

/// EQ9 and EQ12 at two threads against one, NG store. Diagnostic only:
/// the box has two shared cores.
fn par2_speedup(bench: &Bench) -> f64 {
    let store = &bench.env.stores[0];
    let dataset = match store.partition_names() {
        Some(names) => names.topology,
        None => store.dataset_name(),
    };
    let view = store.store().dataset(&dataset).expect("dataset exists");
    let qs = store.queries();
    let ratios: Vec<f64> = [qs.eq9(), qs.eq12()]
        .iter()
        .filter_map(|text| {
            let plan = compile(&view, text)?;
            let run = |threads: usize| {
                let t0 = Instant::now();
                let r = sparql::execute_compiled_with_options(
                    &view,
                    &plan,
                    ExecOptions::threads(threads),
                );
                std::hint::black_box(r.is_ok());
                t0.elapsed().as_secs_f64()
            };
            let one = run(1);
            Some(one / run(2))
        })
        .collect();
    geomean(&ratios)
}

/// `pgbench trace`: the per-layer metrics of one workload.
pub fn trace(cfg: &Config) -> Report {
    let mut calibrator = Calibrator::new();
    let mut bench = Bench::set_up(cfg, None, &mut calibrator);
    print!("{}", bench.header());
    let times = bench.env.times;
    let rounds = bench.workload.trace_rounds;
    let first = bench.first_round();
    let mut totals = Totals {
        failed: bench.verify_failed,
        ..Totals::default()
    };
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mirrors = [PlanCache::default(), PlanCache::default()];
    let untraced = untraced_pass(&mut bench, first, rounds, &mirrors, &mut totals);
    let (recorder_on_s, recorder_off_s) = recorder_pass(&bench);

    telemetry::set_enabled(true);
    let caches = |b: &Bench| {
        let sum = |f: &dyn Fn(&PlanCache) -> u64| -> u64 {
            b.env.stores.iter().map(|s| f(s.plan_cache())).sum()
        };
        [
            sum(&|c| c.hits()),
            sum(&|c| c.misses()),
            sum(&|c| c.invalidations()),
        ]
    };
    let counters = || {
        [
            telemetry_sum("pgrdf_index_rows_scanned_total"),
            telemetry_sum("pgrdf_index_rows_matched_total"),
            telemetry_sum("pgrdf_hash_build_rows"),
            telemetry_sum("pgrdf_compactions_total"),
        ]
    };
    let (cache0, count0) = (caches(&bench), counters());
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(1 << 16),
    };
    traced_pass(
        &mut calibrator,
        &mut bench,
        first + rounds,
        rounds,
        &untraced,
        &mirrors,
        &mut tracer,
        &mut totals,
    );
    let (cache1, count1) = (caches(&bench), counters());
    telemetry::set_enabled(false);
    let delta = |a: u64, b: u64| (b - a) as f64;

    // Before `read_layers`, whose statistics refresh the next compile pays for.
    let (flips, flipping) = compile_layers(&bench, &mut totals);
    if !flipping.is_empty() {
        println!(
            "plans that changed between fresh compiles: {}",
            flipping.join(" ")
        );
    }
    read_layers(&bench, &mut layers);
    if let Err(err) = write_layers(&bench, &mut layers) {
        eprintln!("pgbench: write-side layers failed: {err}");
        totals.failed += 1;
    }

    let quads = (times.quads[0] + times.quads[1]) as f64;
    let lookups = delta(cache0[0], cache1[0]) + delta(cache0[1], cache1[1]);
    let coverage = totals.parts / totals.facade_reads;
    let exec_medians: Vec<f64> = totals.exec_ms.values().map(|v| median(v)).collect();
    layers.extend([
        ("twittergen.generate_s", times.generate_s),
        ("core.convert.quads_per_s", quads / times.convert_s),
        (
            "core.convert.sp_over_ng_quads",
            times.quads[1] as f64 / times.quads[0] as f64,
        ),
        ("quadstore.bulk.load_quads_per_s", quads / times.load_s),
        ("sparql.parser.parse_us", median(&totals.parse_us)),
        ("sparql.plan.compile_us", median(&totals.compile_us)),
        ("core.store.overhead_us", median(&totals.overhead_us)),
        (
            "telemetry.flight_overhead_pct",
            if recorder_off_s > 0.0 {
                (recorder_on_s / recorder_off_s - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        (
            "sparql.cache.hit_ratio",
            if lookups > 0.0 {
                delta(cache0[0], cache1[0]) / lookups
            } else {
                0.0
            },
        ),
        ("sparql.cache.invalidations", delta(cache0[2], cache1[2])),
        ("sparql.exec.exec_ms", geomean(&exec_medians)),
        ("sparql.exec.share", totals.exec / totals.facade_reads),
        (
            "quadstore.index.rows_scanned_per_result",
            delta(count0[0], count1[0]) / totals.result_rows.max(1) as f64,
        ),
        (
            "sparql.exec.rows_materialized_per_row_out",
            delta(count0[1], count1[1]) / totals.result_rows.max(1) as f64,
        ),
        ("sparql.exec.hash_build_rows", delta(count0[2], count1[2])),
        ("quadstore.delta.compactions", delta(count0[3], count1[3])),
        ("sparql.exec.cells_decoded", totals.cells as f64),
        ("sparql.plan.fingerprint_changes", flips),
        ("sparql.exec.par2_speedup", par2_speedup(&bench)),
        ("harness.calib_ms", median(&totals.calib_ms)),
        (
            "harness.trace_overhead_pct",
            (totals.facade_traced / totals.facade_untraced - 1.0) * 100.0,
        ),
        ("harness.trace_coverage", coverage),
        ("harness.trace_spans", tracer.spans.len() as f64),
    ]);

    let path = scratch_dir().with_file_name(format!("trace-{}.json", cfg.workload));
    match tracer.write(&path, cfg) {
        Ok(()) => println!("{} spans written to {}", tracer.spans.len(), path.display()),
        Err(err) => {
            eprintln!("pgbench: cannot write {}: {err}", path.display());
            totals.failed += 1;
        }
    }
    // Reported, not failed: what the parts leave out is the facade's own
    // time, a tenth of a 20 us lookup and nothing of a 20 ms join.
    if !(0.9..=1.1).contains(&coverage) {
        eprintln!("pgbench: warning: trace coverage {coverage:.3} is outside [0.9, 1.1]");
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| metric(name, layers.get(name).copied().unwrap_or(f64::NAN), unit))
        .collect();
    Report {
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// BENCHMARK.json declares exactly the metrics the binary prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let section = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(section.matches("\"name\"").count(), PER_LAYER.len());
        for name in [
            "setup_s",
            "ng_query_ms",
            "sp_query_ms",
            "ops_per_s",
            "bytes_per_quad",
            "peak_rss_mb",
        ] {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
    }
}
