//! `pgq` — a small command-line front end for the PG-as-RDF store.
//!
//! ```text
//! pgq --graph graph.tsv [--model ng|sp|rf] [--partitioned] [--json] \
//!     [--explain] [QUERY | -]           # '-' reads the query from stdin
//! pgq --demo                            # Figure 1 graph + Table 3 Q2
//! pgq --generate 0.01 --out graph.tsv   # write a synthetic Twitter graph
//! pgq --snap DIR ...                    # load a SNAP egonets directory
//! pgq --demo --workers 8 --replay q.rq  # replay a query file from 8
//!                                       # threads over one shared store
//! pgq --demo --profile QUERY            # EXPLAIN ANALYZE + profile JSON
//! pgq --demo --metrics QUERY            # Prometheus metrics dump
//! pgq --demo QUERY --sys "SELECT ..."   # then query the engine itself
//! pgq --demo --trace-out t.json QUERY   # Chrome trace of the query
//! ```
//!
//! Replay files hold one query per paragraph: queries are separated by
//! blank lines, and lines starting with `#` are comments. All workers
//! share a single store — snapshot isolation means no locking between
//! them — and the aggregate throughput plus per-query p50/p95/p99
//! latency is reported on stderr.
//!
//! `--profile` runs the query on the executor and thread count that serve
//! it unprofiled, with per-step tallies on (per-step time is summed over
//! workers), and prints its `EXPLAIN ANALYZE` text followed by the structured
//! `QueryProfile` as JSON. `--metrics` enables the telemetry layer for
//! the whole run and dumps the global registry in Prometheus text
//! exposition format after the work completes; both flags compose with
//! any load/query/replay mode.
//!
//! `--sys "<sparql>"` runs a second query against the engine's own
//! system graphs after the main work — the flight recorder, registry
//! metrics, plan cache, and storage stats materialized as RDF (see the
//! vocabulary in `--help`). `--trace-out FILE` writes the main query's
//! span timeline as Chrome `chrome://tracing` JSON.
//!
//! Resource-governor flags:
//! `--timeout SECS` gives every query a deadline, `--memory-limit BYTES`
//! (suffixes k/m/g) caps each query's intermediate-state estimate, and
//! `--max-concurrent N` installs an admission governor so at most N
//! queries run at once (replay reports admitted/queued/shed counts and
//! queue-wait percentiles). Ctrl-C cancels the running query
//! cooperatively via a [`sparql::CancelToken`]; a second Ctrl-C exits.

use std::io::Read as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pgrdf::{GovernorConfig, LoadOptions, PartitionLayout, PgRdfModel, PgRdfStore, PgVocab};
use propertygraph::PropertyGraph;

struct Args {
    graph: Option<String>,
    snap: Option<String>,
    model: PgRdfModel,
    partitioned: bool,
    json: bool,
    explain: bool,
    profile: bool,
    metrics: bool,
    demo: bool,
    generate: Option<f64>,
    out: Option<String>,
    workers: usize,
    replay: Option<String>,
    repeat: usize,
    timeout: Option<f64>,
    memory_limit: Option<u64>,
    max_concurrent: usize,
    explain_logical: bool,
    sys: Option<String>,
    trace_out: Option<String>,
    query: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pgq [--graph FILE.tsv | --snap DIR | --demo | --generate SCALE --out FILE]\n\
         \x20          [--model ng|sp|rf] [--partitioned] [--json] [--explain]\n\
         \x20          [--explain-logical] [--profile] [--metrics] [--sys SPARQL]\n\
         \x20          [--trace-out FILE] [--timeout SECS] [--memory-limit BYTES[k|m|g]]\n\
         \x20          [--max-concurrent N] [--workers N]\n\
         \x20          [--replay FILE.rq] [--repeat N] [QUERY|-]\n\
         \n\
         system graphs (--sys, or any query naming them; PREFIX sys: <pgrdf:sys#>):\n\
         \x20 <pgrdf:sys/queries>  flight recorder — per query: sys:queryId sys:family\n\
         \x20                      sys:textHash sys:admissionWaitNanos sys:cacheHit\n\
         \x20                      sys:compileNanos sys:execNanos sys:rowsOut\n\
         \x20                      sys:peakMemBytes sys:threads sys:vectorized (a\n\
         \x20                      vectorized pipeline ran — the plan's shape decides)\n\
         \x20                      sys:outcome (ok|cancelled|deadline|memory_exhausted|shed)\n\
         \x20                      sys:spanCount\n\
         \x20 <pgrdf:sys/metrics>  registry — sys:name sys:label sys:help sys:kind, plus\n\
         \x20                      sys:value (counter/gauge) or sys:count sys:sum\n\
         \x20                      sys:p50 sys:p95 sys:p99 (histogram)\n\
         \x20 <pgrdf:sys/plans>    plan cache — per entry: sys:dataset sys:text\n\
         \x20                      sys:epoch sys:statsVersion sys:hits\n\
         \x20                      sys:ageTicks sys:estimatedRows sys:actualRows;\n\
         \x20                      cache-wide counters under <pgrdf:sys/plancache>\n\
         \x20 <pgrdf:sys/store>    storage — per object: sys:object sys:entries\n\
         \x20                      sys:bytes; totals under <pgrdf:sys/store>\n\
         \n\
         example: pgq --demo --sys \"SELECT ?q ?ns WHERE {{ GRAPH <pgrdf:sys/queries>\n\
         \x20        {{ ?q <pgrdf:sys#execNanos> ?ns }} }} ORDER BY DESC(?ns)\""
    );
    std::process::exit(2);
}

/// The token Ctrl-C cancels; shared with every query this process runs.
static CANCEL: OnceLock<sparql::CancelToken> = OnceLock::new();
static SIGINTS: AtomicU64 = AtomicU64::new(0);

extern "C" fn on_sigint(_sig: i32) {
    // First Ctrl-C: flip the token (one relaxed atomic store — signal
    // safe); running queries abort cooperatively with `Cancelled`.
    // Second Ctrl-C: give up waiting and exit like a default handler.
    if SIGINTS.fetch_add(1, Ordering::SeqCst) >= 1 {
        std::process::exit(130);
    }
    if let Some(token) = CANCEL.get() {
        token.cancel();
    }
}

fn install_sigint_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Parses a byte count with an optional binary k/m/g suffix.
fn parse_bytes(s: &str) -> Option<u64> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = t.strip_suffix('g') {
        (d, 1u64 << 30)
    } else if let Some(d) = t.strip_suffix('m') {
        (d, 1u64 << 20)
    } else if let Some(d) = t.strip_suffix('k') {
        (d, 1u64 << 10)
    } else {
        (t.as_str(), 1u64)
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .map(|n| n.saturating_mul(mult))
}

/// Execution options for one query run: fresh deadline (timeouts are
/// per-query, not per-process), the memory budget, and the process-wide
/// cancel token.
fn exec_options(args: &Args) -> sparql::ExecOptions {
    let mut limits = sparql::ExecLimits::default();
    if let Some(secs) = args.timeout {
        limits.deadline = Some(Instant::now() + Duration::from_secs_f64(secs));
    }
    limits.max_memory = args.memory_limit;
    let options = sparql::ExecOptions {
        limits,
        ..Default::default()
    };
    match CANCEL.get() {
        Some(token) => options.with_cancel(token.clone()),
        None => options,
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        graph: None,
        snap: None,
        model: PgRdfModel::NG,
        partitioned: false,
        json: false,
        explain: false,
        profile: false,
        metrics: false,
        demo: false,
        generate: None,
        out: None,
        workers: 1,
        replay: None,
        repeat: 1,
        timeout: None,
        memory_limit: None,
        max_concurrent: 0,
        explain_logical: false,
        sys: None,
        trace_out: None,
        query: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--graph" => args.graph = argv.next(),
            "--snap" => args.snap = argv.next(),
            "--model" => {
                args.model = match argv.next().as_deref() {
                    Some("ng") | Some("NG") => PgRdfModel::NG,
                    Some("sp") | Some("SP") => PgRdfModel::SP,
                    Some("rf") | Some("RF") => PgRdfModel::RF,
                    _ => usage(),
                }
            }
            "--partitioned" => args.partitioned = true,
            "--json" => args.json = true,
            "--explain" => args.explain = true,
            "--profile" => args.profile = true,
            "--metrics" => args.metrics = true,
            "--demo" => args.demo = true,
            "--generate" => args.generate = argv.next().and_then(|s| s.parse().ok()),
            "--out" => args.out = argv.next(),
            "--workers" => {
                args.workers = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--replay" => args.replay = argv.next(),
            "--repeat" => {
                args.repeat = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--timeout" => {
                args.timeout = Some(
                    argv.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--memory-limit" => {
                args.memory_limit = Some(
                    argv.next()
                        .as_deref()
                        .and_then(parse_bytes)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--max-concurrent" => {
                args.max_concurrent = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--explain-logical" => args.explain_logical = true,
            "--sys" => args.sys = Some(argv.next().unwrap_or_else(|| usage())),
            "--trace-out" => args.trace_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            q => args.query = Some(q.to_string()),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // Turn the engine counters on before any load/query work so the
    // final dump covers the whole run.
    if args.metrics || args.profile {
        telemetry::set_enabled(true);
    }

    let _ = CANCEL.set(sparql::CancelToken::new());
    install_sigint_handler();

    if let Some(scale) = args.generate {
        let graph = twittergen::generate(&twittergen::TwitterGenConfig::at_scale(scale));
        let tsv = propertygraph::csv::to_tsv(&graph);
        match &args.out {
            Some(path) => {
                std::fs::write(path, tsv).unwrap_or_else(|e| fail(&format!("write: {e}")));
                eprintln!(
                    "wrote {} vertices / {} edges to {path}",
                    graph.vertex_count(),
                    graph.edge_count()
                );
            }
            None => print!("{tsv}"),
        }
        return;
    }

    let graph: PropertyGraph = if args.demo {
        PropertyGraph::sample_figure1()
    } else if let Some(path) = &args.graph {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        propertygraph::csv::from_tsv(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")))
    } else if let Some(dir) = &args.snap {
        twittergen::snap::load_directory(std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(&format!("load SNAP dir {dir}: {e}")))
    } else {
        usage();
    };

    let vocab = if args.demo {
        PgVocab::default()
    } else {
        PgVocab::twitter()
    };
    let store = PgRdfStore::load_with(
        &graph,
        args.model,
        LoadOptions {
            vocab,
            layout: if args.partitioned {
                PartitionLayout::Partitioned
            } else {
                PartitionLayout::Monolithic
            },
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("load: {e}")));
    eprintln!(
        "loaded {} vertices / {} edges as {} ({} quads)",
        graph.vertex_count(),
        graph.edge_count(),
        args.model,
        store.stats().quads
    );

    if args.max_concurrent > 0 {
        store.set_governor(GovernorConfig {
            max_concurrent: args.max_concurrent,
            ..GovernorConfig::default()
        });
        eprintln!(
            "admission governor: at most {} concurrent quer{}",
            args.max_concurrent,
            if args.max_concurrent == 1 { "y" } else { "ies" }
        );
    }

    // Span timelines are captured when the slow-query log is armed; a
    // 1ns threshold makes every query "slow", so `--trace-out` always
    // has a timeline to export.
    if args.trace_out.is_some() {
        store.set_slow_query_threshold(1);
    }

    let single_query = match &args.query {
        Some(q) if q == "-" => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("stdin: {e}")));
            Some(buf)
        }
        Some(q) => Some(q.clone()),
        None if args.demo => Some(store.queries().q2_edge_kvs()),
        None => None,
    };

    // Concurrent replay: N worker threads hammer one shared store.
    if args.workers > 1 || args.replay.is_some() {
        let queries: Vec<String> = match &args.replay {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
                split_queries(&text)
            }
            None => single_query.clone().into_iter().collect(),
        };
        if queries.is_empty() {
            fail("replay: no queries (file empty, or missing QUERY argument)");
        }
        replay(
            &store,
            &queries,
            args.workers.max(1),
            args.repeat.max(1),
            &args,
        );
        write_latest_trace(&store, &args);
        run_sys(&store, &args);
        dump_metrics(&args);
        return;
    }

    let query = match single_query {
        Some(q) => q,
        // `--sys` alone: skip the main query and only introspect.
        None if args.sys.is_some() => {
            run_sys(&store, &args);
            dump_metrics(&args);
            return;
        }
        None => usage(),
    };

    if args.explain_logical {
        match store.explain_logical(&query) {
            Ok(plan) => println!("{plan}"),
            Err(e) => fail(&format!("explain-logical: {e}")),
        }
        return;
    }

    if args.explain {
        match store.explain(&query) {
            Ok(plan) => println!("{plan}"),
            Err(e) => fail(&format!("explain: {e}")),
        }
        return;
    }

    if args.profile {
        match store.select_profiled_in(&store.dataset_name(), &query, exec_options(&args)) {
            Ok((_sols, profile)) => {
                println!("{}", profile.analyze);
                println!("{}", profile.to_json());
                if let Some(path) = &args.trace_out {
                    write_trace(&store, profile.query_id, path);
                }
            }
            Err(e) => fail(&format!("profile: {e}")),
        }
        run_sys(&store, &args);
        dump_metrics(&args);
        return;
    }

    match store.query_with(&query, exec_options(&args)) {
        Ok(results) => {
            if args.json {
                println!("{}", sparql::json::to_json(&results));
            } else {
                match results {
                    sparql::QueryResults::Solutions(s) => print!("{s}"),
                    sparql::QueryResults::Boolean(b) => println!("{b}"),
                    sparql::QueryResults::Graph(quads) => {
                        print!("{}", rdf_model::nquads::serialize(&quads))
                    }
                }
            }
        }
        Err(e) => fail(&format!("query: {e}")),
    }
    write_latest_trace(&store, &args);
    run_sys(&store, &args);
    dump_metrics(&args);
}

/// Dumps the global metrics registry in Prometheus text exposition
/// format when `--metrics` was passed.
fn dump_metrics(args: &Args) {
    if args.metrics {
        print!("{}", telemetry::global().render_prometheus());
    }
}

/// Runs the `--sys` introspection query against the system graphs and
/// prints its results like a normal query's.
fn run_sys(store: &PgRdfStore, args: &Args) {
    let Some(q) = &args.sys else { return };
    match store.query_sys(q) {
        Ok(results) => {
            if args.json {
                println!("{}", sparql::json::to_json(&results));
            } else {
                match results {
                    sparql::QueryResults::Solutions(s) => print!("{s}"),
                    sparql::QueryResults::Boolean(b) => println!("{b}"),
                    sparql::QueryResults::Graph(quads) => {
                        print!("{}", rdf_model::nquads::serialize(&quads))
                    }
                }
            }
        }
        Err(e) => fail(&format!("sys query: {e}")),
    }
}

/// Writes the Chrome trace of `query_id` to `path` (`--trace-out`).
fn write_trace(store: &PgRdfStore, query_id: u64, path: &str) {
    match store.trace_json(query_id) {
        Some(json) => {
            std::fs::write(path, json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("wrote trace of query {query_id} to {path} (open in chrome://tracing)");
        }
        None => {
            eprintln!("pgq: no trace recorded for query {query_id} (flight recorder disabled?)")
        }
    }
}

/// `--trace-out` for paths that don't know their query id: exports the
/// most recent flight-recorder entry (in this single-process CLI, the
/// query that just ran).
fn write_latest_trace(store: &PgRdfStore, args: &Args) {
    let Some(path) = &args.trace_out else { return };
    match telemetry::flight_recorder().snapshot().last() {
        Some(event) => write_trace(store, event.query_id, path),
        None => eprintln!("pgq: flight recorder is empty; no trace to export"),
    }
}

/// Splits a replay file into queries: paragraphs separated by blank
/// lines, with full-line `#` comments stripped.
fn split_queries(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut block = String::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            if !block.trim().is_empty() {
                out.push(std::mem::take(&mut block));
            }
            block.clear();
        } else if !line.trim_start().starts_with('#') {
            block.push_str(line);
            block.push('\n');
        }
    }
    if !block.trim().is_empty() {
        out.push(block);
    }
    out
}

/// Per-worker replay outcome tallies.
#[derive(Default)]
struct ReplayTally {
    rows: usize,
    ok: usize,
    /// Governor rejections (`Overloaded`): queue full or queue timeout.
    shed: usize,
    /// Resource aborts: deadline or memory budget (`ResourceExhausted`).
    aborted: usize,
    /// Cooperative cancellations (Ctrl-C).
    cancelled: usize,
}

/// Replays the query list `repeat` times from each of `workers` threads
/// against one shared store and reports aggregate throughput plus
/// per-query p50/p95/p99 latency. A warm-up pass populates the plan
/// cache first, so the timed region measures concurrent execution, not
/// compilation. Governor rejections and resource aborts are tallied,
/// not fatal; when a governor is installed its admission counters and
/// queue-wait percentiles are reported at the end.
fn replay(store: &PgRdfStore, queries: &[String], workers: usize, repeat: usize, args: &Args) {
    for q in queries {
        store
            .query(q)
            .unwrap_or_else(|e| fail(&format!("replay warm-up: {e}")));
    }
    // Warm-up queries bypass limits; admission stats start clean.
    if let Some(g) = store.governor() {
        g.reset_stats();
    }
    let t0 = Instant::now();
    let (tally, mut latencies): (ReplayTally, Vec<Vec<u64>>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut tally = ReplayTally::default();
                    let mut lat: Vec<Vec<u64>> = vec![Vec::with_capacity(repeat); queries.len()];
                    'outer: for _ in 0..repeat {
                        for (i, q) in queries.iter().enumerate() {
                            let start = Instant::now();
                            match store.query_with(q, exec_options(args)) {
                                Ok(sparql::QueryResults::Solutions(s)) => {
                                    tally.rows += s.len();
                                    tally.ok += 1;
                                }
                                Ok(_) => {
                                    tally.rows += 1;
                                    tally.ok += 1;
                                }
                                Err(pgrdf::CoreError::Overloaded(_)) => tally.shed += 1,
                                Err(pgrdf::CoreError::Sparql(
                                    sparql::SparqlError::ResourceExhausted(_),
                                )) => tally.aborted += 1,
                                Err(pgrdf::CoreError::Sparql(sparql::SparqlError::Cancelled)) => {
                                    tally.cancelled += 1;
                                    break 'outer;
                                }
                                Err(e) => fail(&format!("replay: {e}")),
                            }
                            lat[i].push(start.elapsed().as_nanos() as u64);
                        }
                    }
                    (tally, lat)
                })
            })
            .collect();
        let mut tally = ReplayTally::default();
        let mut merged: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
        for handle in handles {
            let (t, lat) = handle.join().expect("replay worker panicked");
            tally.rows += t.rows;
            tally.ok += t.ok;
            tally.shed += t.shed;
            tally.aborted += t.aborted;
            tally.cancelled += t.cancelled;
            for (i, samples) in lat.into_iter().enumerate() {
                merged[i].extend(samples);
            }
        }
        (tally, merged)
    });
    let elapsed = t0.elapsed();
    let total = workers * repeat * queries.len();
    eprintln!(
        "{workers} workers x {repeat} pass(es) over {} quer{} = {total} executions \
         in {:.3} s — {:.1} queries/s aggregate, {} rows total",
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
        tally.rows,
    );
    if tally.shed + tally.aborted + tally.cancelled > 0 {
        eprintln!(
            "  outcomes: {} ok, {} shed (overload), {} aborted (limits), {} cancelled",
            tally.ok, tally.shed, tally.aborted, tally.cancelled
        );
    }
    if let Some(g) = store.governor() {
        let stats = g.stats();
        let fmt_wait = |p: f64| {
            stats
                .queue_wait_percentile(p)
                .map(|d| fmt_nanos(d.as_nanos() as u64))
                .unwrap_or_else(|| "-".into())
        };
        eprintln!(
            "  governor: {} admitted ({} queued), {} shed, queue-wait p50={} p95={}",
            stats.admitted,
            stats.queued,
            stats.shed,
            fmt_wait(50.0),
            fmt_wait(95.0),
        );
    }
    for (i, samples) in latencies.iter_mut().enumerate() {
        samples.sort_unstable();
        if samples.is_empty() {
            eprintln!("  q{:<2}     0 samples (all shed/aborted)", i + 1);
            continue;
        }
        eprintln!(
            "  q{:<2} {:>5} samples: p50={} p95={} p99={} max={}",
            i + 1,
            samples.len(),
            fmt_nanos(percentile(samples, 0.50)),
            fmt_nanos(percentile(samples, 0.95)),
            fmt_nanos(percentile(samples, 0.99)),
            fmt_nanos(*samples.last().expect("non-empty samples")),
        );
    }
}

/// Nearest-rank percentile over an ascending-sorted sample list.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Human formatting for nanosecond figures.
fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{:.3}ms", nanos as f64 / 1e6)
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("pgq: {msg}");
    std::process::exit(1);
}
