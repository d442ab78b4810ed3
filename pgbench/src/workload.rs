//! The four workloads: which ops they run, against which store and
//! dataset, and what each op must return.
//!
//! Ops come in NG/SP pairs and are run back to back, so machine drift
//! hits both encodings alike. See README.md for why each workload exists.

use std::collections::BTreeMap;
use std::fmt::Write;

use pgrdf::{CoreError, PartitionLayout, PgRdfStore, PgVocab, QuerySet};
use rdf_model::Term;
use sparql::{ExecOptions, QueryResults, Solutions, SparqlError, UpdateStats};

use crate::params::{GraphFacts, Params, WRITE_TAG};
use crate::setup::{Env, ENCODINGS};
use crate::util::{rows_checksum, term_row_hash};

pub const WORKLOADS: [&str; 4] = ["lookup", "analytic", "topk", "mixed_rw"];

/// Edges per `mixed_rw` write batch.
const BATCH: u64 = 16;
/// Live write batches: batch `i - WINDOW` is deleted when batch `i` goes in.
pub const WINDOW: usize = 32;
/// `mixed_rw` runs EQ5 and EQ10 on iterations divisible by these. A scan
/// over a delta-bearing model is the dearest read by two orders of
/// magnitude; every iteration would leave few iterations per window.
const EQ5_EVERY: usize = 4;
const EQ10_EVERY: usize = 8;
/// Iterations after which the compaction pattern repeats: an iteration
/// leaves 128 delta entries under NG and 192 under SP, and a model
/// compacts at 1,024, so 16 iterations hold exactly 2 NG and 3 SP
/// compactions. A window made of whole cycles always pays the same stalls.
const COMPACTION_CYCLE: usize = 16;

/// One request to a store's facade.
pub enum Action {
    Select {
        dataset: String,
        text: String,
    },
    Ask {
        text: String,
    },
    /// `INSERT DATA`, then `DELETE DATA` of an older batch.
    Write {
        insert: String,
        delete: Option<String>,
    },
}

/// What came back.
pub enum Reply {
    Rows(Solutions),
    Bool(bool),
    Written(UpdateStats),
}

/// An answer the row count and checksum alone cannot be compared with.
pub enum Oracle {
    /// A one-row `COUNT` result.
    Scalar(i64),
    /// `(degree, vertices)` rows of EQ9/EQ10.
    Histogram(Vec<(i64, i64)>),
}

/// Row count and order-independent checksum of a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub rows: u64,
    pub sum: u64,
}

/// One op against one store, with its expected answer.
pub struct Step {
    pub action: Action,
    pub rows: Option<u64>,
    pub sum: Option<u64>,
    pub oracle: Option<Oracle>,
}

/// How far the NG and SP replies to one op must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agree {
    /// Same row count and checksum.
    Answer,
    /// Same row count: a LIMIT without ORDER BY may pick other rows.
    Rows,
    /// Writes touch a different number of quads per encoding.
    Nothing,
}

/// The same op under NG (index 0) and SP (index 1).
pub struct Pair {
    /// Index into `Workload::ops`.
    pub op: usize,
    pub steps: [Step; 2],
    pub agree: Agree,
    /// Cheap enough that facade and recorder overhead are visible.
    pub light: bool,
}

pub struct Workload {
    pub name: &'static str,
    /// Op-type names; latency samples are kept per op type.
    pub ops: Vec<&'static str>,
    /// Distinct pairs of the current round.
    pub pairs: Vec<Pair>,
    /// Rounds that only write, run before the warm-up round.
    pub prefill: usize,
    /// Rounds that are timed as one unit: the window ends between blocks.
    pub block: usize,
    /// Fresh set-ups per run; each gets an equal share of the window.
    pub epochs: usize,
    /// Rounds a traced run replays.
    pub trace_rounds: usize,
    mixed: Option<MixedRw>,
}

pub fn layout_of(name: &str) -> Option<PartitionLayout> {
    match name {
        "lookup" | "analytic" | "topk" => Some(PartitionLayout::Partitioned),
        "mixed_rw" => Some(PartitionLayout::Monolithic),
        _ => None,
    }
}

/// Sends one action through the facade: `threads(1)` keeps the vectorized
/// pipeline on the calling thread (README, finding 2).
pub fn call(store: &PgRdfStore, action: &Action) -> Result<Reply, CoreError> {
    match action {
        Action::Select { dataset, text } => store
            .select_in_with(dataset, text, ExecOptions::threads(1))
            .map(Reply::Rows),
        Action::Ask { text } => match store.query_with(text, ExecOptions::threads(1))? {
            QueryResults::Boolean(b) => Ok(Reply::Bool(b)),
            _ => Err(CoreError::Sparql(SparqlError::Unsupported(
                "expected an ASK query".into(),
            ))),
        },
        Action::Write { insert, delete } => {
            let mut stats = store.update(insert)?;
            if let Some(delete) = delete {
                stats.deleted += store.update(delete)?.deleted;
            }
            Ok(Reply::Written(stats))
        }
    }
}

impl Outcome {
    pub fn of(reply: &Reply) -> Outcome {
        match reply {
            Reply::Rows(s) => Outcome {
                rows: s.len() as u64,
                sum: rows_checksum(&s.rows),
            },
            Reply::Bool(b) => Outcome {
                rows: *b as u64,
                sum: 0,
            },
            Reply::Written(w) => Outcome {
                rows: (w.inserted + w.deleted) as u64,
                sum: 0,
            },
        }
    }
}

impl Step {
    /// Whether the reply is the expected answer.
    pub fn accepts(&self, reply: &Reply, outcome: Outcome) -> bool {
        let oracle_ok = match (&self.oracle, reply) {
            (None, _) => true,
            (Some(Oracle::Scalar(n)), Reply::Rows(s)) => s.scalar_i64() == Some(*n),
            (Some(Oracle::Histogram(want)), Reply::Rows(s)) => histogram_rows(s) == *want,
            (Some(_), _) => false,
        };
        oracle_ok
            && self.rows.is_none_or(|r| r == outcome.rows)
            && self.sum.is_none_or(|c| c == outcome.sum)
    }

    /// After the warm-up round verified the answer, later replies only
    /// have to repeat it.
    pub fn pin(&mut self, outcome: Outcome) {
        self.rows = Some(outcome.rows);
        self.sum = Some(outcome.sum);
        self.oracle = None;
    }
}

fn histogram_rows(s: &Solutions) -> Vec<(i64, i64)> {
    let int = |cell: &Option<Term>| {
        cell.as_ref()
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_i64())
            .unwrap_or(-1)
    };
    s.rows.iter().map(|r| (int(&r[0]), int(&r[1]))).collect()
}

fn select(dataset: &str, text: String) -> Action {
    Action::Select {
        dataset: dataset.to_string(),
        text,
    }
}

fn step(action: Action, rows: Option<u64>) -> Step {
    Step {
        action,
        rows,
        sum: None,
        oracle: None,
    }
}

fn scalar(action: Action, n: u64) -> Step {
    Step {
        action,
        rows: Some(1),
        sum: None,
        oracle: Some(Oracle::Scalar(n as i64)),
    }
}

fn histogram(action: Action, hist: Vec<(i64, i64)>) -> Step {
    Step {
        action,
        rows: Some(hist.len() as u64),
        sum: None,
        oracle: Some(Oracle::Histogram(hist)),
    }
}

/// Per-encoding query builders and the Table 4 dataset routing.
struct Routes {
    qs: [QuerySet; 2],
    topology: String,
    node_kv: String,
    topology_nodekv: String,
    /// Where an edge-KV query runs: NG needs topology + edge KVs, SP's
    /// `-s-e-o` and anchor triples live in the edge-KV partition.
    edge: [String; 2],
    /// The same plus the topology hop EQ6 adds.
    edge_hop: [String; 2],
    vocab: PgVocab,
    prefixes: String,
}

impl Routes {
    fn new(env: &Env) -> Routes {
        let names = env.stores[0].partition_names().expect("partitioned layout");
        Routes {
            qs: [env.stores[0].queries(), env.stores[1].queries()],
            edge: [names.topology_edgekv.clone(), names.edge_kv.clone()],
            edge_hop: [names.topology_edgekv.clone(), names.topology_edgekv.clone()],
            topology: names.topology,
            node_kv: names.node_kv,
            topology_nodekv: names.topology_nodekv,
            vocab: PgVocab::twitter(),
            prefixes: PgVocab::twitter().prefixes(),
        }
    }

    /// A pair whose text and dataset are the same under both encodings.
    fn same(&self, op: usize, dataset: &str, text: String, make: impl Fn(Action) -> Step) -> Pair {
        Pair {
            op,
            steps: [
                make(select(dataset, text.clone())),
                make(select(dataset, text)),
            ],
            agree: Agree::Answer,
            light: true,
        }
    }

    /// A pair whose text (and maybe dataset) is the encoding's own.
    fn own(
        &self,
        op: usize,
        datasets: &[String; 2],
        text: impl Fn(&QuerySet) -> String,
        rows: Option<u64>,
    ) -> Pair {
        let make = |i: usize| step(select(&datasets[i], text(&self.qs[i])), rows);
        Pair {
            op,
            steps: [make(0), make(1)],
            agree: Agree::Answer,
            light: true,
        }
    }
}

fn vertex(vocab: &PgVocab, id: u64) -> String {
    vocab.vertex_iri(id).to_string()
}

impl Workload {
    pub fn new(name: &str, env: &Env, facts: &GraphFacts, params: &Params) -> Option<Workload> {
        let mut w = Workload {
            name: WORKLOADS.iter().find(|w| **w == name)?,
            ops: Vec::new(),
            pairs: Vec::new(),
            prefill: 0,
            block: 1,
            epochs: 3,
            trace_rounds: 2,
            mixed: None,
        };
        match name {
            "lookup" => w.lookup(&Routes::new(env), facts, params),
            "analytic" => w.analytic(&Routes::new(env), facts, params),
            "topk" => w.topk(&Routes::new(env), facts),
            _ => w.mixed_rw(env, facts, params),
        }
        Some(w)
    }

    /// Five point shapes over 256 tags and 256 vertices: 1,280 distinct
    /// texts per store against 64 plan-cache slots, cycled in order, so an
    /// LRU cache never hits.
    fn lookup(&mut self, r: &Routes, facts: &GraphFacts, params: &Params) {
        self.ops = vec!["EQ1", "EQ5", "P1", "P2", "P3"];
        // A window of a few seconds already holds thousands of samples per
        // shape; what varies is the memory layout of each build.
        self.epochs = 5;
        let all = r.qs[0].clone();
        let p = &r.prefixes;
        for i in 0..params.tag_pool.len().min(params.vertex_pool.len()) {
            let tag = &params.tag_pool[i];
            let v = params.vertex_pool[i];
            let (s, o) = (vertex(&r.vocab, v), vertex(&r.vocab, params.p3_targets[i]));
            let kvs = facts.node_kvs[&v] as u64;
            let outs = facts.out_follows[&v].len() as u64;
            self.pairs.push(r.same(0, &r.node_kv, all.eq1(tag), |a| {
                step(a, Some(facts.eq1(tag) as u64))
            }));
            self.pairs
                .push(r.own(1, &r.edge, |q| q.eq5(tag), Some(facts.eq5(tag) as u64)));
            let p1 = format!("{p}SELECT ?k ?v WHERE {{ {s} ?k ?v }}");
            self.pairs
                .push(r.same(2, &r.node_kv, p1, |a| step(a, Some(kvs))));
            let p2 = format!("{p}SELECT ?o WHERE {{ {s} r:follows ?o }}");
            self.pairs
                .push(r.same(3, &r.topology, p2, |a| step(a, Some(outs))));
            let ask = || {
                step(
                    Action::Ask {
                        text: format!("{p}ASK {{ {s} r:follows {o} }}"),
                    },
                    Some(1),
                )
            };
            self.pairs.push(Pair {
                op: 4,
                steps: [ask(), ask()],
                agree: Agree::Answer,
                light: true,
            });
        }
    }

    /// The paper's remaining queries: the tagged ones once per tag of a
    /// small fixed pool, the others once, per round. At most 53 texts per
    /// store, so every op is a plan-cache hit, and nearly all wall time is
    /// execution.
    fn analytic(&mut self, r: &Routes, facts: &GraphFacts, params: &Params) {
        self.ops = vec![
            "EQ2", "EQ3", "EQ4", "EQ6", "EQ7", "EQ8", "EQ9", "EQ10", "EQ11b", "EQ11c", "EQ12",
        ];
        let all = r.qs[0].clone();
        let tn = &r.topology_nodekv;
        for tag in params.analytic_tags.iter().map(String::as_str) {
            self.pairs.extend([
                r.same(0, tn, all.eq2(tag), |a| {
                    step(a, Some(facts.eq2(tag) as u64))
                }),
                r.same(1, tn, all.eq3(tag), |a| {
                    step(a, Some(facts.eq3(tag) as u64))
                }),
                r.same(2, &r.node_kv, all.eq4(tag), |a| step(a, None)),
                r.own(3, &r.edge_hop, |q| q.eq6(tag), None),
                r.own(4, &r.edge, |q| q.eq7(tag), Some(facts.eq7(tag) as u64)),
                r.own(5, &r.edge, |q| q.eq8(tag), None),
            ]);
        }
        let mut heavy = vec![
            r.same(6, &r.topology, all.eq9(), |a| {
                histogram(a, GraphFacts::histogram(&facts.in_deg))
            }),
            r.same(7, &r.topology, all.eq10(), |a| {
                histogram(a, GraphFacts::histogram(&facts.out_deg))
            }),
            r.same(8, &r.topology, all.eq11(params.start_node, 2), |a| {
                scalar(a, params.eq11[0])
            }),
            r.same(9, &r.topology, all.eq11(params.start_node, 3), |a| {
                scalar(a, params.eq11[1])
            }),
            r.same(10, &r.topology, all.eq12(), |a| scalar(a, params.triangles)),
        ];
        for pair in &mut heavy {
            pair.light = pair.op == 8;
        }
        self.pairs.extend(heavy);
    }

    /// LIMIT / ORDER BY / DISTINCT / GROUP BY tails over the whole
    /// `follows` relation: the sort, projection and decode end of the
    /// executor does the work. Every ORDER BY is total, so NG and SP must
    /// return the same rows; T1 and T3 have none and only match in count.
    fn topk(&mut self, r: &Routes, facts: &GraphFacts) {
        self.ops = vec!["T1", "T2", "T3", "T4", "T5", "T6", "T7"];
        let p = &r.prefixes;
        let follows = facts.follows_edges as u64;
        let topo = |op: usize, text: String, rows: u64| {
            r.same(op, &r.topology, text, |a| step(a, Some(rows)))
        };
        let distinct_dst = facts.in_follows.len() as u64;
        self.pairs = vec![
            topo(
                0,
                format!("{p}SELECT ?s ?o WHERE {{ ?s r:follows ?o }} LIMIT 10"),
                10.min(follows),
            ),
            topo(
                1,
                format!("{p}SELECT ?s ?o WHERE {{ ?s r:follows ?o }} ORDER BY ?o ?s LIMIT 10"),
                10.min(follows),
            ),
            topo(
                2,
                format!("{p}SELECT DISTINCT ?o WHERE {{ ?s r:follows ?o }} LIMIT 100"),
                100.min(distinct_dst),
            ),
            r.same(
                3,
                &r.node_kv,
                format!("{p}SELECT ?n ?t WHERE {{ ?n k:hasTag ?t }} ORDER BY DESC(?t) ?n LIMIT 10"),
                |a| step(a, Some(10)),
            ),
            topo(
                4,
                format!("{p}SELECT ?s ?o WHERE {{ ?s r:follows ?o }}"),
                follows,
            ),
            topo(
                5,
                format!(
                    "{p}SELECT ?o (COUNT(*) AS ?c) WHERE {{ ?s r:follows ?o }} \
                     GROUP BY ?o ORDER BY DESC(?c) ?o LIMIT 10"
                ),
                10.min(distinct_dst),
            ),
            r.own(
                6,
                &r.edge,
                |q| {
                    let shape = match q.model() {
                        pgrdf::PgRdfModel::NG => "GRAPH ?e { ?x r:follows ?y . ?e k:hasTag ?t }",
                        _ => "?x ?e ?y . ?e rdfs:subPropertyOf r:follows . ?e k:hasTag ?t",
                    };
                    format!("{p}SELECT ?x ?y ?t WHERE {{ {shape} }} ORDER BY ?t ?x ?y LIMIT 10")
                },
                Some(10),
            ),
        ];
        for unordered in [0, 2] {
            self.pairs[unordered].agree = Agree::Rows;
        }
        // T2 and T5-T7 take tens of ms; recorder overhead cannot show there.
        for heavy in [1, 4, 5, 6] {
            self.pairs[heavy].light = false;
        }
    }

    fn mixed_rw(&mut self, env: &Env, facts: &GraphFacts, params: &Params) {
        self.ops = vec!["write", "EQ1", "EQ2", "EQ5", "EQ10"];
        self.prefill = WINDOW;
        self.block = COMPACTION_CYCLE;
        self.trace_rounds = 2 * COMPACTION_CYCLE;
        self.mixed = Some(MixedRw {
            vocab: PgVocab::twitter(),
            qs: [env.stores[0].queries(), env.stores[1].queries()],
            dataset: env.stores[0].dataset_name(),
            sources: params.vertex_pool.clone(),
            vertex_base: params.new_vertex_base,
            edge_base: params.new_edge_base,
            out_deg: facts.out_deg.clone(),
            live: Default::default(),
        });
    }

    /// Moves to round `i`. Static workloads repeat the same pairs; the
    /// `mixed_rw` rounds must be visited in order, each exactly once.
    pub fn advance(&mut self, i: usize) {
        if let Some(mixed) = &mut self.mixed {
            self.pairs = mixed.round(i);
        }
    }

    /// Where the latency samples of `pairs[idx]` are kept: a slot of its
    /// own while the rounds repeat the same pairs, else its op type's.
    pub fn slot(&self, idx: usize) -> usize {
        match self.mixed {
            None => idx,
            Some(_) => self.pairs[idx].op,
        }
    }

    /// The op type of every slot.
    pub fn slot_ops(&self) -> Vec<usize> {
        match self.mixed {
            None => self.pairs.iter().map(|p| p.op).collect(),
            Some(_) => (0..self.ops.len()).collect(),
        }
    }

    /// Whether the pair is the write of a `mixed_rw` round.
    pub fn is_write(pair: &Pair) -> bool {
        matches!(pair.steps[0].action, Action::Write { .. })
    }
}

/// Running state of the `mixed_rw` write window.
struct MixedRw {
    vocab: PgVocab,
    qs: [QuerySet; 2],
    dataset: String,
    /// Existing vertices the new edges start from.
    sources: Vec<u64>,
    vertex_base: u64,
    edge_base: u64,
    /// Out-degree over `knows|follows` including the live window.
    out_deg: BTreeMap<u64, usize>,
    live: LiveWindow,
}

/// What the reads must see: checksums over the live edges.
#[derive(Default)]
struct LiveWindow {
    batches: u64,
    src_sum: u64,
    dst_sum: u64,
    /// The edge IRIs, which carry the tag too.
    edge_sum: u64,
}

impl MixedRw {
    /// `(edge id, source, destination)` of batch `b`.
    fn edges(&self, b: usize) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        (b as u64 * BATCH..(b as u64 + 1) * BATCH).map(move |k| {
            (
                self.edge_base + k,
                self.sources[k as usize % self.sources.len()],
                self.vertex_base + k,
            )
        })
    }

    /// The ground quads of batch `b` in an encoding's multi-quad shape:
    /// the edge, two edge KVs, and the tag on the new endpoint.
    fn body(&self, b: usize, enc: usize) -> String {
        let vocab = &self.vocab;
        let mut s = String::new();
        for (e, src, dst) in self.edges(b) {
            let (e, src, dst) = (
                vocab.edge_iri(e).to_string(),
                vertex(vocab, src),
                vertex(vocab, dst),
            );
            let kvs = format!("{e} k:hasTag \"{WRITE_TAG}\" . {e} k:refs \"@w{b}\" .");
            let _ = match ENCODINGS[enc] {
                pgrdf::PgRdfModel::NG => {
                    write!(s, "GRAPH {e} {{ {src} r:follows {dst} . {kvs} }} ")
                }
                _ => write!(
                    s,
                    "{src} {e} {dst} . {e} rdfs:subPropertyOf r:follows . \
                     {src} r:follows {dst} . {kvs} "
                ),
            };
            let _ = write!(s, "{dst} k:hasTag \"{WRITE_TAG}\" . ");
        }
        s
    }

    fn apply(&mut self, b: usize, insert: bool) {
        let edges: Vec<_> = self.edges(b).collect();
        let vocab = &self.vocab;
        let hash = |v: u64| term_row_hash(&Term::Iri(vocab.vertex_iri(v)));
        let live = &mut self.live;
        for (e, src, dst) in edges {
            let deg = self.out_deg.entry(src).or_default();
            let sums = [
                (&mut live.src_sum, hash(src)),
                (&mut live.dst_sum, hash(dst)),
                (
                    &mut live.edge_sum,
                    term_row_hash(&Term::Iri(vocab.edge_iri(e))),
                ),
            ];
            for (sum, h) in sums {
                *sum = if insert {
                    sum.wrapping_add(h)
                } else {
                    sum.wrapping_sub(h)
                };
            }
            *deg = if insert { *deg + 1 } else { *deg - 1 };
        }
        live.batches = if insert {
            live.batches + 1
        } else {
            live.batches - 1
        };
    }

    fn round(&mut self, i: usize) -> Vec<Pair> {
        let prefixes = self.vocab.prefixes();
        let expired = i.checked_sub(WINDOW);
        self.apply(i, true);
        if let Some(old) = expired {
            self.apply(old, false);
        }
        let per_edge = [4u64, 6]; // NG: quad + 2 KVs + tag; SP: 3 triples + 2 KVs + tag
        let write = |enc: usize| {
            let text =
                |verb: &str, b: usize| format!("{prefixes}{verb} DATA {{ {}}}", self.body(b, enc));
            let batches = 1 + expired.is_some() as u64;
            step(
                Action::Write {
                    insert: text("INSERT", i),
                    delete: expired.map(|old| text("DELETE", old)),
                },
                Some(batches * BATCH * per_edge[enc]),
            )
        };
        let live_edges = self.live.batches * BATCH;
        let read = |op: usize, text: &dyn Fn(&QuerySet) -> String, rows: u64, sum: u64| {
            let make = |enc: usize| Step {
                sum: Some(sum),
                ..step(select(&self.dataset, text(&self.qs[enc])), Some(rows))
            };
            Pair {
                op,
                steps: [make(0), make(1)],
                agree: Agree::Answer,
                light: op <= 2,
            }
        };
        // On the monolithic model EQ1 matches the tag on the new endpoint
        // and on the edge IRI alike.
        let tagged_sum = self.live.dst_sum.wrapping_add(self.live.edge_sum);
        let mut pairs = vec![
            Pair {
                op: 0,
                steps: [write(0), write(1)],
                agree: Agree::Nothing,
                light: false,
            },
            read(1, &|q| q.eq1(WRITE_TAG), 2 * live_edges, tagged_sum),
            read(2, &|q| q.eq2(WRITE_TAG), live_edges, self.live.src_sum),
        ];
        if i.is_multiple_of(EQ5_EVERY) {
            pairs.push(read(
                3,
                &|q| q.eq5(WRITE_TAG),
                live_edges,
                self.live.dst_sum,
            ));
        }
        if i.is_multiple_of(EQ10_EVERY) {
            let make = |enc: usize| {
                histogram(
                    select(&self.dataset, self.qs[enc].eq10()),
                    GraphFacts::histogram(&self.out_deg),
                )
            };
            pairs.push(Pair {
                op: 4,
                steps: [make(0), make(1)],
                agree: Agree::Answer,
                light: false,
            });
        }
        pairs
    }
}
