//! Model statistics and the storage-characteristics report.
//!
//! [`ModelStats`] supplies the distinct-count columns of the paper's
//! Table 8 (subjects / predicates / objects / named graphs) and
//! [`StorageReport`] the physical-storage breakdown of Table 9 (per-index
//! entry counts and estimated bytes, plus the values table).
//!
//! [`CboStats`] is the optimizer-facing statistics snapshot: per-predicate
//! quad/distinct counts plus an equi-depth histogram over each predicate's
//! object column, and per-graph quad counts. One [`CboStats`] is pinned
//! per model lineage in a [`StatsCell`] shared across MVCC generations;
//! it is refreshed when the model drifts past a threshold (checked at
//! every [`crate::WriteBatch::commit`]) or on an explicit `ANALYZE`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rdf_model::{GraphName, Quad};

use crate::ids::{EncodedQuad, G, O, P, S};
use crate::model::SemanticModel;
use crate::store::Store;

/// Logical statistics of one semantic model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Total quads.
    pub quads: usize,
    /// Distinct subjects.
    pub distinct_subjects: usize,
    /// Distinct predicates.
    pub distinct_predicates: usize,
    /// Distinct objects.
    pub distinct_objects: usize,
    /// Distinct named graphs (the default graph is not counted).
    pub distinct_named_graphs: usize,
    /// Quads in named graphs.
    pub quads_in_named_graphs: usize,
}

impl ModelStats {
    /// Computes statistics by a single pass over the model.
    pub fn compute(model: &SemanticModel) -> Self {
        let mut subjects = HashSet::new();
        let mut predicates = HashSet::new();
        let mut objects = HashSet::new();
        let mut graphs = HashSet::new();
        let mut quads = 0usize;
        let mut in_named = 0usize;
        for quad in model.iter_all() {
            quads += 1;
            subjects.insert(quad[S]);
            predicates.insert(quad[P]);
            objects.insert(quad[O]);
            if quad[G] != 0 {
                graphs.insert(quad[G]);
                in_named += 1;
            }
        }
        ModelStats {
            name: model.name().to_string(),
            quads,
            distinct_subjects: subjects.len(),
            distinct_predicates: predicates.len(),
            distinct_objects: objects.len(),
            distinct_named_graphs: graphs.len(),
            quads_in_named_graphs: in_named,
        }
    }

    /// Aggregates statistics across several models as if they were one
    /// dataset (distinct counts are unioned, not summed).
    pub fn compute_union<'a>(
        name: &str,
        models: impl IntoIterator<Item = &'a SemanticModel>,
    ) -> Self {
        let mut subjects = HashSet::new();
        let mut predicates = HashSet::new();
        let mut objects = HashSet::new();
        let mut graphs = HashSet::new();
        let mut quads = 0usize;
        let mut in_named = 0usize;
        for model in models {
            for quad in model.iter_all() {
                quads += 1;
                subjects.insert(quad[S]);
                predicates.insert(quad[P]);
                objects.insert(quad[O]);
                if quad[G] != 0 {
                    graphs.insert(quad[G]);
                    in_named += 1;
                }
            }
        }
        ModelStats {
            name: name.to_string(),
            quads,
            distinct_subjects: subjects.len(),
            distinct_predicates: predicates.len(),
            distinct_objects: objects.len(),
            distinct_named_graphs: graphs.len(),
            quads_in_named_graphs: in_named,
        }
    }
}

/// Resource counts over a term-level quad set (the Table 8 measurement,
/// also used by `pgrdf`'s cardinality checks): distinct subjects,
/// predicates, objects, and named graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceCounts {
    /// Distinct subjects.
    pub subjects: usize,
    /// Distinct predicates.
    pub predicates: usize,
    /// Distinct objects.
    pub objects: usize,
    /// Distinct named graphs.
    pub named_graphs: usize,
}

/// Measures [`ResourceCounts`] over a term-level quad set — the one
/// distinct-counting code path shared by the conversion-time cardinality
/// checks (before any dictionary exists) and this crate's encoded-ID
/// statistics ([`ModelStats`], [`CboStats`]).
pub fn resource_counts(quads: &[Quad]) -> ResourceCounts {
    let mut subjects = BTreeSet::new();
    let mut predicates = BTreeSet::new();
    let mut objects = BTreeSet::new();
    let mut graphs = BTreeSet::new();
    for quad in quads {
        subjects.insert(&quad.subject);
        predicates.insert(&quad.predicate);
        objects.insert(&quad.object);
        if let GraphName::Named(g) = &quad.graph {
            graphs.insert(g);
        }
    }
    ResourceCounts {
        subjects: subjects.len(),
        predicates: predicates.len(),
        objects: objects.len(),
        named_graphs: graphs.len(),
    }
}

/// Fraction by which a model's quad count may drift from the pinned
/// [`CboStats`] before the publish path recomputes them.
pub const CBO_DRIFT_THRESHOLD: f64 = 0.2;

/// Number of buckets an equi-depth histogram targets.
const HISTOGRAM_BUCKETS: usize = 64;

/// An equi-depth histogram over one dictionary-ID column: every bucket
/// holds roughly the same number of rows, so frequent values get narrow
/// buckets and the per-value estimate `rows / distincts` adapts to skew
/// (the classic Piatetsky-Shapiro/Connell construction).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EquiDepthHistogram {
    /// Lowest value ID in each bucket.
    lo: Vec<u64>,
    /// Highest value ID in each bucket (inclusive).
    hi: Vec<u64>,
    /// Rows in each bucket.
    rows: Vec<u64>,
    /// Distinct value IDs in each bucket.
    distincts: Vec<u64>,
    /// Total rows across all buckets.
    total: u64,
}

impl EquiDepthHistogram {
    /// Builds the histogram from a **sorted** column of value IDs
    /// (duplicates included). A value never straddles two buckets, so
    /// heavy hitters end up isolated in their own narrow buckets.
    pub fn build(sorted: &[u64]) -> Self {
        let mut h = EquiDepthHistogram::default();
        if sorted.is_empty() {
            return h;
        }
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        h.total = sorted.len() as u64;
        let depth = (sorted.len() / HISTOGRAM_BUCKETS).max(1);
        let mut i = 0usize;
        while i < sorted.len() {
            let lo = sorted[i];
            let mut rows = 0u64;
            let mut distincts = 0u64;
            let mut hi = lo;
            while i < sorted.len() && rows < depth as u64 {
                // Consume one whole value run at a time.
                let v = sorted[i];
                let mut run = 0u64;
                while i < sorted.len() && sorted[i] == v {
                    run += 1;
                    i += 1;
                }
                rows += run;
                distincts += 1;
                hi = v;
            }
            h.lo.push(lo);
            h.hi.push(hi);
            h.rows.push(rows);
            h.distincts.push(distincts);
        }
        h
    }

    /// Estimated rows whose value equals `v`: the containing bucket's
    /// `rows / distincts` (uniformity within the bucket), `0` outside the
    /// histogram's range or in a gap between buckets.
    pub fn estimate_eq(&self, v: u64) -> f64 {
        let Some(b) = self.bucket_of(v) else { return 0.0 };
        self.rows[b] as f64 / self.distincts[b].max(1) as f64
    }

    fn bucket_of(&self, v: u64) -> Option<usize> {
        let b = self.hi.partition_point(|&hi| hi < v);
        (b < self.hi.len() && self.lo[b] <= v).then_some(b)
    }

    /// Total rows the histogram was built over.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.rows.len()
    }
}

/// Per-predicate statistics: quad count, distinct subjects/objects, and
/// an equi-depth histogram over the object column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateStat {
    /// Quads with this predicate.
    pub quads: u64,
    /// Distinct subjects among those quads.
    pub distinct_subjects: u64,
    /// Distinct objects among those quads.
    pub distinct_objects: u64,
    /// Equi-depth histogram over the object IDs of those quads.
    pub objects: EquiDepthHistogram,
}

impl PredicateStat {
    /// Expected quads per distinct subject (the fanout of a
    /// subject-bound probe on this predicate).
    pub fn subject_fanout(&self) -> f64 {
        (self.quads as f64 / self.distinct_subjects.max(1) as f64).max(1.0)
    }

    /// Expected quads per distinct object (the fanout of an
    /// object-bound probe on this predicate).
    pub fn object_fanout(&self) -> f64 {
        (self.quads as f64 / self.distinct_objects.max(1) as f64).max(1.0)
    }
}

/// One optimizer-statistics snapshot of a model: computed in a single
/// pass, immutable, `Arc`-shared with every plan that used it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CboStats {
    /// Monotonic refresh counter of the owning [`StatsCell`]; plan caches
    /// key on this so a stats refresh invalidates plans compiled against
    /// the previous snapshot.
    pub version: u64,
    /// Total quads when the snapshot was taken.
    pub quads: u64,
    /// Distinct values per quad position `[S, P, O, G]`.
    pub distinct: [u64; 4],
    /// Per-predicate statistics, keyed by predicate ID.
    pub predicates: HashMap<u64, PredicateStat>,
    /// Quads per graph ID (`0` = default graph).
    pub graphs: HashMap<u64, u64>,
}

impl CboStats {
    /// Computes a snapshot over a quad iterator in one pass.
    pub fn compute(version: u64, quads: impl Iterator<Item = EncodedQuad>) -> Self {
        let mut distinct = [HashSet::new(), HashSet::new(), HashSet::new(), HashSet::new()];
        let mut per_pred: HashMap<u64, (HashSet<u64>, Vec<u64>)> = HashMap::new();
        let mut graphs: HashMap<u64, u64> = HashMap::new();
        let mut total = 0u64;
        for q in quads {
            total += 1;
            distinct[S].insert(q[S]);
            distinct[P].insert(q[P]);
            distinct[O].insert(q[O]);
            distinct[G].insert(q[G]);
            let (subjects, objects) = per_pred.entry(q[P]).or_default();
            subjects.insert(q[S]);
            objects.push(q[O]);
            *graphs.entry(q[G]).or_default() += 1;
        }
        let predicates = per_pred
            .into_iter()
            .map(|(p, (subjects, mut objects))| {
                objects.sort_unstable();
                let mut distinct_objects = 0u64;
                for i in 0..objects.len() {
                    if i == 0 || objects[i] != objects[i - 1] {
                        distinct_objects += 1;
                    }
                }
                let stat = PredicateStat {
                    quads: objects.len() as u64,
                    distinct_subjects: subjects.len() as u64,
                    distinct_objects,
                    objects: EquiDepthHistogram::build(&objects),
                };
                (p, stat)
            })
            .collect();
        CboStats {
            version,
            quads: total,
            distinct: [
                distinct[S].len() as u64,
                distinct[P].len() as u64,
                distinct[O].len() as u64,
                distinct[G].len() as u64,
            ],
            predicates,
            graphs,
        }
    }

    /// Statistics for one predicate ID, if it occurred in the snapshot.
    pub fn predicate(&self, p: u64) -> Option<&PredicateStat> {
        self.predicates.get(&p)
    }

    /// Quads in one graph (`0` = default graph) as of the snapshot.
    pub fn graph_quads(&self, g: u64) -> u64 {
        self.graphs.get(&g).copied().unwrap_or(0)
    }
}

/// The per-model-lineage statistics cell: `Arc`-shared across MVCC
/// generations (clones of a model share the cell), so a refresh through
/// any generation is visible to all of them. Stats are advisory — they
/// steer plan choice, never correctness — which is what makes sharing
/// across generations sound.
#[derive(Debug, Default)]
pub struct StatsCell {
    pinned: Mutex<Option<Arc<CboStats>>>,
    /// Refresh counter; `0` means never computed.
    version: AtomicU64,
}

impl StatsCell {
    /// The pinned snapshot if one exists and `current_len` has not
    /// drifted past [`CBO_DRIFT_THRESHOLD`]; otherwise recomputes from
    /// `quads` and pins the result.
    pub fn get_or_compute(
        &self,
        current_len: usize,
        quads: impl Iterator<Item = EncodedQuad>,
    ) -> Arc<CboStats> {
        let mut pinned = self.pinned.lock().expect("stats cell poisoned");
        if let Some(stats) = pinned.as_ref() {
            if !drifted(stats.quads, current_len as u64) {
                return Arc::clone(stats);
            }
        }
        let version = self.version.fetch_add(1, Ordering::SeqCst) + 1;
        let stats = Arc::new(CboStats::compute(version, quads));
        *pinned = Some(Arc::clone(&stats));
        stats
    }

    /// Unconditionally recomputes and pins a new snapshot (`ANALYZE`).
    pub fn refresh(&self, quads: impl Iterator<Item = EncodedQuad>) -> Arc<CboStats> {
        let mut pinned = self.pinned.lock().expect("stats cell poisoned");
        let version = self.version.fetch_add(1, Ordering::SeqCst) + 1;
        let stats = Arc::new(CboStats::compute(version, quads));
        *pinned = Some(Arc::clone(&stats));
        stats
    }

    /// Recomputes only if stats were previously computed **and** have
    /// drifted — the cheap maintenance hook the MVCC publish path calls.
    /// Models nobody ever planned against never pay for statistics.
    pub fn refresh_if_drifted<I: IntoIterator<Item = EncodedQuad>>(
        &self,
        current_len: usize,
        quads: impl FnOnce() -> I,
    ) {
        let mut pinned = self.pinned.lock().expect("stats cell poisoned");
        let stale = match pinned.as_ref() {
            Some(stats) => drifted(stats.quads, current_len as u64),
            None => return,
        };
        if stale {
            let version = self.version.fetch_add(1, Ordering::SeqCst) + 1;
            *pinned = Some(Arc::new(CboStats::compute(version, quads().into_iter())));
        }
    }

    /// The refresh counter (`0` = never computed). Plan caches fold this
    /// into their validation key.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }
}

fn drifted(pinned_quads: u64, current: u64) -> bool {
    let base = pinned_quads.max(1) as f64;
    (pinned_quads.abs_diff(current) as f64) > CBO_DRIFT_THRESHOLD * base
}

/// One row of the storage report: a database object and its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageRow {
    /// Object name, e.g. `"PCSGM Index (model m)"` or `"Values Table"`.
    pub object: String,
    /// Entry count (index keys, table rows, or dictionary terms).
    pub entries: usize,
    /// Estimated bytes.
    pub bytes: usize,
}

/// A Table 9 analogue: the storage footprint of a set of models plus the
/// shared values table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageReport {
    /// Per-object rows.
    pub rows: Vec<StorageRow>,
}

impl StorageReport {
    /// Builds the report for the given models of a store.
    pub fn compute(store: &Store, model_names: &[&str]) -> Self {
        let mut rows = Vec::new();
        let mut total_quads = 0usize;
        for name in model_names {
            if let Some(model) = store.model(name) {
                total_quads += model.len();
                for index in model.indexes() {
                    rows.push(StorageRow {
                        object: format!("{} Index ({})", index.kind(), name),
                        entries: index.len(),
                        bytes: index.approx_bytes(),
                    });
                }
            }
        }
        // The quads ("triples") table itself: one 32-byte encoded row each.
        rows.insert(
            0,
            StorageRow {
                object: "Quads Table".to_string(),
                entries: total_quads,
                bytes: total_quads * 32,
            },
        );
        rows.push(StorageRow {
            object: "Values Table".to_string(),
            entries: store.dictionary().len(),
            bytes: store.dictionary().approx_value_bytes(),
        });
        StorageReport { rows }
    }

    /// [`StorageReport::compute`] against a pinned [`Snapshot`](crate::Snapshot) instead
    /// of the live store — every row reflects the same MVCC generation,
    /// which is what the `pgrdf:sys/store` system graph materializes.
    pub fn compute_at(snapshot: &crate::Snapshot, model_names: &[&str]) -> Self {
        let mut rows = Vec::new();
        let mut total_quads = 0usize;
        for name in model_names {
            if let Some(model) = snapshot.model(name) {
                total_quads += model.len();
                for index in model.indexes() {
                    rows.push(StorageRow {
                        object: format!("{} Index ({})", index.kind(), name),
                        entries: index.len(),
                        bytes: index.approx_bytes(),
                    });
                }
            }
        }
        rows.insert(
            0,
            StorageRow {
                object: "Quads Table".to_string(),
                entries: total_quads,
                bytes: total_quads * 32,
            },
        );
        rows.push(StorageRow {
            object: "Values Table".to_string(),
            entries: snapshot.dictionary().len(),
            bytes: snapshot.dictionary().approx_value_bytes(),
        });
        StorageReport { rows }
    }

    /// Total estimated bytes across all rows.
    pub fn total_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.bytes).sum()
    }
}

impl fmt::Display for StorageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<34} {:>12} {:>14}", "DB Object", "Entries", "Approx bytes")?;
        for row in &self.rows {
            writeln!(f, "{:<34} {:>12} {:>14}", row.object, row.entries, row.bytes)?;
        }
        writeln!(
            f,
            "{:<34} {:>12} {:>14}",
            "Total",
            "",
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use rdf_model::{GraphName, Quad, Term};

    fn loaded_store() -> Store {
        let store = Store::with_default_indexes(&[IndexKind::PCSGM, IndexKind::GPSCM]);
        store.create_model("m").unwrap();
        let quads = vec![
            Quad::triple(Term::iri("http://s1"), Term::iri("http://p1"), Term::int(1)).unwrap(),
            Quad::triple(Term::iri("http://s1"), Term::iri("http://p2"), Term::int(2)).unwrap(),
            Quad::new(
                Term::iri("http://s2"),
                Term::iri("http://p1"),
                Term::iri("http://s1"),
                GraphName::iri("http://g1"),
            )
            .unwrap(),
        ];
        store.bulk_load("m", &quads).unwrap();
        store
    }

    #[test]
    fn model_stats_counts() {
        let store = loaded_store();
        let stats = ModelStats::compute(&store.model("m").unwrap());
        assert_eq!(stats.quads, 3);
        assert_eq!(stats.distinct_subjects, 2);
        assert_eq!(stats.distinct_predicates, 2);
        assert_eq!(stats.distinct_objects, 3);
        assert_eq!(stats.distinct_named_graphs, 1);
        assert_eq!(stats.quads_in_named_graphs, 1);
    }

    #[test]
    fn union_stats_dedup_across_models() {
        let store = loaded_store();
        store.create_model("n").unwrap();
        let q =
            Quad::triple(Term::iri("http://s1"), Term::iri("http://p1"), Term::int(1)).unwrap();
        store.insert("n", &q).unwrap();
        let models: Vec<_> = ["m", "n"].iter().map(|n| store.model(n).unwrap()).collect();
        let stats = ModelStats::compute_union("u", models.iter().map(|m| m.as_ref()));
        assert_eq!(stats.quads, 4); // union view keeps duplicates per model
        assert_eq!(stats.distinct_subjects, 2); // but distincts dedup
    }

    #[test]
    fn equi_depth_histogram_isolates_heavy_hitters() {
        // 1000 rows of value 7 (the heavy hitter) + 1000 distinct values.
        let mut col: Vec<u64> = vec![7; 1000];
        col.extend(1000u64..2000);
        col.sort_unstable();
        let h = EquiDepthHistogram::build(&col);
        assert_eq!(h.total(), 2000);
        assert!(h.buckets() > 1);
        // The heavy hitter's estimate is near its true count ...
        let hot = h.estimate_eq(7);
        assert!(hot >= 500.0, "heavy hitter underestimated: {hot}");
        // ... while an average value estimates near 1.
        let cold = h.estimate_eq(1500);
        assert!(cold < 40.0, "uniform value overestimated: {cold}");
        // Outside the value range: zero.
        assert_eq!(h.estimate_eq(5000), 0.0);
    }

    #[test]
    fn cbo_stats_per_predicate_counts() {
        // Predicate 10: 6 quads, 3 subjects, 2 objects.
        // Predicate 11: 2 quads, 2 subjects, 2 objects, graph 5.
        let quads: Vec<EncodedQuad> = vec![
            [1, 10, 100, 0],
            [1, 10, 101, 0],
            [2, 10, 100, 0],
            [2, 10, 101, 0],
            [3, 10, 100, 0],
            [3, 10, 101, 0],
            [4, 11, 200, 5],
            [5, 11, 201, 5],
        ];
        let s = CboStats::compute(1, quads.into_iter());
        assert_eq!(s.version, 1);
        assert_eq!(s.quads, 8);
        assert_eq!(s.distinct, [5, 2, 4, 2]);
        let p10 = s.predicate(10).unwrap();
        assert_eq!(p10.quads, 6);
        assert_eq!(p10.distinct_subjects, 3);
        assert_eq!(p10.distinct_objects, 2);
        assert!((p10.subject_fanout() - 2.0).abs() < 1e-9);
        assert!((p10.object_fanout() - 3.0).abs() < 1e-9);
        assert!((p10.objects.estimate_eq(100) - 3.0).abs() < 1e-9);
        assert_eq!(s.graph_quads(5), 2);
        assert_eq!(s.graph_quads(0), 6);
        assert_eq!(s.graph_quads(99), 0);
    }

    #[test]
    fn stats_cell_pins_until_drift_and_refresh_bumps_version() {
        let cell = StatsCell::default();
        assert_eq!(cell.version(), 0);
        let quads: Vec<EncodedQuad> = (0..100).map(|i| [i, 1, i, 0]).collect();
        let s1 = cell.get_or_compute(quads.len(), quads.iter().copied());
        assert_eq!(s1.version, 1);
        // Within the drift threshold the pinned snapshot is served as-is.
        let s2 = cell.get_or_compute(quads.len() + 10, quads.iter().copied());
        assert_eq!(s2.version, 1);
        assert!(Arc::ptr_eq(&s1, &s2));
        // Past the threshold it recomputes ...
        let s3 = cell.get_or_compute(quads.len() * 2, quads.iter().copied());
        assert_eq!(s3.version, 2);
        // ... and an explicit refresh always does.
        let s4 = cell.refresh(quads.iter().copied());
        assert_eq!(s4.version, 3);
        assert_eq!(cell.version(), 3);
    }

    #[test]
    fn refresh_if_drifted_is_lazy() {
        let cell = StatsCell::default();
        let quads: Vec<EncodedQuad> = (0..10).map(|i| [i, 1, i, 0]).collect();
        // Never computed -> publish hook does nothing.
        cell.refresh_if_drifted(10, || quads.clone());
        assert_eq!(cell.version(), 0);
        cell.get_or_compute(10, quads.iter().copied());
        assert_eq!(cell.version(), 1);
        // No drift -> untouched; drift -> recomputed.
        cell.refresh_if_drifted(11, || quads.clone());
        assert_eq!(cell.version(), 1);
        cell.refresh_if_drifted(100, || quads.clone());
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn resource_counts_over_terms() {
        let quads = vec![
            Quad::triple(Term::iri("http://s1"), Term::iri("http://p1"), Term::int(1)).unwrap(),
            Quad::new(
                Term::iri("http://s2"),
                Term::iri("http://p1"),
                Term::int(2),
                GraphName::iri("http://g1"),
            )
            .unwrap(),
        ];
        let c = resource_counts(&quads);
        assert_eq!(c.subjects, 2);
        assert_eq!(c.predicates, 1);
        assert_eq!(c.objects, 2);
        assert_eq!(c.named_graphs, 1);
    }

    #[test]
    fn storage_report_has_quads_indexes_and_values() {
        let store = loaded_store();
        let report = StorageReport::compute(&store, &["m"]);
        assert_eq!(report.rows.len(), 4); // quads table + 2 indexes + values
        assert_eq!(report.rows[0].object, "Quads Table");
        assert_eq!(report.rows[0].entries, 3);
        assert!(report.rows.iter().any(|r| r.object.contains("PCSGM")));
        assert!(report.rows.iter().any(|r| r.object == "Values Table"));
        assert!(report.total_bytes() > 0);
        let rendered = report.to_string();
        assert!(rendered.contains("Values Table"));
    }
}
