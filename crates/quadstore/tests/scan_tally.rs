//! Row scans and the columnar reads the batch engine makes record the
//! index telemetry a naive count predicts, and the same as each other. A
//! binary of its own: the telemetry switch and the registry are
//! process-global, so no other test may scan while this one reads counter
//! deltas.

use quadstore::ids::{G, O, P, S};
use quadstore::{EncodedQuad, GraphConstraint, QuadPattern, Store};
use rdf_model::{GraphName, Quad, Term};
use telemetry::MetricValue;

const SERIES: [&str; 4] = [
    "pgrdf_index_range_scans_total",
    "pgrdf_index_rows_scanned_total",
    "pgrdf_index_rows_matched_total",
    "pgrdf_delta_hits_total",
];

/// Each series in [`SERIES`], summed over its index labels.
fn counters() -> [u64; 4] {
    let mut out = [0; 4];
    for sample in telemetry::global().samples() {
        if let (Some(i), MetricValue::Counter(v)) =
            (SERIES.iter().position(|s| *s == sample.name), sample.value)
        {
            out[i] += v;
        }
    }
    out
}

/// How far `read` moves each counter.
fn moved(read: impl FnOnce()) -> [u64; 4] {
    let before = counters();
    read();
    let after = counters();
    std::array::from_fn(|i| after[i] - before[i])
}

fn quad(s: usize, p: usize, g: usize) -> Quad {
    let graph = if g == 0 {
        GraphName::Default
    } else {
        GraphName::iri(format!("http://g{g}"))
    };
    Quad::new(
        Term::iri(format!("http://s{s}")),
        Term::iri(format!("http://p{p}")),
        Term::iri("http://o"),
        graph,
    )
    .expect("valid quad")
}

/// `quad` in the store's IDs.
fn encode(store: &Store, quad: &Quad) -> EncodedQuad {
    let id = |t: &Term| store.term_id(t).expect("interned").0;
    let g = match &quad.graph {
        GraphName::Default => 0,
        GraphName::Named(t) => id(t),
    };
    [id(&quad.subject), id(&quad.predicate), id(&quad.object), g]
}

#[test]
fn columnar_reads_tally_like_row_scans() {
    telemetry::set_enabled(true);
    let store = Store::new();
    // Each member's visible quads and its inserted ones.
    let mut members: Vec<(Vec<Quad>, Vec<Quad>)> = Vec::new();
    for (m, name) in ["a", "b"].into_iter().enumerate() {
        store.create_model(name).expect("model");
        let mut base: Vec<Quad> = (0..12).map(|i| quad(i, i % 2, (i + m) % 3)).collect();
        store.bulk_load(name, &base).expect("load");
        // A removed overlay and an insert delta on both members.
        store.remove(name, &base.remove(m + 2)).expect("remove");
        let inserted = vec![quad(20 + m, 0, m), quad(30 + m, 1, 1)];
        for q in &inserted {
            store.insert(name, q).expect("insert");
        }
        base.extend(inserted.iter().cloned());
        members.push((base, inserted));
    }
    let view = store.dataset_union(&["a", "b"]).expect("view");
    let id = |t: &str| store.term_id(&Term::iri(t));
    let patterns = [
        QuadPattern {
            s: None,
            p: id("http://p0"),
            o: None,
            g: GraphConstraint::Any,
        },
        QuadPattern {
            s: None,
            p: id("http://p1"),
            o: None,
            g: GraphConstraint::DefaultOnly,
        },
        QuadPattern {
            s: None,
            p: None,
            o: None,
            g: GraphConstraint::AnyNamed,
        },
        QuadPattern {
            s: id("http://s3"),
            p: None,
            o: id("http://o"),
            g: GraphConstraint::Any,
        },
        QuadPattern::any(),
    ];
    let mut delta_hits = 0;
    for pattern in patterns {
        let count = |quads: &[Quad]| {
            quads
                .iter()
                .filter(|q| pattern.matches(&encode(&store, q)))
                .count() as u64
        };
        let matched: u64 = members.iter().map(|(visible, _)| count(visible)).sum();
        let hits: u64 = members.iter().map(|(_, inserted)| count(inserted)).sum();
        let rows = moved(|| {
            view.scan(pattern).count();
        });
        let cols = moved(|| {
            let mut cols = vec![Vec::new(); 4];
            view.scan_columns(&pattern, &[S, P, O, G], &mut cols);
        });
        assert_eq!(cols, rows, "{pattern:?}");
        assert_eq!(
            rows[0],
            members.len() as u64,
            "{pattern:?}: one range scan per member"
        );
        assert_eq!(rows[2], matched, "{pattern:?}: rows matched");
        assert_eq!(rows[3], hits, "{pattern:?}: delta hits");
        assert!(matched > 0, "{pattern:?}: the scan matched nothing");
        delta_hits += hits;
    }
    assert!(delta_hits > 0, "no pattern read the insert delta");
    telemetry::set_enabled(false);
}
