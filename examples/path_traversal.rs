//! Path queries two ways: SPARQL property paths vs procedural traversal.
//!
//! §5.1 of the paper notes SPARQL 1.1 property paths cannot bound path
//! length or return paths; §6 suggests "performing traversal procedurally
//! similar to the approach of Gremlin" for such cases. This example runs
//! the same reachability workload both ways and checks they agree.
//!
//! ```sh
//! cargo run --release --example path_traversal
//! ```

use pgrdf::{PgRdfModel, PgRdfStore};
use propertygraph::{enumerate_paths, shortest_path, PropertyGraph, Traversal};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small follower web with a hub, a chain, and a cycle.
    let mut graph = PropertyGraph::new();
    for (a, b) in [
        (1u64, 2u64),
        (1, 3),
        (1, 4), // hub 1
        (2, 5),
        (3, 5),
        (4, 5), // diamond into 5
        (5, 6),
        (6, 7),
        (7, 5), // cycle 5-6-7
        (7, 8),
    ] {
        graph.add_edge(a, "follows", b);
    }
    let store = PgRdfStore::load(&graph, PgRdfModel::NG)?;
    let prefixes = "PREFIX r: <http://pg/r/>\n";

    // 1. Fixed-length paths: SPARQL sequence paths count path
    //    multiplicities (EQ11-style), and so does the procedural
    //    traversal.
    for hops in 1..=4 {
        let path = vec!["r:follows"; hops].join("/");
        let q =
            format!("{prefixes}SELECT (COUNT(?y) AS ?cnt) WHERE {{ <http://pg/v1> {path} ?y }}");
        let sparql_count = store.count(&q)? as u64;
        let procedural = Traversal::start(&graph, 1)
            .out_hops(Some("follows"), hops)
            .path_count();
        println!("paths of length {hops}: SPARQL={sparql_count} procedural={procedural}");
        assert_eq!(sparql_count, procedural);
    }

    // 2. Unbounded reachability: `r:follows+` (distinct nodes).
    let q = format!("{prefixes}SELECT ?y WHERE {{ <http://pg/v1> r:follows+ ?y }}");
    let reachable = store.select(&q)?;
    println!(
        "\nnodes reachable from v1 via follows+: {}",
        reachable.len()
    );
    assert_eq!(reachable.len(), 7); // 2,3,4,5,6,7,8

    // 3. What property paths cannot do (§5.1): bounded-length reachability
    //    with the bound as data — procedural traversal handles it.
    let within_two = Traversal::start(&graph, 1).out_hops(Some("follows"), 2);
    println!(
        "distinct nodes exactly two hops out: {} (procedurally)",
        within_two.distinct_count()
    );

    // 4. Alternation + inverse paths.
    let q = format!("{prefixes}SELECT ?x WHERE {{ ?x (r:follows|^r:follows) <http://pg/v5> }}");
    let neighbors = store.select(&q)?;
    println!("in- or out-neighbours of v5: {}", neighbors.len());

    // 5. Returning the paths themselves (§5.1: SPARQL "lacks the ability
    //    to reference a path directly in a query").
    let paths = enumerate_paths(&graph, 1, Some("follows"), 2, 100);
    println!("\nall 2-hop walks from v1:");
    for p in &paths {
        let rendered: Vec<String> = p.iter().map(|v| format!("v{v}")).collect();
        println!("  {}", rendered.join(" -> "));
    }
    assert_eq!(paths.len(), 3);

    let sp = shortest_path(&graph, 1, 8, Some("follows")).expect("8 reachable");
    println!(
        "shortest path v1 -> v8: {} ({} hops)",
        sp.iter()
            .map(|v| format!("v{v}"))
            .collect::<Vec<_>>()
            .join(" -> "),
        sp.len() - 1
    );

    // 6. Cycle detection via ASK.
    let q = format!("{prefixes}ASK {{ <http://pg/v5> r:follows+ <http://pg/v5> }}");
    match store.query(&q)? {
        sparql::QueryResults::Boolean(b) => {
            println!("v5 lies on a follows-cycle: {b}");
            assert!(b);
        }
        _ => unreachable!(),
    }
    Ok(())
}
