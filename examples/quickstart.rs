//! Quickstart: the paper's running example end to end.
//!
//! Builds the Figure 1 property graph (Amy follows Mira since 2007, knows
//! her from MIT), converts it to RDF under all three models, and runs the
//! §2 query "who follows whom since when?" against each.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pgrdf::{PgRdfModel, PgRdfStore};
use propertygraph::PropertyGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the Figure 1 property graph with the Blueprints-style API.
    let mut graph = PropertyGraph::new();
    graph.add_vertex_with_props(1, [("name", "Amy")]);
    graph.add_vertex_prop(1, "age", 23)?;
    graph.add_vertex_with_props(2, [("name", "Mira")]);
    graph.add_vertex_prop(2, "age", 22)?;
    let follows = graph.add_edge_with_id(3, 1, "follows", 2)?;
    graph.add_edge_prop(follows, "since", 2007)?;
    let knows = graph.add_edge_with_id(4, 1, "knows", 2)?;
    graph.add_edge_prop(knows, "firstMetAt", "MIT")?;

    println!(
        "property graph: {} vertices, {} edges, {} node KVs, {} edge KVs",
        graph.vertex_count(),
        graph.edge_count(),
        graph.node_kv_count(),
        graph.edge_kv_count()
    );

    // 2. The §2 query per model — "who follows whom since when?".
    let queries = [
        (
            PgRdfModel::RF,
            "\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rel: <http://pg/r/>
PREFIX key: <http://pg/k/>
SELECT ?xname ?yname ?yr WHERE {
  ?r rdf:subject ?x .
  ?r rdf:predicate rel:follows .
  ?r rdf:object ?y .
  ?r key:since ?yr .
  ?x key:name ?xname .
  ?y key:name ?yname }",
        ),
        (
            PgRdfModel::SP,
            "\
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX rel: <http://pg/r/>
PREFIX key: <http://pg/k/>
SELECT ?xname ?yname ?yr WHERE {
  ?x ?p ?y .
  ?p rdfs:subPropertyOf rel:follows .
  ?p key:since ?yr .
  ?x key:name ?xname .
  ?y key:name ?yname }",
        ),
        (
            PgRdfModel::NG,
            "\
PREFIX rel: <http://pg/r/>
PREFIX key: <http://pg/k/>
SELECT ?xname ?yname ?yr WHERE {
  GRAPH ?g {?x rel:follows ?y .
            ?g key:since ?yr }
  ?x key:name ?xname .
  ?y key:name ?yname }",
        ),
    ];

    for (model, query) in queries {
        // 3. Convert + load under this model.
        let store = PgRdfStore::load(&graph, model)?;
        println!(
            "\n=== model {model}: {} quads stored ===",
            store.stats().quads
        );

        // 4. Run the paper's SPARQL query, unmodified.
        let sols = store.select(query)?;
        for row in &sols.rows {
            let cell = |i: usize| {
                row[i]
                    .as_ref()
                    .map(|t| t.str_value().to_string())
                    .unwrap_or_default()
            };
            println!("{} follows {} since {}", cell(0), cell(1), cell(2));
        }

        // 5. Round-trip back to a property graph: nothing is lost.
        let back = store.to_property_graph()?;
        assert_eq!(back.edge_count(), graph.edge_count());
        assert_eq!(back.edge_kv_count(), graph.edge_kv_count());
        println!(
            "round-trip OK ({} edges, {} edge KVs)",
            back.edge_count(),
            back.edge_kv_count()
        );
    }
    Ok(())
}
