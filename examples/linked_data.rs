//! Linked-data enrichment and inference (§5.2 of the paper).
//!
//! Once property-graph data is RDF, it can be linked with community
//! datasets and enriched by inference — "possibilities which go beyond
//! what one would normally do with property graphs". This example rebuilds
//! both §5.2 scenarios against small synthetic stand-ins:
//!
//! 1. **WordNet**: query-term expansion over synonym sets when searching
//!    the `:hasTag` attribute.
//! 2. **World Factbook**: a user-defined rule inferring `:hasTagR` edges
//!    that link tagged nodes directly to neighbouring countries.
//!
//! ```sh
//! cargo run --example linked_data
//! ```

use inference::{Atom, InferenceEngine, Rule, RuleTerm};
use pgrdf::{PgRdfModel, PgVocab};
use propertygraph::PropertyGraph;
use quadstore::{IndexKind, Store};
use rdf_model::{Quad, Term};

const WN: &str = "http://wordnet/";
const FB: &str = "http://factbook/";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The property graph: a few tagged Twitter-ish nodes. ---
    let mut graph = PropertyGraph::new();
    graph.add_vertex_with_props(1, [("hasTag", "#train")]);
    graph.add_vertex_with_props(2, [("hasTag", "#educate")]);
    graph.add_vertex_with_props(3, [("hasTag", "#prepare")]);
    graph.add_vertex_with_props(4, [("hasTag", "#Tampa")]);
    graph.add_vertex_with_props(5, [("hasTag", "#opera")]);
    graph.add_edge(1, "follows", 4);

    let vocab = PgVocab::default();
    let quads = pgrdf::convert(&graph, PgRdfModel::NG, &vocab);

    // --- Load PG-as-RDF and the two "community" datasets side by side. ---
    let mut store = Store::with_default_indexes(&IndexKind::PAPER_FOUR);
    store.create_model("twitter")?;
    store.bulk_load("twitter", &quads)?;

    // WordNet-style synsets: cognitive synonyms sharing a senseLabel.
    store.create_model("wordnet")?;
    let wordnet: Vec<Quad> = [
        ("synset-train", "train"),
        ("synset-train", "educate"),
        ("synset-train", "prepare"),
        ("synset-opera", "opera"),
    ]
    .iter()
    .flat_map(|(synset, word)| {
        vec![
            Quad::triple(
                Term::iri(format!("{WN}{synset}-{word}")),
                Term::iri(rdf_model::vocab::rdfs::LABEL),
                Term::string(*word),
            )
            .expect("valid triple"),
            Quad::triple(
                Term::iri(format!("{WN}{synset}-{word}")),
                Term::iri(format!("{WN}senseLabel")),
                Term::Literal(rdf_model::Literal::lang_string(
                    synset.trim_start_matches("synset-"),
                    "en-us",
                )),
            )
            .expect("valid triple"),
        ]
    })
    .collect();
    store.bulk_load("wordnet", &wordnet)?;

    // Factbook-style geography: Tampa is a port; USA borders its
    // neighbours.
    store.create_model("factbook")?;
    let factbook: Vec<Quad> = [
        (
            format!("{FB}USA"),
            format!("{FB}ports"),
            format!("{FB}Tampa"),
        ),
        (
            format!("{FB}USA"),
            format!("{FB}bndry"),
            format!("{FB}Canada"),
        ),
        (
            format!("{FB}USA"),
            format!("{FB}bndry"),
            format!("{FB}Mexico"),
        ),
    ]
    .iter()
    .map(|(s, p, o)| {
        Quad::triple(
            Term::iri(s.clone()),
            Term::iri(p.clone()),
            Term::iri(o.clone()),
        )
        .expect("valid triple")
    })
    .collect();
    store.bulk_load("factbook", &factbook)?;

    // --- Scenario 1: query-term expansion via WordNet (§5.2). ---
    // For the input word "train" the paper's query returns the #train
    // matches plus #educate / #prepare via the shared synset.
    store.create_virtual_model("twitter+wordnet", &["twitter", "wordnet"])?;
    let expansion = r##"
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        PREFIX wn: <http://wordnet/>
        PREFIX k: <http://pg/k/>
        SELECT ?n ?label WHERE {
          ?w wn:senseLabel "train"@en-us .
          ?w rdfs:label ?label .
          ?n k:hasTag ?y
          FILTER (STR(?y) = CONCAT("#", STR(?label)))
        }"##;
    let sols = sparql::select(&store, "twitter+wordnet", expansion)?;
    println!(
        "query-term expansion for 'train' found {} tagged nodes:",
        sols.len()
    );
    for row in &sols.rows {
        let node = row[0].as_ref().map(|t| t.str_value()).unwrap_or_default();
        let label = row[1].as_ref().map(|t| t.str_value()).unwrap_or_default();
        println!("  {node}  (via synonym {label:?})");
    }
    assert_eq!(sols.len(), 3, "train + educate + prepare");

    // --- Scenario 2: Factbook + user-defined rule inference (§5.2). ---
    // First a property chain: ports + borders => country neighbours near
    // the port. Then the paper's :hasTagR rule: a node tagged #X where X
    // is a port gets direct edges to the port's neighbouring countries.
    let mut engine = InferenceEngine::new();
    engine
        .add_rule(Rule::new(
            "port-neighbours",
            vec![
                Atom::new(
                    RuleTerm::var("country"),
                    RuleTerm::iri(&format!("{FB}ports")),
                    RuleTerm::var("port"),
                ),
                Atom::new(
                    RuleTerm::var("country"),
                    RuleTerm::iri(&format!("{FB}bndry")),
                    RuleTerm::var("nbr"),
                ),
            ],
            vec![Atom::new(
                RuleTerm::var("port"),
                RuleTerm::iri(&format!("{FB}nbr")),
                RuleTerm::var("nbr"),
            )],
        ))
        .map_err(|e| format!("rule rejected: {e}"))?;
    engine
        .add_rule(Rule::new(
            "hasTagR",
            vec![
                Atom::new(
                    RuleTerm::var("n"),
                    RuleTerm::iri("http://pg/k/hasTag"),
                    RuleTerm::Const(Term::string("#Tampa")),
                ),
                Atom::new(
                    RuleTerm::Const(Term::iri(format!("{FB}Tampa"))),
                    RuleTerm::iri(&format!("{FB}nbr")),
                    RuleTerm::var("nbr"),
                ),
            ],
            vec![Atom::new(
                RuleTerm::var("n"),
                RuleTerm::iri("http://pg/k/hasTagR"),
                RuleTerm::var("nbr"),
            )],
        ))
        .map_err(|e| format!("rule rejected: {e}"))?;

    let stats = engine.run(&mut store, &["twitter", "factbook"], "entailed")?;
    println!(
        "\ninference derived {} facts in {} rounds",
        stats.derived, stats.rounds
    );

    store.create_virtual_model(
        "twitter+factbook+entailed",
        &["twitter", "factbook", "entailed"],
    )?;
    let neighbours = r#"
        PREFIX k: <http://pg/k/>
        SELECT ?n ?country WHERE { ?n k:hasTagR ?country }"#;
    let sols = sparql::select(&store, "twitter+factbook+entailed", neighbours)?;
    println!("inferred :hasTagR edges (node near-port country):");
    for row in &sols.rows {
        println!(
            "  {}  ->  {}",
            row[0].as_ref().map(|t| t.str_value()).unwrap_or_default(),
            row[1].as_ref().map(|t| t.str_value()).unwrap_or_default()
        );
    }
    assert_eq!(sols.len(), 2, "Canada and Mexico for the #Tampa node");
    Ok(())
}
