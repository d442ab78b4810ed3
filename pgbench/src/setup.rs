//! Set-up: generate the graph, convert it under NG and SP, and
//! bulk-load one store per encoding, timing each layer.

use std::time::Instant;

use pgrdf::{ConvertOptions, LoadOptions, PartitionLayout, PgRdfModel, PgRdfStore, PgVocab};
use propertygraph::PropertyGraph;
use twittergen::TwitterGenConfig;

/// The data set is one fixed graph, like the fixed data of any query
/// benchmark: the generator's default seed, the one the paper-shaped
/// fixtures of this repository have always used. `--seed` seeds the
/// parameter pools drawn from it. Over ten *graph* seeds `analytic`
/// spread 20-34 % (README, "Measured spread"), far more than a change to
/// the engine this benchmark is meant to catch.
pub const GRAPH_SEED: u64 = 0x0077_1773;

/// NG is index 0 and SP index 1 wherever the two stores sit in an array.
pub const ENCODINGS: [PgRdfModel; 2] = [PgRdfModel::NG, PgRdfModel::SP];
/// Labels for reports, in `ENCODINGS` order.
pub const ENC_NAMES: [&str; 2] = ["ng", "sp"];

/// Wall time and volume of each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// `pgrdf::convert_with`, NG + SP.
    pub convert_s: f64,
    /// `PgRdfStore::load_quads` (dictionary encoding, index sort), NG + SP.
    pub load_s: f64,
    pub quads: [usize; 2],
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.convert_s + self.load_s
    }
}

/// The loaded system under test.
pub struct Env {
    pub graph: PropertyGraph,
    pub stores: [PgRdfStore; 2],
    pub times: SetupTimes,
}

/// Builds graph and stores. `convert_with` + `load_quads` is exactly what
/// `PgRdfStore::load_with` does, split so the two layers are timed apart.
/// `between` runs before, between and after the untimed gaps of the three
/// phases (the caller samples the calibration kernel there).
pub fn build(scale: f64, layout: PartitionLayout, between: &mut impl FnMut()) -> Env {
    let mut times = SetupTimes::default();
    between();
    let t0 = Instant::now();
    let graph = twittergen::generate(&TwitterGenConfig::with_seed(scale, GRAPH_SEED));
    times.generate_s = t0.elapsed().as_secs_f64();
    between();
    let mut load = |i: usize| {
        let options = LoadOptions {
            vocab: PgVocab::twitter(),
            layout,
            ..Default::default()
        };
        let t0 = Instant::now();
        let quads = pgrdf::convert_with(
            &graph,
            ENCODINGS[i],
            &options.vocab,
            ConvertOptions::default(),
        );
        times.convert_s += t0.elapsed().as_secs_f64();
        times.quads[i] = quads.len();
        let t0 = Instant::now();
        let store = PgRdfStore::load_quads(quads, ENCODINGS[i], options).expect("bulk load");
        times.load_s += t0.elapsed().as_secs_f64();
        between();
        store
    };
    let stores = [load(0), load(1)];
    Env {
        graph,
        stores,
        times,
    }
}
