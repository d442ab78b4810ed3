//! The store: a shared term dictionary plus named semantic models and
//! virtual models (unions of models), mirroring the Oracle capabilities
//! listed in §3.1 of the paper.
//!
//! Concurrency follows the snapshot-isolation model of the paper's host
//! database: the store keeps an immutable *published generation* —
//! dictionary segments, model index runs, and the virtual-model catalog,
//! all `Arc`-shared — behind a lightweight publish cell. Readers pin a
//! [`Snapshot`] (one atomic `Arc` clone) and never block; writers
//! serialize on a writer lock, apply DML/DDL copy-on-write into a fresh
//! draft generation, and publish it atomically. A query therefore sees
//! either all or none of a [`WriteBatch`], no matter how many quads the
//! batch touched.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use rdf_model::{DictBuilder, DictSnapshot, GraphName, Quad, Term, TermId};

use crate::dataset::DatasetView;
use crate::error::StoreError;
use crate::ids::{EncodedQuad, G, O, P, S};
use crate::index::IndexKind;
use crate::model::{SemanticModel, SEALED, TOP};

/// Top-run size at which the writer path folds a model's top run into its
/// sealed run ([`SemanticModel::fold_top`]). Each commit rewrites the top
/// run, so this bounds what a write copies; the sealed run and the base
/// are `Arc`-shared and never copied by a write.
const AUTO_COMPACT_DELTA: usize = 1024;

/// The sealed run merges into the base once it holds `1 / SEAL_FRACTION`
/// of the base's entries: each merge copies every index of the base once,
/// so a base of `n` quads is copied once per `n / SEAL_FRACTION` net
/// changes, and a read never walks a sealed run of more than that. A
/// window of inserts that are later deleted cancels in the sealed run
/// and never reaches the base.
///
/// Every fold also copies the sealed run, so a sealed run merged at `F`
/// entries costs about `F / (2 * AUTO_COMPACT_DELTA)` copied keys per
/// change in folds and `n / F` in merges, least at `F = sqrt(2 *
/// AUTO_COMPACT_DELTA * n)`: `n / 16` for a 0.5 M-quad base. Measured on
/// one (growing or churning) 0.5 M-quad model, 1/16 and 1/32 were the
/// fastest, 1/8 13–17 % slower and 1/2 70–95 % slower.
const SEAL_FRACTION: usize = 16;

/// One immutable published generation of the store.
#[derive(Debug)]
struct Gen {
    /// Mutation epoch this generation was published under.
    epoch: u64,
    /// The dictionary as of this generation.
    dict: DictSnapshot,
    /// Semantic models, each `Arc`-shared with other generations that did
    /// not modify them.
    models: BTreeMap<String, Arc<SemanticModel>>,
    /// Virtual-model catalog (name → member model names).
    virtual_models: BTreeMap<String, Vec<String>>,
}

impl Gen {
    fn empty() -> Self {
        Gen {
            epoch: 0,
            dict: DictSnapshot::default(),
            models: BTreeMap::new(),
            virtual_models: BTreeMap::new(),
        }
    }

    fn dataset(&self, name: &str) -> Result<DatasetView, StoreError> {
        if let Some(members) = self.virtual_models.get(name) {
            let models = members
                .iter()
                .map(|m| {
                    self.models
                        .get(m)
                        .cloned()
                        .ok_or_else(|| StoreError::UnknownModel(m.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(DatasetView::new(self.dict.clone(), models));
        }
        let m = self
            .models
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::UnknownModel(name.to_string()))?;
        Ok(DatasetView::new(self.dict.clone(), vec![m]))
    }

    fn dataset_union(&self, names: &[&str]) -> Result<DatasetView, StoreError> {
        let mut members = Vec::new();
        for name in names {
            members.extend(self.dataset(name)?.into_members());
        }
        // Preserve order but drop duplicate members.
        let mut seen = std::collections::HashSet::new();
        members.retain(|m: &Arc<SemanticModel>| seen.insert(m.name().to_string()));
        Ok(DatasetView::new(self.dict.clone(), members))
    }

    fn decode(&self, quad: &EncodedQuad) -> Quad {
        let term = |id: u64| {
            self.dict
                .lookup(TermId(id))
                .expect("encoded quad refers to interned terms")
                .clone()
        };
        let graph = if quad[G] == 0 {
            GraphName::Default
        } else {
            GraphName::Named(term(quad[G]))
        };
        Quad::new_unchecked(term(quad[S]), term(quad[P]), term(quad[O]), graph)
    }
}

/// Interns model names so [`Store::model_names`] can hand out `&str`
/// borrows tied to the store's lifetime even though the authoritative
/// name set lives inside swappable published generations. Entries are
/// never removed before the store drops, and each `Box<str>`'s heap
/// allocation is address-stable across `Vec` growth, so extending the
/// borrow to `&self` is sound.
#[derive(Debug, Default)]
struct NameArena {
    names: Mutex<Vec<Box<str>>>,
}

impl NameArena {
    fn intern(&self, name: &str) -> &str {
        let mut names = self.names.lock().expect("name arena poisoned");
        let entry: *const str = match names.iter().find(|n| n.as_ref() == name) {
            Some(existing) => existing.as_ref(),
            None => {
                names.push(name.into());
                names.last().expect("just pushed").as_ref()
            }
        };
        // SAFETY: the allocation behind `entry` is owned by `self.names`,
        // never mutated or dropped while `self` lives, and `self` outlives
        // the returned borrow.
        unsafe { &*entry }
    }
}

/// The writer-side mutable state, guarded by the store's writer lock.
#[derive(Debug)]
struct WriterState {
    /// The authoritative dictionary builder (frozen segments + tail).
    dict: DictBuilder,
    /// The mutation epoch; the next publish stamps the new generation
    /// with this value after adding the batch's bump count.
    epoch: u64,
}

/// An in-memory, dictionary-encoded RDF quad store with named semantic
/// models, virtual models, configurable composite indexes, and MVCC
/// snapshot isolation: all mutators take `&self`, so one store can serve
/// concurrent readers and writers across threads.
///
/// ```
/// use quadstore::Store;
/// use rdf_model::{Quad, Term, GraphName};
///
/// let store = Store::new();
/// store.create_model("social").unwrap();
/// store
///     .insert(
///         "social",
///         &Quad::new(
///             Term::iri("http://pg/v1"),
///             Term::iri("http://pg/r/follows"),
///             Term::iri("http://pg/v2"),
///             GraphName::iri("http://pg/e3"),
///         )
///         .unwrap(),
///     )
///     .unwrap();
/// assert_eq!(store.model("social").unwrap().len(), 1);
/// ```
#[derive(Debug)]
pub struct Store {
    /// The publish cell. Readers hold the read lock only long enough to
    /// clone the `Arc`; the write lock is taken only for the pointer swap
    /// at publish, so readers never wait on in-progress DML.
    published: RwLock<Arc<Gen>>,
    /// Serializes writers. Held across a whole [`WriteBatch`].
    writer: Mutex<WriterState>,
    default_indexes: Vec<IndexKind>,
    /// Stable storage for the `&str` names [`Store::model_names`] yields.
    names: NameArena,
}

impl Default for Store {
    fn default() -> Self {
        Store::new()
    }
}

impl Store {
    /// A store whose models get Oracle's two default indexes
    /// (PCSGM and PSCGM) unless created with an explicit index list.
    pub fn new() -> Self {
        Store::with_default_indexes(&[IndexKind::PCSGM, IndexKind::PSCGM])
    }

    /// A store with a custom default index configuration. The experiments
    /// use [`IndexKind::PAPER_FOUR`].
    pub fn with_default_indexes(kinds: &[IndexKind]) -> Self {
        Store {
            published: RwLock::new(Arc::new(Gen::empty())),
            writer: Mutex::new(WriterState {
                dict: DictBuilder::new(),
                epoch: 0,
            }),
            default_indexes: kinds.to_vec(),
            names: NameArena::default(),
        }
    }

    /// The currently published generation (one `Arc` clone under a
    /// momentary read lock).
    fn published(&self) -> Arc<Gen> {
        self.published
            .read()
            .expect("publish lock poisoned")
            .clone()
    }

    /// Pins the current generation into an owned [`Snapshot`]: a
    /// consistent `(dictionary, models, epoch)` view that stays valid —
    /// and unchanged — for as long as the handle lives, regardless of
    /// concurrent writers.
    pub fn snapshot(&self) -> Snapshot {
        if telemetry::enabled() {
            crate::metrics::snapshot_pins().inc();
        }
        self.current()
    }

    /// [`Self::snapshot`] without the pin tally, for the store's own
    /// reports.
    pub(crate) fn current(&self) -> Snapshot {
        Snapshot {
            gen: self.published(),
        }
    }

    /// The term dictionary of the published generation.
    pub fn dictionary(&self) -> DictSnapshot {
        self.published().dict.clone()
    }

    /// The current mutation epoch. Any mutation (DML, DDL, index changes,
    /// interning) advances it, so a cached compiled plan is valid exactly
    /// when the epoch it was compiled under still equals this value.
    pub fn epoch(&self) -> u64 {
        self.published().epoch
    }

    /// Opens a write batch: a copy-on-write draft of the current
    /// generation plus the (exclusive) writer lock. All mutations applied
    /// through the batch become visible atomically at
    /// [`WriteBatch::commit`]; dropping the batch without committing
    /// abandons them. Single-quad convenience mutators like
    /// [`Store::insert`] are one-operation batches.
    pub fn begin(&self) -> WriteBatch<'_> {
        let state = self.writer.lock().expect("writer lock poisoned");
        // Only writers publish and we hold the writer lock, so the
        // published generation cannot move under this clone.
        let base = self.published();
        WriteBatch {
            store: self,
            state,
            models: base.models.clone(),
            virtual_models: base.virtual_models.clone(),
            edits: BTreeMap::new(),
            bumps: 0,
        }
    }

    /// Creates an empty semantic model with the store's default indexes.
    pub fn create_model(&self, name: &str) -> Result<(), StoreError> {
        let kinds = self.default_indexes.clone();
        self.create_model_with_indexes(name, &kinds)
    }

    /// Creates an empty semantic model with an explicit index list.
    pub fn create_model_with_indexes(
        &self,
        name: &str,
        kinds: &[IndexKind],
    ) -> Result<(), StoreError> {
        let mut batch = self.begin();
        batch.create_model_with_indexes(name, kinds)?;
        batch.commit();
        Ok(())
    }

    /// Drops a semantic model. Virtual models referencing it are dropped too.
    pub fn drop_model(&self, name: &str) -> Result<(), StoreError> {
        let mut batch = self.begin();
        batch.drop_model(name)?;
        batch.commit();
        Ok(())
    }

    /// Defines a virtual model as the UNION of existing semantic models
    /// (§3.1: "creation and querying of virtual semantic models defined as
    /// a UNION ... of existing semantic models").
    pub fn create_virtual_model(&self, name: &str, members: &[&str]) -> Result<(), StoreError> {
        let mut batch = self.begin();
        batch.create_virtual_model(name, members)?;
        batch.commit();
        Ok(())
    }

    /// Looks up a semantic model in the published generation.
    pub fn model(&self, name: &str) -> Option<Arc<SemanticModel>> {
        self.published().models.get(name).cloned()
    }

    /// Names of all semantic models (from the published generation, so a
    /// concurrent DDL batch is either fully listed or not at all).
    pub fn model_names(&self) -> impl Iterator<Item = &str> {
        let gen = self.published();
        let names: Vec<&str> = gen.models.keys().map(|k| self.names.intern(k)).collect();
        names.into_iter()
    }

    /// Member list of a virtual model, if `name` names one.
    pub fn virtual_model(&self, name: &str) -> Option<Vec<String>> {
        self.published().virtual_models.get(name).cloned()
    }

    /// Names of all virtual models.
    pub fn virtual_model_names(&self) -> Vec<String> {
        self.published().virtual_models.keys().cloned().collect()
    }

    /// Interns a term (used by loaders and the SPARQL update path).
    pub fn intern(&self, term: &Term) -> TermId {
        let mut batch = self.begin();
        let id = batch.intern(term);
        batch.commit();
        id
    }

    /// Resolves a term to its ID without interning; `None` means the term
    /// occurs nowhere in the store, so no pattern mentioning it can match.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.published().dict.get(term)
    }

    /// Resolves an ID back to its term in the published generation.
    pub fn term(&self, id: TermId) -> Option<Term> {
        self.published().dict.lookup(id).cloned()
    }

    /// Encodes a quad, interning all components.
    pub fn encode(&self, quad: &Quad) -> EncodedQuad {
        let mut batch = self.begin();
        let encoded = batch.encode(quad);
        batch.commit();
        encoded
    }

    /// Decodes an encoded quad back to terms. Panics if the IDs were not
    /// issued by this store's dictionary (an internal invariant).
    pub fn decode(&self, quad: &EncodedQuad) -> Quad {
        self.published().decode(quad)
    }

    /// Inserts one quad into a model. Returns `true` if newly added.
    pub fn insert(&self, model: &str, quad: &Quad) -> Result<bool, StoreError> {
        let mut batch = self.begin();
        let inserted = batch.insert(model, quad)?;
        batch.commit();
        Ok(inserted)
    }

    /// Removes one quad from a model. Returns `true` if it was present.
    pub fn remove(&self, model: &str, quad: &Quad) -> Result<bool, StoreError> {
        let mut batch = self.begin();
        let removed = batch.remove(model, quad)?;
        batch.commit();
        Ok(removed)
    }

    /// Inserts an already-encoded quad (IDs must come from this store).
    pub fn insert_encoded(&self, model: &str, quad: EncodedQuad) -> Result<bool, StoreError> {
        let mut batch = self.begin();
        let inserted = batch.insert_encoded(model, quad)?;
        batch.commit();
        Ok(inserted)
    }

    /// Removes an already-encoded quad.
    pub fn remove_encoded(&self, model: &str, quad: EncodedQuad) -> Result<bool, StoreError> {
        let mut batch = self.begin();
        let removed = batch.remove_encoded(model, quad)?;
        batch.commit();
        Ok(removed)
    }

    /// Bulk-loads quads into a model, rebuilding its indexes once.
    pub fn bulk_load<'q>(
        &self,
        model: &str,
        quads: impl IntoIterator<Item = &'q Quad>,
    ) -> Result<usize, StoreError> {
        let mut batch = self.begin();
        let n = batch.bulk_load(model, quads)?;
        batch.commit();
        Ok(n)
    }

    /// Adds an index to a model (built immediately, like Oracle's
    /// semantic-network index creation). The rebuilt index set is
    /// published as a fresh generation, so open snapshots keep scanning
    /// their old one.
    pub fn create_index(&self, model: &str, kind: IndexKind) -> Result<(), StoreError> {
        let mut batch = self.begin();
        batch.create_index(model, kind)?;
        batch.commit();
        Ok(())
    }

    /// Drops an index from a model (at least one must remain). Publishes
    /// like any other write; open snapshots keep the old index set.
    pub fn drop_index(&self, model: &str, kind: IndexKind) -> Result<(), StoreError> {
        let mut batch = self.begin();
        batch.drop_index(model, kind)?;
        batch.commit();
        Ok(())
    }

    /// Compacts the DML delta of one model into its base indexes. Bumps
    /// the mutation epoch and publishes like any other write: snapshots
    /// pinned before the compaction keep their old generation.
    pub fn compact(&self, model: &str) -> Result<(), StoreError> {
        let mut batch = self.begin();
        batch.compact(model)?;
        batch.commit();
        Ok(())
    }

    /// Resolves a name — semantic model or virtual model — to a queryable
    /// [`DatasetView`] over the published generation.
    pub fn dataset(&self, name: &str) -> Result<DatasetView, StoreError> {
        self.published().dataset(name)
    }

    /// A view over an explicit list of model names (each may itself be a
    /// virtual model) — the "union of semantic models" query target of
    /// §3.2. All names resolve against one pinned generation.
    pub fn dataset_union(&self, names: &[&str]) -> Result<DatasetView, StoreError> {
        self.published().dataset_union(names)
    }
}

/// An owned, consistent view of one published store generation. Cloning
/// is one `Arc` clone; every accessor resolves against the pinned
/// generation, never the live store, so a query driven off a snapshot is
/// immune to concurrent DML/DDL.
#[derive(Debug, Clone)]
pub struct Snapshot {
    gen: Arc<Gen>,
}

impl Snapshot {
    /// The mutation epoch this generation was published under.
    pub fn epoch(&self) -> u64 {
        self.gen.epoch
    }

    /// The dictionary of the pinned generation.
    pub fn dictionary(&self) -> &DictSnapshot {
        &self.gen.dict
    }

    /// Looks up a semantic model in the pinned generation.
    pub fn model(&self, name: &str) -> Option<Arc<SemanticModel>> {
        self.gen.models.get(name).cloned()
    }

    /// Names of all semantic models in the pinned generation.
    pub fn model_names(&self) -> Vec<String> {
        self.gen.models.keys().cloned().collect()
    }

    /// Member list of a virtual model, if `name` names one.
    pub fn virtual_model(&self, name: &str) -> Option<&[String]> {
        self.gen.virtual_models.get(name).map(|v| v.as_slice())
    }

    /// Names of all virtual models in the pinned generation.
    pub fn virtual_model_names(&self) -> Vec<String> {
        self.gen.virtual_models.keys().cloned().collect()
    }

    /// Resolves a term to its ID in the pinned generation.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.gen.dict.get(term)
    }

    /// Resolves an ID back to its term in the pinned generation.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        self.gen.dict.lookup(id)
    }

    /// Decodes an encoded quad against the pinned dictionary.
    pub fn decode(&self, quad: &EncodedQuad) -> Quad {
        self.gen.decode(quad)
    }

    /// Resolves a dataset name against the pinned generation.
    pub fn dataset(&self, name: &str) -> Result<DatasetView, StoreError> {
        self.gen.dataset(name)
    }

    /// Resolves an explicit union of names against the pinned generation.
    pub fn dataset_union(&self, names: &[&str]) -> Result<DatasetView, StoreError> {
        self.gen.dataset_union(names)
    }
}

/// An open write batch: holds the store's writer lock plus a
/// copy-on-write draft generation. Mutations accumulate invisibly;
/// [`WriteBatch::commit`] publishes them in one atomic pointer swap.
/// Readers concurrently observe either the pre-batch or post-batch
/// generation — never a prefix of the batch.
pub struct WriteBatch<'a> {
    store: &'a Store,
    state: MutexGuard<'a, WriterState>,
    models: BTreeMap<String, Arc<SemanticModel>>,
    virtual_models: BTreeMap<String, Vec<String>>,
    /// Each model's inserts (`true`) and removes (`false`) not yet folded
    /// into its top run: net changes against the draft model, one per
    /// quad, folded in one merge at commit or before the model's next
    /// bulk load, index change or compaction.
    edits: BTreeMap<String, BTreeMap<EncodedQuad, bool>>,
    /// Logical mutations applied so far; added to the mutation epoch at
    /// commit. Zero means nothing to publish.
    bumps: u64,
}

impl WriteBatch<'_> {
    /// Interns a term into the writer dictionary. The term becomes
    /// visible to readers at commit.
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.bumps += 1;
        self.state.dict.intern(term)
    }

    /// Encodes a quad, interning all components.
    pub fn encode(&mut self, quad: &Quad) -> EncodedQuad {
        self.bumps += 1;
        let s = self.state.dict.intern(&quad.subject);
        let p = self.state.dict.intern(&quad.predicate);
        let o = self.state.dict.intern(&quad.object);
        let g = match &quad.graph {
            GraphName::Default => TermId::DEFAULT_GRAPH,
            GraphName::Named(t) => self.state.dict.intern(t),
        };
        crate::ids::encode(s, p, o, g)
    }

    /// Creates an empty semantic model with the store's default indexes.
    pub fn create_model(&mut self, name: &str) -> Result<(), StoreError> {
        let kinds = self.store.default_indexes.clone();
        self.create_model_with_indexes(name, &kinds)
    }

    /// Creates an empty semantic model with an explicit index list.
    pub fn create_model_with_indexes(
        &mut self,
        name: &str,
        kinds: &[IndexKind],
    ) -> Result<(), StoreError> {
        if self.models.contains_key(name) || self.virtual_models.contains_key(name) {
            return Err(StoreError::DuplicateModel(name.to_string()));
        }
        self.models
            .insert(name.to_string(), Arc::new(SemanticModel::new(name, kinds)?));
        self.bumps += 1;
        Ok(())
    }

    /// Drops a semantic model. Virtual models referencing it are dropped too.
    pub fn drop_model(&mut self, name: &str) -> Result<(), StoreError> {
        if self.virtual_models.remove(name).is_some() {
            self.bumps += 1;
            return Ok(());
        }
        if self.models.remove(name).is_none() {
            return Err(StoreError::UnknownModel(name.to_string()));
        }
        self.edits.remove(name);
        self.virtual_models
            .retain(|_, members| !members.iter().any(|m| m == name));
        self.bumps += 1;
        Ok(())
    }

    /// Defines a virtual model as the UNION of existing semantic models.
    pub fn create_virtual_model(&mut self, name: &str, members: &[&str]) -> Result<(), StoreError> {
        if self.models.contains_key(name) || self.virtual_models.contains_key(name) {
            return Err(StoreError::DuplicateModel(name.to_string()));
        }
        if members.is_empty() {
            return Err(StoreError::EmptyVirtualModel);
        }
        for member in members {
            if self.virtual_models.contains_key(*member) {
                return Err(StoreError::NestedVirtualModel(member.to_string()));
            }
            if !self.models.contains_key(*member) {
                return Err(StoreError::UnknownModel(member.to_string()));
            }
        }
        self.virtual_models.insert(
            name.to_string(),
            members.iter().map(|s| s.to_string()).collect(),
        );
        self.bumps += 1;
        Ok(())
    }

    /// Copy-on-write access to a draft model: clones the published model
    /// on first touch (sharing its `Arc`'d base indexes and runs), folds
    /// the batch's pending edits into it, then mutates the private copy in
    /// place for the rest of the batch.
    fn model_mut(&mut self, name: &str) -> Result<&mut SemanticModel, StoreError> {
        let arc = self
            .models
            .get_mut(name)
            .ok_or_else(|| StoreError::UnknownModel(name.to_string()))?;
        let m = Arc::make_mut(arc);
        if let Some(edits) = self.edits.remove(name) {
            m.apply(&edits.into_iter().collect::<Vec<_>>());
            if m.run_lens()[TOP] >= AUTO_COMPACT_DELTA {
                m.fold_top();
                if m.run_lens()[SEALED] * SEAL_FRACTION >= m.indexes()[0].len() {
                    m.compact();
                }
            }
        }
        Ok(m)
    }

    /// Records inserting (`add`) or removing a quad of a model, net of the
    /// batch's earlier edits of it; returns whether the model changes.
    fn edit(&mut self, model: &str, quad: EncodedQuad, add: bool) -> Result<bool, StoreError> {
        let m = self
            .models
            .get(model)
            .ok_or_else(|| StoreError::UnknownModel(model.to_string()))?;
        self.bumps += 1;
        if !self.edits.contains_key(model) {
            self.edits.insert(model.to_string(), BTreeMap::new());
        }
        let edits = self.edits.get_mut(model).expect("just inserted");
        let before = m.contains(&quad);
        if edits.get(&quad).copied().unwrap_or(before) == add {
            return Ok(false);
        }
        if before == add {
            edits.remove(&quad);
        } else {
            edits.insert(quad, add);
        }
        Ok(true)
    }

    /// Inserts one quad into a model. Returns `true` if newly added.
    pub fn insert(&mut self, model: &str, quad: &Quad) -> Result<bool, StoreError> {
        if !self.models.contains_key(model) {
            return Err(StoreError::UnknownModel(model.to_string()));
        }
        let encoded = self.encode(quad);
        self.insert_encoded(model, encoded)
    }

    /// Removes one quad from a model. Returns `true` if it was present.
    /// Uses non-interning resolution — a quad with unknown terms cannot
    /// be present, and removal must not grow the dictionary.
    pub fn remove(&mut self, model: &str, quad: &Quad) -> Result<bool, StoreError> {
        if !self.models.contains_key(model) {
            return Err(StoreError::UnknownModel(model.to_string()));
        }
        let ids = [
            self.state.dict.get(&quad.subject),
            self.state.dict.get(&quad.predicate),
            self.state.dict.get(&quad.object),
            match &quad.graph {
                GraphName::Default => Some(TermId::DEFAULT_GRAPH),
                GraphName::Named(t) => self.state.dict.get(t),
            },
        ];
        match ids {
            [Some(s), Some(p), Some(o), Some(g)] => {
                self.remove_encoded(model, [s.0, p.0, o.0, g.0])
            }
            _ => Ok(false),
        }
    }

    /// Inserts an already-encoded quad (IDs must come from this store).
    pub fn insert_encoded(&mut self, model: &str, quad: EncodedQuad) -> Result<bool, StoreError> {
        self.edit(model, quad, true)
    }

    /// Removes an already-encoded quad.
    pub fn remove_encoded(&mut self, model: &str, quad: EncodedQuad) -> Result<bool, StoreError> {
        self.edit(model, quad, false)
    }

    /// Bulk-loads quads into a model, rebuilding its indexes once.
    pub fn bulk_load<'q>(
        &mut self,
        model: &str,
        quads: impl IntoIterator<Item = &'q Quad>,
    ) -> Result<usize, StoreError> {
        if !self.models.contains_key(model) {
            return Err(StoreError::UnknownModel(model.to_string()));
        }
        let encoded: Vec<EncodedQuad> = quads.into_iter().map(|q| self.encode(q)).collect();
        let n = encoded.len();
        self.model_mut(model)?.bulk_load(encoded);
        self.bumps += 1;
        Ok(n)
    }

    /// Adds an index to a model.
    pub fn create_index(&mut self, model: &str, kind: IndexKind) -> Result<(), StoreError> {
        self.model_mut(model)?.add_index(kind);
        self.bumps += 1;
        Ok(())
    }

    /// Drops an index from a model (at least one must remain).
    pub fn drop_index(&mut self, model: &str, kind: IndexKind) -> Result<(), StoreError> {
        self.model_mut(model)?.drop_index(kind)?;
        self.bumps += 1;
        Ok(())
    }

    /// Compacts both runs of one model into its base indexes.
    pub fn compact(&mut self, model: &str) -> Result<(), StoreError> {
        self.model_mut(model)?.compact();
        self.bumps += 1;
        Ok(())
    }

    /// Publishes the draft generation atomically, the pending edits folded
    /// into each model's top run first. A no-op batch (zero mutations)
    /// publishes nothing and leaves the epoch untouched.
    pub fn commit(mut self) {
        if self.bumps == 0 {
            return;
        }
        let edited: Vec<String> = self.edits.keys().cloned().collect();
        for name in edited {
            self.model_mut(&name)
                .expect("edits are kept for live models");
        }
        let WriteBatch {
            store,
            mut state,
            models,
            virtual_models,
            bumps,
            ..
        } = self;
        state.epoch += bumps;
        // Statistics maintenance rides the publish path: any model whose
        // optimizer stats were ever computed and have drifted past the
        // threshold gets a fresh one-pass snapshot here, so readers always
        // plan against statistics at most one drift window stale. Models
        // nobody ever planned against pay nothing.
        for model in models.values() {
            model.maybe_refresh_cbo_stats();
        }
        let gen = Arc::new(Gen {
            epoch: state.epoch,
            dict: state.dict.freeze(),
            models,
            virtual_models,
        });
        *store.published.write().expect("publish lock poisoned") = gen;
        if telemetry::enabled() {
            crate::metrics::publishes().inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Literal;

    fn quad(s: &str, p: &str, o: Term) -> Quad {
        Quad::triple(Term::iri(s), Term::iri(p), o).unwrap()
    }

    #[test]
    fn create_and_drop_models() {
        let store = Store::new();
        store.create_model("a").unwrap();
        assert!(matches!(
            store.create_model("a"),
            Err(StoreError::DuplicateModel(_))
        ));
        store.drop_model("a").unwrap();
        assert!(matches!(
            store.drop_model("a"),
            Err(StoreError::UnknownModel(_))
        ));
    }

    #[test]
    fn insert_decode_roundtrip() {
        let store = Store::new();
        store.create_model("m").unwrap();
        let q = quad("http://s", "http://p", Term::Literal(Literal::int(23)));
        assert!(store.insert("m", &q).unwrap());
        assert!(!store.insert("m", &q).unwrap());
        let encoded: Vec<_> = store.model("m").unwrap().iter_all().collect();
        assert_eq!(encoded.len(), 1);
        assert_eq!(store.decode(&encoded[0]), q);
    }

    #[test]
    fn remove_unknown_terms_is_noop() {
        let store = Store::new();
        store.create_model("m").unwrap();
        let q = quad("http://s", "http://p", Term::iri("http://o"));
        assert!(!store.remove("m", &q).unwrap());
        let before = store.dictionary().len();
        assert!(!store.remove("m", &q).unwrap());
        assert_eq!(store.dictionary().len(), before, "remove must not intern");
    }

    #[test]
    fn virtual_model_union_scans_members() {
        let store = Store::new();
        store.create_model("a").unwrap();
        store.create_model("b").unwrap();
        store
            .insert("a", &quad("http://s1", "http://p", Term::iri("http://o1")))
            .unwrap();
        store
            .insert("b", &quad("http://s2", "http://p", Term::iri("http://o2")))
            .unwrap();
        store.create_virtual_model("v", &["a", "b"]).unwrap();
        let view = store.dataset("v").unwrap();
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn virtual_model_validation() {
        let store = Store::new();
        store.create_model("a").unwrap();
        assert!(matches!(
            store.create_virtual_model("v", &[]),
            Err(StoreError::EmptyVirtualModel)
        ));
        assert!(matches!(
            store.create_virtual_model("v", &["missing"]),
            Err(StoreError::UnknownModel(_))
        ));
        store.create_virtual_model("v", &["a"]).unwrap();
        assert!(matches!(
            store.create_virtual_model("w", &["v"]),
            Err(StoreError::NestedVirtualModel(_))
        ));
    }

    #[test]
    fn dropping_member_drops_virtual_model() {
        let store = Store::new();
        store.create_model("a").unwrap();
        store.create_virtual_model("v", &["a"]).unwrap();
        store.drop_model("a").unwrap();
        assert!(store.dataset("v").is_err());
    }

    #[test]
    fn dataset_union_dedups_members() {
        let store = Store::new();
        store.create_model("a").unwrap();
        store.create_model("b").unwrap();
        store.create_virtual_model("v", &["a", "b"]).unwrap();
        let view = store.dataset_union(&["a", "v"]).unwrap();
        let names: Vec<&str> = view.members().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn bulk_load_counts() {
        let store = Store::new();
        store.create_model("m").unwrap();
        let quads = vec![
            quad("http://s1", "http://p", Term::iri("http://o")),
            quad("http://s2", "http://p", Term::iri("http://o")),
        ];
        assert_eq!(store.bulk_load("m", &quads).unwrap(), 2);
        assert_eq!(store.model("m").unwrap().len(), 2);
    }

    #[test]
    fn snapshot_pins_its_generation() {
        let store = Store::new();
        store.create_model("m").unwrap();
        store
            .insert("m", &quad("http://s1", "http://p", Term::iri("http://o")))
            .unwrap();
        let snap = store.snapshot();
        let epoch = snap.epoch();
        store
            .insert("m", &quad("http://s2", "http://p", Term::iri("http://o")))
            .unwrap();
        store.drop_model("m").unwrap();
        // The pinned view is unaffected by later DML and even DROP.
        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.model("m").unwrap().len(), 1);
        assert_eq!(snap.dataset("m").unwrap().len(), 1);
        assert!(store.model("m").is_none());
        assert!(store.epoch() > epoch);
    }

    #[test]
    fn batch_is_atomic_and_invisible_until_commit() {
        let store = Store::new();
        store.create_model("m").unwrap();
        let epoch_before = store.epoch();
        let mut batch = store.begin();
        batch
            .insert("m", &quad("http://s1", "http://p", Term::iri("http://o")))
            .unwrap();
        batch
            .insert("m", &quad("http://s2", "http://p", Term::iri("http://o")))
            .unwrap();
        // Not yet visible: the draft is private to the batch.
        assert_eq!(store.model("m").unwrap().len(), 0);
        assert_eq!(store.epoch(), epoch_before);
        batch.commit();
        assert_eq!(store.model("m").unwrap().len(), 2);
        assert!(store.epoch() > epoch_before);
    }

    #[test]
    fn dropped_batch_publishes_nothing() {
        let store = Store::new();
        store.create_model("m").unwrap();
        let epoch_before = store.epoch();
        {
            let mut batch = store.begin();
            batch
                .insert("m", &quad("http://s1", "http://p", Term::iri("http://o")))
                .unwrap();
            // Dropped without commit.
        }
        assert_eq!(store.model("m").unwrap().len(), 0);
        assert_eq!(store.epoch(), epoch_before);
    }

    #[test]
    fn ddl_keeps_open_snapshots_stable() {
        let store = Store::new();
        store.create_model("m").unwrap();
        let quads: Vec<Quad> = (0..8)
            .map(|i| quad(&format!("http://s{i}"), "http://p", Term::iri("http://o")))
            .collect();
        store.bulk_load("m", &quads).unwrap();
        store
            .insert("m", &quad("http://sx", "http://p", Term::iri("http://o")))
            .unwrap();
        let snap = store.snapshot();
        let before_kinds = snap.model("m").unwrap().index_kinds().to_vec();
        let e0 = store.epoch();
        // Index DDL and compaction must bump + publish without disturbing
        // the pinned generation.
        store.create_index("m", IndexKind::SPCGM).unwrap();
        let e1 = store.epoch();
        assert!(e1 > e0, "create_index must bump the epoch");
        store.compact("m").unwrap();
        let e2 = store.epoch();
        assert!(e2 > e1, "compact must bump the epoch");
        store.drop_index("m", IndexKind::SPCGM).unwrap();
        assert!(store.epoch() > e2, "drop_index must bump the epoch");
        let pinned = snap.model("m").unwrap();
        assert_eq!(pinned.index_kinds(), before_kinds.as_slice());
        assert_eq!(
            pinned.delta_len(),
            1,
            "snapshot keeps its uncompacted delta"
        );
        assert_eq!(snap.dataset("m").unwrap().len(), 9);
        assert_eq!(store.model("m").unwrap().delta_len(), 0);
    }

    #[test]
    fn writer_path_autocompacts_large_deltas() {
        const BASE: usize = 2 * SEAL_FRACTION * AUTO_COMPACT_DELTA;
        let store = Store::new();
        store.create_model("m").unwrap();
        let base: Vec<Quad> = (0..BASE)
            .map(|i| quad(&format!("http://b{i}"), "http://p", Term::iri("http://o")))
            .collect();
        store.bulk_load("m", &base).unwrap();
        // Each batch leaves both runs within their bounds: the top run
        // under `AUTO_COMPACT_DELTA` entries, the sealed run under
        // `1 / SEAL_FRACTION` of the base.
        let within = |m: &SemanticModel| {
            let [sealed, top] = m.run_lens();
            top < AUTO_COMPACT_DELTA && sealed * SEAL_FRACTION < m.indexes()[0].len()
        };
        let mut folded = false;
        for i in 0..(AUTO_COMPACT_DELTA + 10) {
            store
                .insert(
                    "m",
                    &quad(&format!("http://s{i}"), "http://p", Term::iri("http://o")),
                )
                .unwrap();
            let m = store.model("m").unwrap();
            assert!(within(&m), "insert {i}: runs {:?}", m.run_lens());
            folded |= m.run_lens()[SEALED] > 0;
        }
        assert!(
            folded,
            "the top run must have been folded into the sealed run"
        );
        let m = store.model("m").unwrap();
        assert_eq!(m.len(), BASE + AUTO_COMPACT_DELTA + 10);
        assert_eq!(m.indexes()[0].len(), BASE, "base untouched");
        // Past `1 / SEAL_FRACTION` of the base, the sealed run merges.
        for (i, q) in base.iter().enumerate().take(BASE / SEAL_FRACTION) {
            store.remove("m", q).unwrap();
            let m = store.model("m").unwrap();
            assert!(within(&m), "remove {i}: runs {:?}", m.run_lens());
        }
        let m = store.model("m").unwrap();
        assert_ne!(m.indexes()[0].len(), BASE, "sealed run merged");
        assert_eq!(
            m.len(),
            BASE + AUTO_COMPACT_DELTA + 10 - BASE / SEAL_FRACTION
        );
    }

    #[test]
    fn concurrent_readers_see_consistent_generations() {
        let store = Store::new();
        store.create_model("m").unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                // Each iteration pins one snapshot; the pair inserted
                // below by batch must appear together or not at all.
                for _ in 0..200 {
                    let view = store.dataset("m").unwrap();
                    let n = view.len();
                    assert!(n.is_multiple_of(2), "torn batch visible: {n} quads");
                }
            });
            for i in 0..50 {
                let mut batch = store.begin();
                batch
                    .insert(
                        "m",
                        &quad(&format!("http://s{i}"), "http://a", Term::iri("http://o")),
                    )
                    .unwrap();
                batch
                    .insert(
                        "m",
                        &quad(&format!("http://s{i}"), "http://b", Term::iri("http://o")),
                    )
                    .unwrap();
                batch.commit();
            }
            reader.join().unwrap();
        });
    }
}
