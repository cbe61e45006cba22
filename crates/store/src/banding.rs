//! Banded LSH candidate generation over coordinated bottom-k sketches.
//!
//! The all-pairs similarity join needs a sub-quadratic candidate stage:
//! comparing every pair of `N` resident sketches is `O(N²)` even when
//! almost every pair is dissimilar. Banding gets around that with the
//! classic LSH argument, and coordination makes it free: because every
//! sketch samples under one shared seed hash, the *same item carries the
//! same priority rank in every instance* — so a signature derived from
//! the rank order of a sketch's retained items is automatically
//! comparable across instances, with no extra hashing passes over the
//! data.
//!
//! The signature is one-permutation style: the `bands·rows` signature
//! slots partition the key space by a salted hash, and each slot takes
//! the *minimum-rank* retained key that lands in it. Two instances agree
//! on a slot exactly when the least-rank item of that key region is
//! common to both sketches — an event whose probability is (up to
//! sketch truncation) the Jaccard similarity of the instances, the
//! min-hash property. Slots are grouped into `bands` bands of `rows`
//! slots; two instances are **candidates** when at least one band
//! matches in full. The matching probability follows the standard S-curve
//! `1 − (1 − J^rows)^bands`, which crosses ½ near
//! [`BandConfig::threshold`] `= (1/bands)^(1/rows)`.
//!
//! A band containing an *empty* slot (no retained key hashed into it) is
//! treated as non-indexable and skipped for that instance. This is load
//! bearing: indexing empty bands would put every sparse instance of a
//! large pool into one shared "empty" bucket and regenerate the `O(N²)`
//! blow-up the stage exists to avoid, while skipping costs little recall
//! because coordinated similar instances have correlated empty patterns.
//!
//! [`BandIndex`] is deterministic by construction even though it is
//! built on hash tables: every bucket keeps its ids sorted, and every
//! query output is sorted — walks that need an order sort the ids they
//! visit instead of inheriting one from a table — so candidate sets and
//! wire bytes are identical regardless of insertion order, store shard
//! count, or worker geometry. The index also keeps each inserted
//! instance's registered `(band, hash)` signature resident, which is
//! what makes it **live**: re-inserting an id first unregisters its old
//! signature (only the bands whose hash actually changed are touched —
//! `O(bands)` per update), so an index owned by an ingesting store stays
//! equal to a from-scratch rebuild at every point in time.
//!
//! # Cost model
//!
//! A signature costs `O(retained + bands·rows)` hashing per instance.
//! Each retained `(rank, key)` entry claims its slot when it beats the
//! slot's current minimum, so the entries may come in any order: one
//! core ([`band_hashes_ranked_into`]) hashes a finished sample in rank
//! order ([`band_hashes_into`]) and a live stream's heap as it lies,
//! with reused scratch and no allocation per instance but the
//! signature itself.
//!
//! A bulk build is signatures first, tables once
//! ([`BandIndex::from_signatures_with`]): the `(id, signature)` list is
//! sorted by id, each engine worker fills the tables of its own group
//! of bands — each table sized up front from a count of its entries,
//! one expected `O(1)` probe per indexable band — and the id →
//! signature table takes the signatures by move. Most buckets of a
//! large pool hold a single id, which lives inline in its table slot;
//! only a shared bucket allocates, and because ids arrive ascending
//! every insert into it is an append. [`BandIndex::merged`] and
//! [`BandIndex::decode`] collect signatures and call the same builder.
//! Live maintenance ([`BandIndex::insert`], [`BandIndex::remove`])
//! touches only the bands whose hash changed; a live insert into a
//! shared bucket is a sorted insert, `O(|bucket|)`.
//!
//! Pair extraction is `Σ |bucket|²` over buckets — the LSH contract is
//! that buckets stay small because dissimilar instances rarely share a
//! band. Feeding the index signatures that collide en masse (e.g. one
//! duplicated instance a thousand times) degrades gracefully toward the
//! quadratic worst case, it does not fail. Crucially, extraction
//! **streams**: [`BandIndex::for_each_candidate_block`] walks the shared
//! buckets once, never probing a table, and visits in ascending id
//! order only the ids that share a bucket with a larger id. It merges
//! each one's bucket members above it into a per-id run of deduplicated
//! partners and hands the caller fixed-size blocks of globally sorted
//! pairs — peak memory is `O(block + shared-bucket memberships +
//! largest per-id candidate set)`, never `O(total pairs)`.
//! [`BandIndex::candidate_pairs`] is the collect-everything convenience
//! wrapper over the same walk.
//!
//! # Example
//!
//! ```
//! use monotone_store::banding::{band_hashes, BandConfig, BandIndex};
//! use monotone_store::SketchStore;
//!
//! let store = SketchStore::new(64, 42);
//! for key in 0..40u64 {
//!     store.ingest(0, key, 1.0)?; // instance 0: keys 0..40
//!     store.ingest(1, key + 2, 1.0)?; // near-duplicate of 0
//!     store.ingest(2, key + 10_000, 1.0)?; // disjoint
//! }
//!
//! let cfg = BandConfig::new(8, 2, 7);
//! let index = store.band_index(&cfg)?;
//! let pairs = index.candidate_pairs();
//! assert!(pairs.contains(&(0, 1)), "near-duplicates must collide");
//! assert!(pairs.iter().all(|&(a, b)| a < b && b != 2), "disjoint stays out");
//!
//! // The same pairs, streamed in fixed-size sorted blocks (the memory-
//! // bounded path the 10⁶-instance join verification consumes).
//! let mut streamed = Vec::new();
//! index.for_each_candidate_block(2, |block| streamed.extend_from_slice(block));
//! assert_eq!(streamed, pairs);
//!
//! // Per-instance probe: which resident instances could be similar?
//! let cands = index.candidates_of(&store.sketch(0)?);
//! assert!(cands.contains(&1));
//! // Identical signatures collide on every band, including the probe's own id.
//! assert!(cands.contains(&0));
//! // Inserted ids can be probed without their sketch, off the cached
//! // signature — the live-index query path.
//! assert_eq!(index.candidates_of_id(0), Some(cands));
//!
//! // Band hashes are derived from the sketch alone and are `None` for
//! // bands with an empty slot.
//! assert_eq!(band_hashes(&store.sketch(2)?, &cfg).len(), 8);
//! # Ok::<(), monotone_core::Error>(())
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::seed::splitmix64;
use monotone_coord::wire::{Dec, Enc};
use monotone_core::Error;
use monotone_engine::{chunk_bounds, Engine};

/// Shape of a banding signature: `bands` bands of `rows` slots each,
/// under a slot-hash `salt`.
///
/// The salt only picks which key region feeds which slot; it is
/// independent of the sketches' seed-hash salt, and the *same*
/// `BandConfig` must be used for every signature that is to be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandConfig {
    bands: usize,
    rows: usize,
    salt: u64,
}

impl BandConfig {
    /// A config with `bands` bands of `rows` slots.
    ///
    /// # Panics
    ///
    /// Panics if `bands == 0` or `rows == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use monotone_store::banding::BandConfig;
    ///
    /// let cfg = BandConfig::new(16, 2, 7);
    /// assert_eq!(cfg.slots(), 32);
    /// // The S-curve midpoint: (1/16)^(1/2).
    /// assert!((cfg.threshold() - 0.25).abs() < 1e-12);
    /// ```
    pub fn new(bands: usize, rows: usize, salt: u64) -> BandConfig {
        assert!(bands > 0, "banding needs at least one band");
        assert!(rows > 0, "banding needs at least one row per band");
        BandConfig { bands, rows, salt }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Slots per band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The slot-hash salt.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Total signature slots, `bands · rows`.
    pub fn slots(&self) -> usize {
        self.bands * self.rows
    }

    /// The similarity where a pair's band-collision probability crosses
    /// one half: `(1/bands)^(1/rows)`. Pairs well above it are caught
    /// with probability approaching one; pairs well below almost never
    /// collide.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }

    /// The slot a key feeds, a pure function of `(salt, key)` — shared
    /// by every instance, which is what makes slot values comparable.
    fn slot(&self, key: u64) -> usize {
        (splitmix64(key ^ splitmix64(self.salt ^ SLOT_GAMMA)) % self.slots() as u64) as usize
    }
}

/// Domain-separation constants so the slot hash and the band fold never
/// coincide with the seed hash or with each other.
const SLOT_GAMMA: u64 = 0xb5ad_4ece_da1c_e2a9;
const BAND_GAMMA: u64 = 0x2545_f491_4f6c_dd1d;

/// The hashing core behind every band signature: the per-band hashes of
/// the retained `(rank, key)` entries `entries`, which may come in **any
/// order**. `slots` is the slot scratch (resized/cleared internally),
/// `out` receives the per-band hashes, as in [`band_hashes`].
///
/// Each slot takes the key of its minimum `(rank, key)` entry. Over a
/// sketch's rank-ordered entries that is the first key to claim the
/// slot, so a finished sample ([`band_hashes_into`]) and a live
/// [`BottomKStream`](monotone_coord::bottomk::BottomKStream)'s heap
/// minus its threshold entry (its
/// [`retained`](monotone_coord::bottomk::BottomKStream::retained)
/// entries) hash to the same bits, and a shard can sign its streams
/// without snapshotting them.
pub fn band_hashes_ranked_into(
    entries: impl IntoIterator<Item = (f64, u64)>,
    cfg: &BandConfig,
    slots: &mut Vec<Option<(f64, u64)>>,
    out: &mut Vec<Option<u64>>,
) {
    slots.clear();
    slots.resize(cfg.slots(), None);
    for (rank, key) in entries {
        let slot = &mut slots[cfg.slot(key)];
        let wins = match *slot {
            None => true,
            Some((r, k)) => rank.total_cmp(&r).then(key.cmp(&k)).is_lt(),
        };
        if wins {
            *slot = Some((rank, key));
        }
    }
    out.clear();
    out.extend((0..cfg.bands).map(|b| {
        let mut h = splitmix64(cfg.salt ^ BAND_GAMMA);
        for slot in &slots[b * cfg.rows..(b + 1) * cfg.rows] {
            h = splitmix64(h ^ splitmix64((*slot)?.1 ^ SLOT_GAMMA));
        }
        Some(h)
    }));
}

/// [`band_hashes`] into caller-provided buffers: `slots` is the slot
/// scratch (resized/cleared internally), `out` receives the per-band
/// hashes. Build hot loops call this with two reused buffers so hashing
/// a sketch allocates nothing; [`band_hashes`] is the allocating
/// convenience wrapper.
pub fn band_hashes_into(
    sketch: &BottomKSample,
    cfg: &BandConfig,
    slots: &mut Vec<Option<(f64, u64)>>,
    out: &mut Vec<Option<u64>>,
) {
    band_hashes_ranked_into(sketch.ranked(), cfg, slots, out);
}

/// The per-band signature hashes of one sketch: entry `b` is the hash of
/// band `b`'s `rows` slot values, or `None` when any of those slots
/// received no retained key (the band is non-indexable for this sketch).
///
/// Slot values are the minimum-*rank* retained key per slot — the
/// coordinated min-hash — so two coordinated sketches agree on a slot
/// exactly when the least-rank item of that key region is retained by
/// both.
pub fn band_hashes(sketch: &BottomKSample, cfg: &BandConfig) -> Vec<Option<u64>> {
    let mut slots = Vec::new();
    let mut out = Vec::new();
    band_hashes_into(sketch, cfg, &mut slots, &mut out);
    out
}

/// One instance's indexable band signature: its `(band, hash)` pairs,
/// ascending by band, for the bands whose slots all filled.
pub type Signature = Box<[(u32, u64)]>;

/// Reused hashing scratch that turns retained `(rank, key)` entries into
/// a [`Signature`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Signer {
    slots: Vec<Option<(f64, u64)>>,
    hashes: Vec<Option<u64>>,
}

impl Signer {
    /// The signature of `entries` (any order) under `cfg`.
    pub(crate) fn sign(
        &mut self,
        cfg: &BandConfig,
        entries: impl IntoIterator<Item = (f64, u64)>,
    ) -> Signature {
        band_hashes_ranked_into(entries, cfg, &mut self.slots, &mut self.hashes);
        // Sized exactly: one allocation per signature, no regrowth.
        let mut sig = Vec::with_capacity(self.hashes.iter().flatten().count());
        sig.extend(
            self.hashes
                .iter()
                .enumerate()
                .filter_map(|(band, hash)| hash.map(|h| (band as u32, h))),
        );
        sig.into_boxed_slice()
    }
}

/// `splitmix64` as a [`Hasher`] for the index's `u64` table keys. Band
/// hashes are already uniform, but instance ids are not (they are often
/// dense ranges), so every key is mixed once before it picks a slot.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
}

/// A hash table keyed by band hash or instance id.
type Table<V> = HashMap<u64, V, BuildHasherDefault<Mix>>;

/// The ids registered under one `(band, hash)`, ascending. A bucket of
/// one — the common case in a large pool — stores its id inline in the
/// table slot; only a shared bucket allocates.
#[derive(Debug, Clone)]
enum Bucket {
    One(u64),
    /// Two or more ids, strictly ascending.
    Many(Vec<u64>),
}

impl Bucket {
    fn ids(&self) -> &[u64] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    /// Adds `id`, which must not be in the bucket yet.
    fn add(&mut self, id: u64) {
        match self {
            Bucket::One(x) => *self = Bucket::Many(vec![id.min(*x), id.max(*x)]),
            Bucket::Many(ids) => ids.insert(ids.partition_point(|&y| y < id), id),
        }
    }
}

/// Registers `id` under `hash` in one band's table.
fn register(table: &mut Table<Bucket>, hash: u64, id: u64) {
    match table.entry(hash) {
        Entry::Vacant(e) => {
            e.insert(Bucket::One(id));
        }
        Entry::Occupied(mut e) => e.get_mut().add(id),
    }
}

/// Unregisters `id` from `hash` in one band's table, dropping the
/// bucket when it empties and inlining it again when one id is left.
fn unregister(table: &mut Table<Bucket>, hash: u64, id: u64) {
    let bucket = table
        .get_mut(&hash)
        .expect("registered signature hash has a bucket");
    match bucket {
        Bucket::One(x) => {
            assert_eq!(*x, id, "registered id is in its bucket");
            table.remove(&hash);
        }
        Bucket::Many(ids) => {
            let at = ids
                .binary_search(&id)
                .expect("registered id is in its bucket");
            ids.remove(at);
            if ids.len() == 1 {
                *bucket = Bucket::One(ids[0]);
            }
        }
    }
}

/// The tables of bands `lo..hi`, filled from `sigs` (ascending by id):
/// one bulk builder's share of the bands. A first pass counts each
/// band's entries so every table is sized once.
fn band_tables(sigs: &[(u64, Signature)], lo: usize, hi: usize) -> Vec<Table<Bucket>> {
    // Each signature is ascending by band: the group is one sub-slice.
    let group = |sig: &Signature| {
        let from = sig.partition_point(|&(b, _)| (b as usize) < lo);
        let to = sig.partition_point(|&(b, _)| (b as usize) < hi);
        from..to
    };
    let mut counts = vec![0usize; hi - lo];
    for (_, sig) in sigs {
        for &(band, _) in &sig[group(sig)] {
            counts[band as usize - lo] += 1;
        }
    }
    let mut tables: Vec<Table<Bucket>> = counts
        .into_iter()
        .map(|n| Table::with_capacity_and_hasher(n, Default::default()))
        .collect();
    for (id, sig) in sigs {
        for &(band, hash) in &sig[group(sig)] {
            register(&mut tables[band as usize - lo], hash, *id);
        }
    }
    tables
}

/// Fills `out` with the sorted, deduplicated union of `buckets` (each
/// sorted ascending), keeping only ids above `floor` when one is given.
/// The ids above `floor` are a suffix of each bucket found by binary
/// search, and a single contributing bucket needs no sort at all.
fn union_above<'a>(
    buckets: impl IntoIterator<Item = &'a [u64]>,
    floor: Option<u64>,
    out: &mut Vec<u64>,
) {
    out.clear();
    let mut runs = 0;
    for ids in buckets {
        let ids = match floor {
            Some(a) => &ids[ids.partition_point(|&b| b <= a)..],
            None => ids,
        };
        if !ids.is_empty() {
            runs += 1;
            out.extend_from_slice(ids);
        }
    }
    if runs > 1 {
        out.sort_unstable();
        out.dedup();
    }
}

/// An inverted index from band hashes to instance ids: the candidate
/// stage of the all-pairs similarity join.
///
/// Two inserted instances are *candidates* when at least one band hash
/// matches. Each band is one flat hash table from band hash to a bucket
/// of ids; a single-id bucket is stored inline and a shared one holds
/// its ids in a sorted vector. A second table maps each id to its
/// signature. The index is deterministic: buckets stay sorted and every
/// output is sorted, so [`BandIndex::candidate_pairs`],
/// [`BandIndex::for_each_candidate_block`],
/// [`BandIndex::candidates_of`], [`BandIndex::ids`], and the wire bytes
/// of [`BandIndex::encode_into`] are identical for any insertion order
/// (and hence any store shard count or ingest thread schedule).
///
/// Each id's registered `(band, hash)` signature stays resident, so the
/// index supports **incremental maintenance**: [`BandIndex::insert`] is
/// remove-then-insert (re-registering an id touches only the bands
/// whose hash changed), [`BandIndex::remove`] unregisters an id
/// entirely, and [`BandIndex::candidates_of_id`] answers probes for
/// resident ids off the cache in `O(bands)` bucket lookups. The bulk
/// build and the live index share this one layout. See the
/// [module docs](self) for the cost model.
#[derive(Debug, Clone, Default)]
pub struct BandIndex {
    cfg: Option<BandConfig>,
    /// One table per band: band hash → the ids registered under it.
    buckets: Vec<Table<Bucket>>,
    /// id → the `(band, hash)` pairs it is registered under, ascending
    /// by band: the indexable part of its signature.
    signatures: Table<Signature>,
    /// Reused hashing scratch (never observable through the API).
    signer: Signer,
}

impl BandIndex {
    /// An empty index under `cfg`.
    pub fn new(cfg: BandConfig) -> BandIndex {
        BandIndex {
            cfg: Some(cfg),
            buckets: vec![Table::default(); cfg.bands()],
            signatures: Table::default(),
            signer: Signer::default(),
        }
    }

    /// Builds an index from `(id, signature)` pairs in any order — the
    /// one table builder behind every bulk index: equal to inserting
    /// each id's sketch into [`BandIndex::new`] one by one, and
    /// [`from_signatures_with`](BandIndex::from_signatures_with) under a
    /// one-worker engine.
    ///
    /// # Panics
    ///
    /// Panics if an id repeats.
    pub fn from_signatures(cfg: BandConfig, sigs: Vec<(u64, Signature)>) -> BandIndex {
        BandIndex::from_signatures_with(cfg, sigs, &Engine::with_threads(1))
    }

    /// [`from_signatures`](BandIndex::from_signatures) with the band
    /// tables filled across `engine`'s workers. The pairs are sorted by
    /// id, each worker fills the tables of its own group of bands (each
    /// table sized once from a count of its entries, every shared-bucket
    /// insert an append), and the id → signature table takes the
    /// signatures by move. The result is bit-identical at every worker
    /// count.
    ///
    /// Each signature must be one this config produced: bands in range
    /// and strictly ascending, as [`ShardBackend::band_signatures`]
    /// returns them and [`BandIndex::decode`] checks them.
    ///
    /// [`ShardBackend::band_signatures`]: crate::ShardBackend::band_signatures
    ///
    /// # Panics
    ///
    /// Panics if an id repeats.
    pub fn from_signatures_with(
        cfg: BandConfig,
        mut sigs: Vec<(u64, Signature)>,
        engine: &Engine,
    ) -> BandIndex {
        // Stable: shard lists arrive as ascending runs, which it merges.
        sigs.sort_by_key(|&(id, _)| id);
        if let Some(dup) = sigs.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!(
                "signatures must hold disjoint ids (id {} duplicated)",
                dup[0].0
            );
        }
        debug_assert!(sigs.iter().all(|(_, sig)| {
            sig.windows(2).all(|w| w[0].0 < w[1].0)
                && sig.last().is_none_or(|&(b, _)| (b as usize) < cfg.bands())
        }));
        let groups = chunk_bounds(cfg.bands(), engine.threads());
        let buckets = engine
            .map_chunked(&groups, |_, &(lo, hi)| band_tables(&sigs, lo, hi))
            .into_iter()
            .flatten()
            .collect();
        let mut signatures = Table::with_capacity_and_hasher(sigs.len(), Default::default());
        signatures.extend(sigs);
        BandIndex {
            cfg: Some(cfg),
            buckets,
            signatures,
            signer: Signer::default(),
        }
    }

    /// The index's band configuration.
    ///
    /// # Panics
    ///
    /// Panics on a `Default`-constructed index (which has no config).
    pub fn config(&self) -> &BandConfig {
        self.cfg.as_ref().expect("BandIndex::new sets the config")
    }

    /// Number of distinct inserted instance ids (re-inserting an id does
    /// not inflate this).
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True while nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The distinct inserted ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_id().into_iter().map(|(id, _)| id)
    }

    /// Every `(id, signature)`, ascending by id.
    fn by_id(&self) -> Vec<(u64, &[(u32, u64)])> {
        let mut all: Vec<(u64, &[(u32, u64)])> = self
            .signatures
            .iter()
            .map(|(&id, sig)| (id, &**sig))
            .collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all
    }

    /// The `(band, hash)` pairs `id` is registered under (ascending by
    /// band), or `None` if the id was never inserted. An inserted id
    /// whose sketch filled no band has an empty (but present) signature.
    pub fn signature(&self, id: u64) -> Option<&[(u32, u64)]> {
        self.signatures.get(&id).map(|sig| &**sig)
    }

    /// Indexes `id` under every indexable band of `sketch`'s signature.
    ///
    /// Remove-then-insert: if `id` is already present its old signature
    /// is unregistered first, and only the bands whose hash actually
    /// changed are touched — re-inserting an unchanged sketch is a no-op
    /// and [`len`](BandIndex::len) counts distinct ids, never inserts.
    /// This is the live-maintenance primitive: an index updated on every
    /// sketch change stays identical to a from-scratch rebuild.
    pub fn insert(&mut self, id: u64, sketch: &BottomKSample) {
        let cfg = *self.config();
        let new = self.signer.sign(&cfg, sketch.ranked());
        let buckets = &mut self.buckets;
        let slot = self.signatures.entry(id).or_default();
        let old = std::mem::replace(slot, new);
        let new = &**slot;
        // Band-ascending merge of the old and new signatures: unregister
        // stale hashes, register fresh ones, skip unchanged bands.
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(&(ob, oh)), Some(&(nb, _))) if ob < nb => {
                    unregister(&mut buckets[ob as usize], oh, id);
                    i += 1;
                }
                (Some(&(ob, oh)), Some(&(nb, nh))) if ob == nb => {
                    if oh != nh {
                        unregister(&mut buckets[ob as usize], oh, id);
                        register(&mut buckets[nb as usize], nh, id);
                    }
                    i += 1;
                    j += 1;
                }
                (_, Some(&(nb, nh))) => {
                    register(&mut buckets[nb as usize], nh, id);
                    j += 1;
                }
                (Some(&(ob, oh)), None) => {
                    unregister(&mut buckets[ob as usize], oh, id);
                    i += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
    }

    /// Unregisters `id` entirely; returns whether it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.signatures.remove(&id) {
            None => false,
            Some(sig) => {
                for &(band, hash) in sig.iter() {
                    unregister(&mut self.buckets[band as usize], hash, id);
                }
                true
            }
        }
    }

    /// Merges partial indexes over disjoint ids (shard partials, say)
    /// into one: their signatures are collected and handed to
    /// [`from_signatures`](BandIndex::from_signatures), so the result is
    /// the index of the union — buckets and signatures are the unions,
    /// and all sorted query outputs are bit-identical to inserting every
    /// instance into a single index. The parts' tables are dropped, not
    /// moved.
    ///
    /// # Panics
    ///
    /// Panics if a part was built under a different `BandConfig`, or if
    /// two parts contain the same instance id (parts must partition the
    /// instances).
    pub fn merged(cfg: BandConfig, parts: Vec<BandIndex>) -> BandIndex {
        for part in &parts {
            assert_eq!(
                part.cfg,
                Some(cfg),
                "merged parts must share one band config"
            );
        }
        let sigs = parts.into_iter().flat_map(|part| part.signatures).collect();
        BandIndex::from_signatures(cfg, sigs)
    }

    /// The sorted, deduplicated ids whose signature shares at least one
    /// band with `sketch` — including the probe's own id if it was
    /// inserted. An all-empty signature (a sketch too sparse to fill any
    /// band) has no candidates.
    pub fn candidates_of(&self, sketch: &BottomKSample) -> Vec<u64> {
        let sig = Signer::default().sign(self.config(), sketch.ranked());
        self.candidates_of_signature(&sig)
    }

    /// [`candidates_of`](BandIndex::candidates_of) for an id already in
    /// the index, answered off its cached signature — no sketch needed,
    /// `O(bands)` bucket lookups: the live "who is similar to X right
    /// now" query. Returns `None` for an id never inserted. The probe's
    /// own id is always among its candidates (it shares every band with
    /// itself) unless its signature is all-empty.
    pub fn candidates_of_id(&self, id: u64) -> Option<Vec<u64>> {
        self.signatures
            .get(&id)
            .map(|sig| self.candidates_of_signature(sig))
    }

    /// The sorted, deduplicated inserted ids registered under at least
    /// one of `sig`'s `(band, hash)` pairs — the probe primitive behind
    /// both [`candidates_of_id`](BandIndex::candidates_of_id) and a
    /// *distributed* gather: a router holding an instance's signature
    /// can probe every shard's partial index with it and union the
    /// sorted results, which equals probing one global index because
    /// shard partials partition the ids. Bands outside this index's
    /// config contribute nothing (a probe from a mismatched config
    /// finds no buckets, it does not panic).
    pub fn candidates_of_signature(&self, sig: &[(u32, u64)]) -> Vec<u64> {
        let buckets = sig
            .iter()
            .filter_map(|&(band, h)| self.buckets.get(band as usize)?.get(&h))
            .map(Bucket::ids);
        let mut out = Vec::new();
        union_above(buckets, None, &mut out);
        out
    }

    /// Streams every unordered candidate pair `(a, b)` with `a < b` —
    /// globally sorted lexicographically and deduplicated across bands —
    /// to `f` in blocks of at least `block` pairs (the final block may
    /// be smaller; a block can overshoot by one instance's partner run).
    /// Concatenating the blocks yields exactly
    /// [`candidate_pairs`](BandIndex::candidate_pairs), but peak memory
    /// is `O(block + shared-bucket memberships + largest per-id
    /// candidate set)` instead of `O(total pairs)` — the verification
    /// stage of a 10⁶-instance join consumes the stream without ever
    /// materializing the pair set.
    ///
    /// The walk is id-major and touches shared buckets only: every
    /// `(id, bucket)` membership with a larger id in the bucket is
    /// collected once and sorted by id; for each such `a` in ascending
    /// order, the members of `a`'s shared buckets above `a` are merged
    /// into `a`'s deduplicated partner run. Every colliding pair is seen
    /// from its smaller side only, so each pair is emitted exactly once,
    /// already in global order.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn for_each_candidate_block<F: FnMut(&[(u64, u64)])>(&self, block: usize, mut f: F) {
        assert!(block > 0, "blocked extraction needs a positive block size");
        // A bucket's largest id has no partner above it in that bucket.
        let mut memberships: Vec<(u64, &[u64])> = self
            .buckets
            .iter()
            .flat_map(Table::values)
            .filter_map(|bucket| match bucket {
                Bucket::One(_) => None,
                Bucket::Many(ids) => Some(&ids[..]),
            })
            .flat_map(|ids| ids[..ids.len() - 1].iter().map(move |&a| (a, ids)))
            .collect();
        memberships.sort_unstable_by_key(|&(a, _)| a);
        let mut buf: Vec<(u64, u64)> = Vec::with_capacity(block.min(1 << 16));
        let mut partners: Vec<u64> = Vec::new();
        for run in memberships.chunk_by(|x, y| x.0 == y.0) {
            let a = run[0].0;
            union_above(run.iter().map(|&(_, ids)| ids), Some(a), &mut partners);
            buf.extend(partners.iter().map(|&b| (a, b)));
            if buf.len() >= block {
                f(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            f(&buf);
        }
    }

    /// Every unordered candidate pair `(a, b)` with `a < b`, sorted
    /// lexicographically and deduplicated across bands: the input to the
    /// join's verification stage, materialized. Scale-sensitive callers
    /// should prefer the streaming
    /// [`for_each_candidate_block`](BandIndex::for_each_candidate_block)
    /// this is a collect-all wrapper over.
    pub fn candidate_pairs(&self) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        self.for_each_candidate_block(usize::MAX, |block| pairs.extend_from_slice(block));
        pairs
    }

    /// Appends this index's stable, versioned wire form to `out` — how a
    /// remote shard ships a build partial to the router. Only the config
    /// and the per-id signatures travel, ascending by id; the bucket
    /// tables are derived state and are rebuilt on decode, so sender and
    /// receiver cannot disagree about bucket contents.
    pub fn encode_into(&self, out: &mut Enc) {
        encode_signatures(self.config(), &self.by_id(), out);
    }

    /// Decodes one index from `dec`: its signatures, then
    /// [`from_signatures`](BandIndex::from_signatures). The result is
    /// interchangeable with the encoded index: signatures are
    /// bit-identical and every sorted query output matches.
    ///
    /// # Errors
    ///
    /// [`monotone_core::Error::Encoding`] on truncation, an unknown
    /// version, a config of more than 2¹⁶ `bands · rows` slots, a
    /// repeated id, or a signature violating the index invariants
    /// (bands out of range or not strictly ascending).
    pub fn decode(dec: &mut Dec<'_>) -> monotone_core::Result<BandIndex> {
        let (cfg, sigs) = decode_signatures(dec)?;
        Ok(BandIndex::from_signatures(cfg, sigs))
    }
}

/// Plausibility cap on the `bands · rows` slots of a config read from the
/// wire. A decoded config allocates one table per band, and a hashing
/// scratch of one entry per slot, before any signature arrives — and an
/// empty index is legitimately tiny, so no byte count bounds them.
/// Every config in this repository has at most 24 bands of 3 rows.
pub(crate) const MAX_WIRE_SLOTS: usize = 1 << 16;

impl BandConfig {
    /// Appends `bands`, `rows` and `salt` to `out`.
    pub(crate) fn encode_into(&self, out: &mut Enc) {
        out.put_len(self.bands);
        out.put_len(self.rows);
        out.put_u64(self.salt);
    }

    /// Reads a config written by [`encode_into`](BandConfig::encode_into).
    ///
    /// # Errors
    ///
    /// [`monotone_core::Error::Encoding`] on truncation, a zero band or
    /// row count, or more than [`MAX_WIRE_SLOTS`] slots.
    pub(crate) fn decode(dec: &mut Dec<'_>) -> monotone_core::Result<BandConfig> {
        let bands = dec.take_len()?;
        let rows = dec.take_len()?;
        let salt = dec.take_u64()?;
        if bands == 0 || rows == 0 {
            return Err(Error::Encoding(format!(
                "degenerate band config {bands}x{rows}"
            )));
        }
        if bands.checked_mul(rows).is_none_or(|n| n > MAX_WIRE_SLOTS) {
            return Err(Error::Encoding(format!(
                "band config {bands}x{rows} exceeds the {MAX_WIRE_SLOTS}-slot cap"
            )));
        }
        Ok(BandConfig::new(bands, rows, salt))
    }
}

/// Appends the [`BandIndex`] wire form of `sigs` (ascending by id) under
/// `cfg` to `out`: what a shard ships for its build, byte-identical to
/// encoding the index the signatures build.
pub(crate) fn encode_signatures<S: AsRef<[(u32, u64)]>>(
    cfg: &BandConfig,
    sigs: &[(u64, S)],
    out: &mut Enc,
) {
    out.put_u8(WIRE_VERSION);
    cfg.encode_into(out);
    out.put_len(sigs.len());
    for (id, sig) in sigs {
        let sig = sig.as_ref();
        out.put_u64(*id);
        out.put_len(sig.len());
        for &(band, hash) in sig {
            out.put_u32(band);
            out.put_u64(hash);
        }
    }
}

/// Decodes a [`BandIndex`] wire payload into its config and its
/// `(id, signature)` pairs, ascending by id, without building tables.
/// Capacity reserved from a wire count is bounded by the bytes actually
/// left to decode.
///
/// # Errors
///
/// As [`BandIndex::decode`].
pub(crate) fn decode_signatures(
    dec: &mut Dec<'_>,
) -> monotone_core::Result<(BandConfig, Vec<(u64, Signature)>)> {
    let version = dec.take_u8()?;
    if version != WIRE_VERSION {
        return Err(Error::Encoding(format!(
            "unknown BandIndex wire version {version}"
        )));
    }
    let cfg = BandConfig::decode(dec)?;
    let n = dec.take_len()?;
    // Each id costs at least its id and signature length on the wire.
    let mut sigs = Vec::with_capacity(n.min(dec.remaining() / 16));
    for _ in 0..n {
        let id = dec.take_u64()?;
        let sig_len = dec.take_len()?;
        if sig_len > cfg.bands() {
            return Err(Error::Encoding(format!(
                "signature of {sig_len} bands exceeds the {}-band config",
                cfg.bands()
            )));
        }
        // Each entry is a u32 band and a u64 hash.
        let mut sig = Vec::with_capacity(sig_len.min(dec.remaining() / 12));
        for _ in 0..sig_len {
            let band = dec.take_u32()?;
            let hash = dec.take_u64()?;
            if band as usize >= cfg.bands() {
                return Err(Error::Encoding(format!("band {band} out of range")));
            }
            if let Some(&(prev, _)) = sig.last() {
                if band <= prev {
                    return Err(Error::Encoding(
                        "signature bands not strictly ascending".to_owned(),
                    ));
                }
            }
            sig.push((band, hash));
        }
        sigs.push((id, sig.into_boxed_slice()));
    }
    sigs.sort_by_key(|&(id, _)| id);
    if let Some(dup) = sigs.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(Error::Encoding(format!("id {} encoded twice", dup[0].0)));
    }
    Ok((cfg, sigs))
}

/// Version byte leading every [`BandIndex`] wire payload. Bump on any
/// layout change; decoders reject versions they do not know.
const WIRE_VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use monotone_coord::bottomk::{BottomK, RankMethod};
    use monotone_coord::instance::Instance;
    use monotone_coord::seed::SeedHasher;

    fn sketch(k: usize, salt: u64, keys: impl IntoIterator<Item = u64>) -> BottomKSample {
        let inst = Instance::from_pairs(keys.into_iter().map(|key| (key, 1.0 + (key % 3) as f64)));
        BottomK::new(k, RankMethod::Priority, SeedHasher::new(salt)).sample_instance(&inst)
    }

    #[test]
    fn threshold_is_the_s_curve_midpoint() {
        assert!((BandConfig::new(16, 2, 0).threshold() - 0.25).abs() < 1e-12);
        assert!((BandConfig::new(8, 1, 0).threshold() - 0.125).abs() < 1e-12);
        assert!((BandConfig::new(1, 3, 0).threshold() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_panics() {
        BandConfig::new(0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        BandConfig::new(4, 0, 0);
    }

    #[test]
    fn identical_sketches_collide_on_every_indexable_band() {
        let cfg = BandConfig::new(8, 2, 3);
        let a = sketch(64, 9, 0..50);
        let b = sketch(64, 9, 0..50);
        assert_eq!(band_hashes(&a, &cfg), band_hashes(&b, &cfg));
        let mut index = BandIndex::new(cfg);
        index.insert(10, &a);
        index.insert(20, &b);
        assert_eq!(index.candidate_pairs(), vec![(10, 20)]);
        assert_eq!(index.candidates_of(&a), vec![10, 20]);
        assert_eq!(index.candidates_of_id(10), Some(vec![10, 20]));
        assert_eq!(index.candidates_of_id(99), None);
    }

    #[test]
    fn band_hashes_into_reuses_scratch_and_matches_the_wrapper() {
        let cfg = BandConfig::new(12, 2, 5);
        let mut slots = Vec::new();
        let mut out = Vec::new();
        for n in [3u64, 20, 50, 0] {
            let s = sketch(16, 9, 0..n);
            band_hashes_into(&s, &cfg, &mut slots, &mut out);
            assert_eq!(out, band_hashes(&s, &cfg), "n={n}");
            assert_eq!(slots.len(), cfg.slots());
        }
    }

    #[test]
    fn disjoint_sketches_never_collide() {
        // Disjoint key sets can share a fully-populated band only by a
        // 64-bit hash collision; empty-empty slots are skipped, so
        // sparse disjoint instances cannot meet in an "empty" bucket.
        let cfg = BandConfig::new(16, 2, 3);
        let mut index = BandIndex::new(cfg);
        for id in 0..40u64 {
            index.insert(id, &sketch(32, 9, id * 10_000..id * 10_000 + 60));
        }
        assert_eq!(index.len(), 40);
        assert_eq!(index.candidate_pairs(), vec![]);
    }

    #[test]
    fn empty_slot_bands_are_skipped_not_indexed() {
        // One retained key fills exactly one slot; with rows = 2 every
        // band has an empty slot, so nothing is indexable.
        let cfg = BandConfig::new(8, 2, 3);
        let one = sketch(8, 9, [5u64]);
        assert!(band_hashes(&one, &cfg).iter().all(Option::is_none));
        let mut index = BandIndex::new(cfg);
        index.insert(1, &one);
        index.insert(2, &one);
        assert_eq!(index.len(), 2);
        assert_eq!(index.signature(1), Some(&[][..]));
        assert_eq!(index.candidate_pairs(), vec![]);
        assert_eq!(index.candidates_of(&one), vec![]);
        assert_eq!(index.candidates_of_id(1), Some(vec![]));

        // With rows = 1 the single filled slot is a full band: the two
        // identical singletons become candidates.
        let cfg1 = BandConfig::new(16, 1, 3);
        let mut index1 = BandIndex::new(cfg1);
        index1.insert(1, &one);
        index1.insert(2, &one);
        assert_eq!(index1.candidate_pairs(), vec![(1, 2)]);
    }

    /// Regression: re-inserting an existing id used to increment the
    /// instance count (so `len()` over-counted) and leave the id
    /// registered twice in its buckets. Insert is now remove-then-insert.
    #[test]
    fn reinserting_an_id_neither_overcounts_nor_leaks_old_hashes() {
        let cfg = BandConfig::new(8, 2, 3);
        let old = sketch(64, 9, 0..50);
        let new = sketch(64, 9, 10_000..10_050);
        let probe = sketch(64, 9, 0..50);

        let mut index = BandIndex::new(cfg);
        index.insert(1, &old);
        index.insert(1, &old); // identical re-insert: a no-op
        assert_eq!(index.len(), 1);
        index.insert(2, &probe);
        assert_eq!(index.len(), 2);
        assert_eq!(index.candidate_pairs(), vec![(1, 2)]);

        // Re-registering id 1 under a disjoint sketch must unregister
        // every old band hash: the old probe no longer finds it.
        index.insert(1, &new);
        assert_eq!(index.len(), 2);
        assert_eq!(index.candidate_pairs(), vec![]);
        assert_eq!(index.candidates_of(&probe), vec![2]);
        assert_eq!(index.candidates_of(&new), vec![1]);

        // And the result is identical to a fresh index built with the
        // final sketches only.
        let mut fresh = BandIndex::new(cfg);
        fresh.insert(1, &new);
        fresh.insert(2, &probe);
        assert_eq!(index.candidate_pairs(), fresh.candidate_pairs());
        assert_eq!(index.signature(1), fresh.signature(1));
        assert_eq!(index.signature(2), fresh.signature(2));
    }

    #[test]
    fn remove_unregisters_everything() {
        let cfg = BandConfig::new(8, 2, 3);
        let shared = sketch(64, 9, 0..50);
        let mut index = BandIndex::new(cfg);
        index.insert(1, &shared);
        index.insert(2, &shared);
        assert!(index.remove(1));
        assert!(!index.remove(1), "second remove finds nothing");
        assert_eq!(index.len(), 1);
        assert_eq!(index.candidate_pairs(), vec![]);
        assert_eq!(index.candidates_of(&shared), vec![2]);
        assert_eq!(index.candidates_of_id(1), None);
        // Removing the last id leaves a truly empty index.
        assert!(index.remove(2));
        assert!(index.is_empty());
        assert_eq!(index.candidates_of(&shared), vec![]);
    }

    #[test]
    fn insertion_order_does_not_change_candidates() {
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..30u64)
            .map(|id| (id, sketch(24, 9, id * 20..id * 20 + 40)))
            .collect();
        let mut fwd = BandIndex::new(cfg);
        let mut rev = BandIndex::new(cfg);
        for (id, s) in &sketches {
            fwd.insert(*id, s);
        }
        for (id, s) in sketches.iter().rev() {
            rev.insert(*id, s);
        }
        assert_eq!(fwd.candidate_pairs(), rev.candidate_pairs());
        assert_eq!(
            fwd.candidates_of(&sketches[3].1),
            rev.candidates_of(&sketches[3].1)
        );
    }

    #[test]
    fn candidate_pairs_are_sorted_unique_and_ordered_within() {
        let cfg = BandConfig::new(8, 1, 5);
        let mut index = BandIndex::new(cfg);
        let shared = sketch(32, 9, 0..40);
        for id in [9u64, 3, 7, 1] {
            index.insert(id, &shared);
        }
        let pairs = index.candidate_pairs();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted: {pairs:?}");
        assert!(pairs.iter().all(|&(a, b)| a < b));
        assert_eq!(pairs.len(), 6); // C(4, 2), deduplicated across bands
    }

    #[test]
    fn blocked_extraction_concatenates_to_candidate_pairs_at_any_block_size() {
        let cfg = BandConfig::new(12, 2, 5);
        let mut index = BandIndex::new(cfg);
        for id in 0..30u64 {
            index.insert(id, &sketch(24, 9, id * 20..id * 20 + 40));
        }
        let reference = index.candidate_pairs();
        assert!(!reference.is_empty(), "workload must produce candidates");
        for block in [1usize, 2, 3, 7, reference.len(), reference.len() + 10] {
            let mut streamed = Vec::new();
            let mut blocks = 0usize;
            index.for_each_candidate_block(block, |b| {
                assert!(!b.is_empty());
                assert!(b.windows(2).all(|w| w[0] < w[1]), "block sorted");
                streamed.extend_from_slice(b);
                blocks += 1;
            });
            assert_eq!(streamed, reference, "block={block}");
            if block == 1 {
                assert!(blocks > 1, "small blocks must actually stream");
            }
        }
        // An empty index streams nothing.
        let empty = BandIndex::new(cfg);
        empty.for_each_candidate_block(4, |_| panic!("no blocks expected"));
    }

    #[test]
    #[should_panic(expected = "positive block size")]
    fn zero_block_size_panics() {
        BandIndex::new(BandConfig::new(4, 1, 0)).for_each_candidate_block(0, |_| {});
    }

    #[test]
    fn merged_partials_equal_a_single_sequential_index() {
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..24u64)
            .map(|id| (id, sketch(24, 9, id * 20..id * 20 + 40)))
            .collect();
        let mut reference = BandIndex::new(cfg);
        for (id, s) in &sketches {
            reference.insert(*id, s);
        }
        for parts_n in [1usize, 2, 3, 5] {
            let mut parts: Vec<BandIndex> = (0..parts_n).map(|_| BandIndex::new(cfg)).collect();
            for (i, (id, s)) in sketches.iter().enumerate() {
                parts[i % parts_n].insert(*id, s);
            }
            let merged = BandIndex::merged(cfg, parts);
            assert_eq!(merged.len(), reference.len());
            assert_eq!(merged.candidate_pairs(), reference.candidate_pairs());
            for (id, s) in &sketches {
                assert_eq!(merged.candidates_of(s), reference.candidates_of(s));
                assert_eq!(merged.signature(*id), reference.signature(*id));
                assert_eq!(
                    merged.candidates_of_id(*id),
                    reference.candidates_of_id(*id)
                );
            }
        }
    }

    #[test]
    fn candidates_of_signature_matches_candidates_of_id() {
        let cfg = BandConfig::new(12, 2, 5);
        let mut index = BandIndex::new(cfg);
        for id in 0..30u64 {
            index.insert(id, &sketch(24, 9, id * 20..id * 20 + 40));
        }
        for id in 0..30u64 {
            let sig = index.signature(id).unwrap().to_vec();
            assert_eq!(
                index.candidates_of_signature(&sig),
                index.candidates_of_id(id).unwrap(),
                "id={id}"
            );
        }
        // A foreign signature probes gracefully: out-of-range bands and
        // unknown hashes find nothing.
        assert_eq!(index.candidates_of_signature(&[(999, 1), (0, 2)]), vec![]);
        assert_eq!(index.candidates_of_signature(&[]), vec![]);
    }

    #[test]
    fn gathered_shard_probes_equal_one_global_index() {
        // The distributed live-join identity: partition ids across
        // "shards", probe each partial with one id's signature, union —
        // must equal probing the single global index.
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..40u64)
            .map(|id| (id, sketch(24, 9, id * 15..id * 15 + 40)))
            .collect();
        let mut global = BandIndex::new(cfg);
        let mut parts: Vec<BandIndex> = (0..3).map(|_| BandIndex::new(cfg)).collect();
        for (id, s) in &sketches {
            global.insert(*id, s);
            parts[(*id % 3) as usize].insert(*id, s);
        }
        for (id, _) in &sketches {
            let sig = global.signature(*id).unwrap().to_vec();
            let mut gathered: Vec<u64> = parts
                .iter()
                .flat_map(|p| p.candidates_of_signature(&sig))
                .collect();
            gathered.sort_unstable();
            gathered.dedup();
            assert_eq!(gathered, global.candidates_of_id(*id).unwrap(), "id={id}");
        }
    }

    #[test]
    fn wire_round_trip_preserves_signatures_and_candidates() {
        use monotone_coord::wire::{Dec, Enc};

        let cfg = BandConfig::new(12, 2, 5);
        let mut index = BandIndex::new(cfg);
        for id in 0..30u64 {
            index.insert(id, &sketch(24, 9, id * 20..id * 20 + 40));
        }
        // Include an empty-signature id, the sparse-instance edge.
        index.insert(999, &sketch(8, 9, [5u64]));

        let mut enc = Enc::new();
        index.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = BandIndex::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.config(), index.config());
        assert_eq!(back.len(), index.len());
        assert_eq!(back.candidate_pairs(), index.candidate_pairs());
        for id in index.ids() {
            assert_eq!(back.signature(id), index.signature(id), "id={id}");
            assert_eq!(
                back.candidates_of_id(id),
                index.candidates_of_id(id),
                "id={id}"
            );
        }
        // Re-encoding the decoded index is byte-identical.
        let mut re = Enc::new();
        back.encode_into(&mut re);
        assert_eq!(re.into_bytes(), bytes);
    }

    #[test]
    fn wire_decode_rejects_corruption() {
        use monotone_coord::wire::{Dec, Enc};

        let cfg = BandConfig::new(4, 1, 3);
        let mut index = BandIndex::new(cfg);
        index.insert(1, &sketch(16, 9, 0..30));
        let mut enc = Enc::new();
        index.encode_into(&mut enc);
        let good = enc.into_bytes();

        let mut bad = good.clone();
        bad[0] = 0xee; // version
        assert!(BandIndex::decode(&mut Dec::new(&bad)).is_err());
        for cut in 0..good.len() {
            assert!(
                BandIndex::decode(&mut Dec::new(&good[..cut])).is_err(),
                "truncation at {cut} slipped through"
            );
        }

        // A forged id count is not reserved up front: it fails on the
        // missing ids instead of aborting on the allocation.
        let mut forged = Enc::new();
        forged.put_u8(WIRE_VERSION);
        forged.put_len(4);
        forged.put_len(1);
        forged.put_u64(3);
        forged.put_len(1 << 48);
        let forged = forged.into_bytes();
        assert!(BandIndex::decode(&mut Dec::new(&forged)).is_err());
    }

    /// Regression: a decoded config used to allocate one table per
    /// wire-declared band before reading any id, so a forged band count
    /// aborted the process on the allocation. It is now an `Err`.
    #[test]
    fn wire_decode_rejects_a_forged_band_count() {
        use monotone_coord::wire::{Dec, Enc};

        for (bands, rows) in [(1usize << 40, 1usize), (1, 1 << 40), (1 << 24, 1 << 24)] {
            let mut forged = Enc::new();
            forged.put_u8(WIRE_VERSION);
            forged.put_len(bands);
            forged.put_len(rows);
            forged.put_u64(3);
            forged.put_len(0);
            let forged = forged.into_bytes();
            let err = BandIndex::decode(&mut Dec::new(&forged)).unwrap_err();
            assert!(
                err.to_string().contains("slot cap"),
                "{bands}x{rows}: {err}"
            );
        }
        // The cap itself decodes.
        let cfg = BandConfig::new(MAX_WIRE_SLOTS / 2, 2, 3);
        let mut enc = Enc::new();
        BandIndex::new(cfg).encode_into(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(
            BandIndex::decode(&mut Dec::new(&bytes)).unwrap().config(),
            &cfg
        );
    }

    #[test]
    fn from_signatures_equals_inserting_at_any_worker_count() {
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..40u64)
            .map(|id| (id, sketch(24, 9, id * 15..id * 15 + 40)))
            .collect();
        let mut reference = BandIndex::new(cfg);
        for (id, s) in sketches.iter().rev() {
            reference.insert(*id, s);
        }
        let sigs: Vec<(u64, Signature)> = sketches
            .iter()
            .rev()
            .map(|(id, _)| (*id, reference.signature(*id).unwrap().into()))
            .collect();
        for workers in [1usize, 2, 3, 12, 16] {
            let built =
                BandIndex::from_signatures_with(cfg, sigs.clone(), &Engine::with_threads(workers));
            assert_eq!(built.candidate_pairs(), reference.candidate_pairs());
            for (id, _) in &sketches {
                assert_eq!(built.signature(*id), reference.signature(*id));
                assert_eq!(built.candidates_of_id(*id), reference.candidates_of_id(*id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "disjoint ids")]
    fn merged_rejects_duplicate_ids() {
        let cfg = BandConfig::new(4, 1, 0);
        let s = sketch(8, 9, 0..10);
        let mut a = BandIndex::new(cfg);
        let mut b = BandIndex::new(cfg);
        a.insert(1, &s);
        b.insert(1, &s);
        BandIndex::merged(cfg, vec![a, b]);
    }
}
