//! The `live` workload: a store keeping a live band index under churn.
//! One client thread re-ingests items that change retained sets, adds
//! fresh instances, evicts residents, and probes `live_candidates_of`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use monotone_coord::instance::Instance;
use monotone_coord::seed::splitmix64;
use monotone_core::Result;
use monotone_engine::workload;
use monotone_store::banding::{BandConfig, BandIndex};
use monotone_store::{ShardBackend, SketchStore};

use crate::layers::{self, Counts, SetupTimes};
use crate::report::{
    median, secs, Digest, Geometry, RateWindows, Report, Rng, Windows, INGEST_WINDOW, OP_TAIL,
    OP_WINDOW, ROUND_WINDOW,
};
use crate::shadow::{Replayed, Shadow, ShadowCounts};
use crate::trace::{timed, Tracer};
use crate::traced::{local_backends, TracedStore};
use crate::Args;

const K: usize = 32;
const SHARDS: usize = 16;
/// Items per pool instance and the planted-pair period (E18's pool).
const ITEMS: u64 = 48;
const PERIOD: u64 = 10;
/// Band shape: 16 bands of 2 rows.
const BANDS: usize = 16;
const ROWS: usize = 2;
/// Per round: re-ingests (of `REINGEST_ITEMS` heavy new keys), fresh
/// instances, evictions and probes.
const REINGESTS: usize = 10;
const REINGEST_ITEMS: u64 = 4;
const FRESH: usize = 4;
const EVICTS: usize = 4;
const PROBES: usize = 82;
/// Weight of re-ingested items: far above the pool's, so they enter the
/// retained set and move the instance's band signature.
const HEAVY: f64 = 5.0;
const FRESH_ID_BASE: u64 = 1 << 32;
const UNIQUE_KEY_BASE: u64 = 1 << 45;
/// Probes checked against their decomposition in an untraced run.
const PANEL: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Scale {
    preload: u64,
    setups: usize,
    traced_rounds: u64,
}

fn scale(toy: bool) -> Scale {
    if toy {
        Scale {
            preload: 2_000,
            setups: 2,
            traced_rounds: 20,
        }
    } else {
        Scale {
            preload: 100_000,
            setups: 5,
            traced_rounds: 400,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Reingest,
    Fresh,
    Evict,
    Probe,
}

#[derive(Debug, Clone)]
enum Op {
    Reingest {
        id: u64,
        first_key: u64,
    },
    /// A new instance carrying the items of pool instance `src`.
    Fresh {
        id: u64,
        src: usize,
    },
    Evict {
        id: u64,
    },
    Probe {
        id: u64,
    },
}

/// The seeded op stream. It tracks which ids are resident as it
/// generates, so every op targets an instance that exists.
#[derive(Debug, Clone)]
struct Gen {
    rng: Rng,
    pool_len: usize,
    residents: Vec<u64>,
    slot: HashMap<u64, usize>,
    next_id: u64,
    next_key: u64,
    round: u64,
}

impl Gen {
    fn new(seed: u64, preload: u64) -> Gen {
        Gen {
            rng: Rng::new(seed, 0x11fe),
            pool_len: preload as usize,
            residents: (0..preload).collect(),
            slot: (0..preload).map(|id| (id, id as usize)).collect(),
            next_id: FRESH_ID_BASE,
            next_key: UNIQUE_KEY_BASE,
            round: 0,
        }
    }

    fn pick(&mut self) -> u64 {
        self.residents[self.rng.below(self.residents.len() as u64) as usize]
    }

    fn round(&mut self) -> Vec<Op> {
        let mut kinds = Vec::with_capacity(REINGESTS + FRESH + EVICTS + PROBES);
        kinds.extend(std::iter::repeat_n(Kind::Reingest, REINGESTS));
        kinds.extend(std::iter::repeat_n(Kind::Fresh, FRESH));
        kinds.extend(std::iter::repeat_n(Kind::Evict, EVICTS));
        kinds.extend(std::iter::repeat_n(Kind::Probe, PROBES));
        self.rng.shuffle(&mut kinds);
        let ops = kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Reingest => {
                    let op = Op::Reingest {
                        id: self.pick(),
                        first_key: self.next_key,
                    };
                    self.next_key += REINGEST_ITEMS;
                    op
                }
                Kind::Fresh => {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.slot.insert(id, self.residents.len());
                    self.residents.push(id);
                    Op::Fresh {
                        id,
                        src: self.rng.below(self.pool_len as u64) as usize,
                    }
                }
                Kind::Evict => {
                    let id = self.pick();
                    let at = self.slot.remove(&id).expect("picked ids are resident");
                    self.residents.swap_remove(at);
                    if let Some(&moved) = self.residents.get(at) {
                        self.slot.insert(moved, at);
                    }
                    Op::Evict { id }
                }
                Kind::Probe => Op::Probe { id: self.pick() },
            })
            .collect();
        self.round += 1;
        ops
    }
}

fn reingest_items(first_key: u64) -> Vec<(u64, f64)> {
    (first_key..first_key + REINGEST_ITEMS)
        .map(|key| (key, HEAVY))
        .collect()
}

fn items_of(inst: &Instance) -> Vec<(u64, f64)> {
    inst.iter().collect()
}

fn salts(seed: u64) -> (u64, u64) {
    (
        splitmix64(seed ^ 0x11fe_0001),
        splitmix64(seed ^ 0x11fe_0002),
    )
}

struct Setup {
    pool: Vec<Instance>,
    store: SketchStore,
    backends: Vec<Arc<dyn ShardBackend>>,
    times: SetupTimes,
}

/// `SketchStore::with_live_index` built through `with_backends` (so the
/// shard handles stay reachable), then the planted pool preloaded.
fn setup(seed: u64, sc: Scale) -> Result<Setup> {
    let (salt, band_salt) = salts(seed);
    let mut times = SetupTimes::default();
    let pool_start = Instant::now();
    let pool = workload::planted_pair_pool(sc.preload, ITEMS, PERIOD);
    times.pool_s = secs(pool_start);
    let preload_start = Instant::now();
    let backends = local_backends(K, salt, SHARDS);
    let mut store = SketchStore::with_backends(K, salt, backends.clone());
    store.enable_live_index(BandConfig::new(BANDS, ROWS, band_salt))?;
    for (id, inst) in pool.iter().enumerate() {
        store.ingest_all(id as u64, inst.iter())?;
    }
    times.preload_s = secs(preload_start);
    Ok(Setup {
        pool,
        store,
        backends,
        times,
    })
}

#[derive(Debug)]
struct Tally {
    attempted: u64,
    failed: u64,
    ingest: RateWindows,
    probe_us: Windows,
    round_s: Windows,
    digest: Digest,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            ingest: RateWindows::new(INGEST_WINDOW),
            probe_us: Windows::new(OP_WINDOW, OP_TAIL),
            round_s: Windows::new(ROUND_WINDOW, 0.5),
            digest: Digest::default(),
        }
    }

    fn outcome<T>(&mut self, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

fn exec(store: &SketchStore, pool: &[Instance], op: &Op, t: &mut Tally) {
    match *op {
        Op::Reingest { id, first_key } => {
            let items = reingest_items(first_key);
            let (r, ns) = timed(|| store.ingest_all(id, items.iter().copied()));
            t.ingest.push(items.len() as u64, ns);
            t.outcome(r);
        }
        Op::Fresh { id, src } => {
            let items = items_of(&pool[src]);
            let (r, ns) = timed(|| store.ingest_all(id, items.iter().copied()));
            t.ingest.push(items.len() as u64, ns);
            t.outcome(r);
        }
        Op::Evict { id } => {
            if let Some(had) = t.outcome(store.evict(id)) {
                t.digest.add(u64::from(had));
            }
        }
        Op::Probe { id } => {
            let (r, ns) = timed(|| store.live_candidates_of(id));
            t.probe_us.push(ns as f64 / 1e3);
            if let Some(found) = t.outcome(r) {
                t.digest.add(found.len() as u64);
                for c in found {
                    t.digest.add(c);
                }
            }
        }
    }
}

/// The live index must equal a from-scratch `band_index` rebuild.
fn live_equals_rebuild(store: &SketchStore, cfg: &BandConfig) -> Result<(bool, String)> {
    let live = store.live_index()?.expect("live index enabled");
    let rebuilt = store.band_index(cfg)?;
    let same_ids = live.len() == rebuilt.len() && live.ids().eq(rebuilt.ids());
    let same_sigs = same_ids
        && live
            .ids()
            .all(|id| live.signature(id) == rebuilt.signature(id));
    let same_pairs = live.candidate_pairs() == rebuilt.candidate_pairs();
    Ok((
        same_ids && same_sigs && same_pairs,
        format!("{} resident ids", live.len()),
    ))
}

/// The largest bucket of the merged live index.
fn bucket_max(index: &BandIndex) -> u64 {
    let mut max = 0;
    for id in index.ids() {
        for &entry in index.signature(id).unwrap_or(&[]) {
            max = max.max(index.candidates_of_signature(&[entry]).len() as u64);
        }
    }
    max
}

pub fn run(args: &Args) -> Result<Report> {
    let geometry = Geometry {
        shards: SHARDS,
        engine_threads: 1,
        worker_processes: 0,
        k: K,
    };
    let mut report = Report::new("live", args.seed, args.trace, geometry);
    if args.trace {
        traced(args, &mut report)?;
    } else {
        untraced(args, &mut report)?;
    }
    Ok(report)
}

fn untraced(args: &Args, report: &mut Report) -> Result<()> {
    let sc = scale(args.toy);
    let (_, band_salt) = salts(args.seed);
    let cfg = BandConfig::new(BANDS, ROWS, band_salt);

    let mut setup_s = Vec::new();
    let mut current = None;
    for _ in 0..sc.setups {
        drop(current.take());
        let start = Instant::now();
        current = Some(setup(args.seed, sc)?);
        setup_s.push(secs(start));
    }
    let s = current.expect("at least one setup");

    let mut gen = Gen::new(args.seed, sc.preload);
    let mut t = Tally::new();
    let start = Instant::now();
    while secs(start) < args.seconds {
        let round_start = Instant::now();
        for op in gen.round() {
            exec(&s.store, &s.pool, &op, &mut t);
        }
        t.round_s.push(secs(round_start));
    }
    let rss = crate::report::peak_rss_mb(&[]);

    let (ok, detail) = live_equals_rebuild(&s.store, &cfg)?;
    report.check("live_index_equals_rebuild", ok, detail);
    // A panel of probes performed as their parts must match.
    let mut panel = Rng::new(args.seed, 0x9a9e1);
    let mut agree = 0;
    for _ in 0..PANEL {
        let id = gen.residents[panel.below(gen.residents.len() as u64) as usize];
        let parts = decomposed_probe(&s.backends, id)?;
        agree += usize::from(parts == s.store.live_candidates_of(id)?);
    }
    report.check(
        "probe_equals_its_parts",
        agree == PANEL,
        format!("{agree}/{PANEL} panel probes bit-identical"),
    );

    report.attempted = t.attempted;
    report.failed = t.failed;
    report.check(
        "probe_samples",
        t.probe_us.seen() >= OP_WINDOW as u64 || args.toy,
        format!("{} probe latencies", t.probe_us.seen()),
    );
    let (p50, tail) = t.probe_us.p50_tail();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("ingest_items_per_s", t.ingest.rate(), "1/s");
    report.metric("op_p50_us", p50, "us");
    report.metric("op_tail_us", tail, "us");
    report.metric("round_s", t.round_s.p50_tail().0, "s");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

/// `live_candidates_of` performed as its parts: route with
/// `splitmix64`, the owner's `live_signature`, then `live_candidates` on
/// every shard, unioned.
fn decomposed_probe(backends: &[Arc<dyn ShardBackend>], id: u64) -> Result<Vec<u64>> {
    let owner = (splitmix64(id) % backends.len() as u64) as usize;
    let sig = backends[owner]
        .live_signature(id)?
        .ok_or(monotone_core::Error::UnknownInstance { id })?;
    let mut out = Vec::new();
    for backend in backends {
        out.extend(backend.live_candidates(&sig)?);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// A traced store over `s`'s freshly preloaded shards, with shadows
/// brought to the same state.
fn traced_store<'a>(tr: &'a Tracer, s: &'a Setup, seed: u64) -> TracedStore<'a> {
    let (salt, band_salt) = salts(seed);
    let cfg = BandConfig::new(BANDS, ROWS, band_salt);
    let mut shadows: Vec<Shadow> = (0..SHARDS)
        .map(|_| Shadow::new(K, salt, Some(cfg)))
        .collect();
    let mut r = Replayed::default();
    let mut c = ShadowCounts::default();
    for (id, inst) in s.pool.iter().enumerate() {
        let shard = (splitmix64(id as u64) % SHARDS as u64) as usize;
        shadows[shard].ingest_all(id as u64, &items_of(inst), &mut r, &mut c);
    }
    TracedStore {
        tr,
        salt,
        backends: s.backends.clone(),
        remote: false,
        shadows,
        mirrors: Vec::new(),
        composite: &s.store,
        counts: Counts::default(),
        mismatches: 0,
    }
}

fn traced(args: &Args, report: &mut Report) -> Result<()> {
    let sc = scale(args.toy);

    let base = setup(args.seed, sc)?;
    let mut gen = Gen::new(args.seed, sc.preload);
    let mut t = Tally::new();
    let start = Instant::now();
    for _ in 0..sc.traced_rounds {
        for op in gen.round() {
            exec(&base.store, &base.pool, &op, &mut t);
        }
    }
    let untraced_wall = secs(start);
    drop(base);

    let s = setup(args.seed, sc)?;
    let tr = Tracer::new();
    let mut ts = traced_store(&tr, &s, args.seed);
    let mut gen = Gen::new(args.seed, sc.preload);
    let mut digest = Digest::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_id = 0u32;
    let start = Instant::now();
    for _ in 0..sc.traced_rounds {
        for op in tr.input(|| gen.round()) {
            op_id += 1;
            attempted += 1;
            match op {
                Op::Reingest { id, first_key } => {
                    let items = tr.input(|| reingest_items(first_key));
                    failed += u64::from(ts.ingest(op_id, id, &items, false).is_err());
                }
                Op::Fresh { id, src } => {
                    let items = tr.input(|| items_of(&s.pool[src]));
                    failed += u64::from(ts.ingest(op_id, id, &items, false).is_err());
                }
                Op::Evict { id } => match ts.evict(op_id, id) {
                    Ok(had) => digest.add(u64::from(had)),
                    Err(_) => failed += 1,
                },
                Op::Probe { id } => match ts.probe(op_id, id) {
                    Ok(found) => tr.check(|| {
                        digest.add(found.len() as u64);
                        for c in found {
                            digest.add(c);
                        }
                    }),
                    Err(_) => failed += 1,
                },
            }
        }
    }
    let traced_wall = secs(start);
    let uncovered = tr.uncovered_secs();
    let checks = tr.check_secs();

    let (_, band_salt) = salts(args.seed);
    let cfg = BandConfig::new(BANDS, ROWS, band_salt);
    let (ok, detail) = tr.check(|| live_equals_rebuild(&s.store, &cfg))?;
    report.check("live_index_equals_rebuild", ok, detail);
    let shadow_ok = tr.check(|| -> Result<bool> {
        let mut ok = true;
        for (backend, shadow) in s.backends.iter().zip(&ts.shadows) {
            let live = backend.live_partial()?;
            let mine = shadow.live().expect("shadow live index");
            ok &= live.len() == mine.len()
                && live
                    .ids()
                    .all(|id| live.signature(id) == mine.signature(id));
        }
        Ok(ok)
    })?;
    report.check(
        "shards_equal_their_replay",
        shadow_ok && ts.mismatches == 0,
        format!("{} replay or decomposition mismatches", ts.mismatches),
    );
    report.check(
        "traced_answers_equal_untraced",
        digest == t.digest && t.failed == 0,
        format!("digest over {attempted} ops"),
    );

    ts.counts.resident_skew = layers::skew(&s.backends)?;
    ts.counts.bucket_max = bucket_max(&s.store.live_index()?.expect("live index enabled"));
    ts.counts.ops = attempted;
    report.attempted = attempted;
    report.failed = failed;
    let counts = ts.counts.clone();
    drop(ts);
    let covered_wall = traced_wall - uncovered;
    layers::emit(
        report,
        &tr,
        &counts,
        &s.times,
        covered_wall,
        traced_wall - checks,
        untraced_wall,
    );
    crate::write_spans(&tr, report.workload)?;
    Ok(())
}
