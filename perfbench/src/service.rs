//! The `service` and `service_remote` workloads: one client thread
//! drives a resident sketch store with a closed-loop stream of fresh
//! ingests, re-feeds, single-item trickles and 2-group distinct-count
//! queries. `service` routes over 16 in-process `LocalShard`s;
//! `service_remote` runs the same op stream and seed over `nproc`
//! `shard_worker` processes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::seed::splitmix64;
use monotone_coord::source::SketchUnion;
use monotone_core::{Error, Result};
use monotone_engine::{Engine, EngineQuery, SourceJob};
use monotone_store::{GroupEstimate, LocalShard, ProcessShard, ShardBackend, SketchStore};

use crate::layers::{self, Counts, SetupTimes};
use crate::report::{
    self, median, secs, Digest, Geometry, RateWindows, Report, Rng, Windows, INGEST_WINDOW,
    OP_TAIL, OP_WINDOW, ROUND_WINDOW,
};
use crate::shadow::{Replayed, Shadow, ShadowCounts};
use crate::trace::{timed, Tracer};
use crate::traced::{local_backends, TracedStore};
use crate::{worker_binary, Args};

/// Retained entries per sketch.
const K: usize = 32;
/// In-process shards of `service` (what `SketchStore::new` builds).
const LOCAL_SHARDS: usize = 16;
/// Items per preloaded instance and the key stride between
/// consecutive instances' windows (E17's shape).
const ITEMS: u64 = 80;
const STRIDE: u64 = 14;
/// Per round: fresh instances, re-feeds (of `REFEED_ITEMS` new keys),
/// single-item trickles and queries.
const FRESH: usize = 8;
const REFEEDS: usize = 16;
const REFEED_ITEMS: u64 = 16;
const TRICKLES: usize = 36;
const QUERIES: usize = 40;
/// Fresh instance ids cycle through this many slots; a slot's previous
/// occupant is evicted first, so the resident set stays bounded however
/// long a run lasts.
const FRESH_SLOTS: u64 = 800;
const FRESH_ID_BASE: u64 = 1 << 32;
/// Re-fed and trickled keys are globally unique, far above every window.
const UNIQUE_KEY_BASE: u64 = 1 << 44;
/// Weight of re-fed and trickled items: low, so the warm stream mostly
/// rejects them.
const LIGHT: f64 = 0.25;
/// Partner distances of the 2-group queries.
const DISTANCES: [u64; 4] = [1, 2, 3, 5];
/// Queries checked against their decomposition in an untraced run.
const PANEL: usize = 256;

/// Sizes that differ between a full run and the smoke test's toy run.
#[derive(Debug, Clone, Copy)]
struct Scale {
    preload: u64,
    setups: usize,
    traced_rounds: u64,
}

/// Set-ups per untraced run (their median is `setup_s`): fewer for the
/// remote store, whose preload crosses a pipe 10⁵ times.
fn scale(toy: bool, remote: bool) -> Scale {
    if toy {
        Scale {
            preload: 2_000,
            setups: 2,
            traced_rounds: 20,
        }
    } else {
        Scale {
            preload: 100_000,
            setups: if remote { 3 } else { 5 },
            traced_rounds: 400,
        }
    }
}

fn weight(key: u64) -> f64 {
    1.0 + (key % 3) as f64
}

fn window(base: u64) -> Vec<(u64, f64)> {
    (base..base + ITEMS).map(|key| (key, weight(key))).collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Evict the slot's previous occupant (when it has one), then ingest
    /// a fresh instance over the window starting at `base`.
    Fresh {
        id: u64,
        base: u64,
        recycle: bool,
    },
    Refeed {
        id: u64,
        first_key: u64,
    },
    Trickle {
        id: u64,
        key: u64,
    },
    Query {
        a: u64,
        d: u64,
    },
}

/// The seeded op stream, one round at a time.
#[derive(Debug, Clone)]
struct Gen {
    rng: Rng,
    preload: u64,
    round: u64,
    next_key: u64,
}

impl Gen {
    fn new(seed: u64, preload: u64) -> Gen {
        Gen {
            rng: Rng::new(seed, 0x5e21),
            preload,
            round: 0,
            next_key: UNIQUE_KEY_BASE,
        }
    }

    fn resident(&mut self) -> u64 {
        self.rng.below(self.preload)
    }

    fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(FRESH + REFEEDS + TRICKLES + QUERIES);
        for j in 0..FRESH as u64 {
            let n = self.round * FRESH as u64 + j;
            ops.push(Op::Fresh {
                id: FRESH_ID_BASE + n % FRESH_SLOTS,
                base: self.resident() * STRIDE,
                recycle: n >= FRESH_SLOTS,
            });
        }
        for _ in 0..REFEEDS {
            let id = self.resident();
            ops.push(Op::Refeed {
                id,
                first_key: self.next_key,
            });
            self.next_key += REFEED_ITEMS;
        }
        for _ in 0..TRICKLES {
            let id = self.resident();
            ops.push(Op::Trickle {
                id,
                key: self.next_key,
            });
            self.next_key += 1;
        }
        let max_d = DISTANCES[DISTANCES.len() - 1];
        for _ in 0..QUERIES {
            let d = DISTANCES[self.rng.below(DISTANCES.len() as u64) as usize];
            let a = self.rng.below(self.preload - max_d);
            ops.push(Op::Query { a, d });
        }
        self.rng.shuffle(&mut ops);
        self.round += 1;
        ops
    }
}

fn refeed_items(first_key: u64) -> Vec<(u64, f64)> {
    (first_key..first_key + REFEED_ITEMS)
        .map(|key| (key, LIGHT))
        .collect()
}

fn digest_estimate(digest: &mut Digest, est: &GroupEstimate) {
    for &e in &est.estimates {
        digest.add_f64(e);
    }
    digest.add_f64(est.retained_truth);
    digest.add(est.sampled_items as u64);
}

/// What the measured phase of an untraced run accumulates.
#[derive(Debug)]
struct Tally {
    attempted: u64,
    failed: u64,
    ingest: RateWindows,
    query_us: Windows,
    round_s: Windows,
    digest: Digest,
    estimates_finite: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            ingest: RateWindows::new(INGEST_WINDOW),
            query_us: Windows::new(OP_WINDOW, OP_TAIL),
            round_s: Windows::new(ROUND_WINDOW, 0.5),
            digest: Digest::default(),
            estimates_finite: true,
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

/// One op through the store's composite public calls.
fn exec(store: &SketchStore, engine: &Engine, query: &EngineQuery, op: &Op, t: &mut Tally) {
    match *op {
        Op::Fresh { id, base, recycle } => {
            if recycle {
                if let Some(had) = t.outcome(store.evict(id)) {
                    t.digest.add(u64::from(had));
                }
            }
            let items = window(base);
            let (r, ns) = timed(|| store.ingest_all(id, items.iter().copied()));
            t.ingest.push(items.len() as u64, ns);
            t.outcome(r);
        }
        Op::Refeed { id, first_key } => {
            let items = refeed_items(first_key);
            let (r, ns) = timed(|| store.ingest_all(id, items.iter().copied()));
            t.ingest.push(items.len() as u64, ns);
            t.outcome(r);
        }
        Op::Trickle { id, key } => {
            let (r, ns) = timed(|| store.ingest(id, key, LIGHT));
            t.ingest.push(1, ns);
            t.outcome(r);
        }
        Op::Query { a, d } => {
            let (r, ns) = timed(|| store.query_group(engine, query, &[a, a + d]));
            t.query_us.push(ns as f64 / 1e3);
            if let Some(est) = t.outcome(r) {
                t.estimates_finite &= est.estimates.iter().all(|e| e.is_finite());
                digest_estimate(&mut t.digest, &est);
            }
        }
    }
}

/// How the store under test is stood up.
struct Setup {
    store: SketchStore,
    /// Handles to the same backends the store routes over.
    backends: Vec<Arc<dyn ShardBackend>>,
    times: SetupTimes,
}

/// `nproc` spawned `shard_worker`s (what `SketchStore::with_process_shards`
/// spawns, with the worker binary pinned) or 16 `LocalShard`s (what
/// `SketchStore::new` builds), then the preload.
fn setup(remote: bool, salt: u64, sc: Scale) -> Result<Setup> {
    let mut times = SetupTimes::default();
    let backends = if remote {
        let spawn_start = Instant::now();
        let worker = worker_binary()?;
        let mut remotes: Vec<Arc<dyn ShardBackend>> = Vec::new();
        for ordinal in 0..report::nproc() {
            let cmd = std::process::Command::new(&worker);
            remotes.push(Arc::new(ProcessShard::spawn(cmd, ordinal, K, salt)?));
        }
        times.spawn_s = secs(spawn_start);
        remotes
    } else {
        local_backends(K, salt, LOCAL_SHARDS)
    };
    let store = SketchStore::with_backends(K, salt, backends.clone());
    let preload_start = Instant::now();
    for id in 0..sc.preload {
        store.ingest_all(id, window(id * STRIDE))?;
    }
    times.preload_s = secs(preload_start);
    Ok(Setup {
        store,
        backends,
        times,
    })
}

fn salt_of(seed: u64) -> u64 {
    splitmix64(seed ^ 0x5eed_0017)
}

fn geometry(remote: bool) -> Geometry {
    Geometry {
        shards: if remote {
            report::nproc()
        } else {
            LOCAL_SHARDS
        },
        engine_threads: 1,
        worker_processes: if remote { report::nproc() } else { 0 },
        k: K,
    }
}

/// `query_group` performed as its public parts: route each id with
/// `splitmix64`, fetch per owning shard with `ShardBackend::sketches`,
/// merge with `SketchUnion::new`, and run `Engine::run_sources`.
fn decomposed_query(
    backends: &[Arc<dyn ShardBackend>],
    engine: &Engine,
    query: &EngineQuery,
    salt: u64,
    group: &[u64],
) -> Result<GroupEstimate> {
    let mut ids = group.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); backends.len()];
    for &id in &ids {
        per_shard[(splitmix64(id) % backends.len() as u64) as usize].push(id);
    }
    let mut fetched: HashMap<u64, BottomKSample> = HashMap::new();
    for (backend, shard_ids) in backends.iter().zip(&per_shard) {
        if shard_ids.is_empty() {
            continue;
        }
        for (&id, s) in shard_ids.iter().zip(backend.sketches(shard_ids)?) {
            fetched.insert(id, s.ok_or(Error::UnknownInstance { id })?);
        }
    }
    let sketches: Vec<BottomKSample> = group.iter().map(|id| fetched[id].clone()).collect();
    let union = SketchUnion::new(&sketches);
    let scales = union
        .conditioned_scales()
        .expect("priority sketches carry conditioned scales")
        .to_vec();
    let compiled = query.clone().with_instance_scales(&scales);
    let batch = engine.run_sources(&[SourceJob::new(union, salt)], &compiled)?;
    let pair = batch.pairs.into_iter().next().expect("one job, one result");
    Ok(GroupEstimate {
        estimates: pair.estimates,
        retained_truth: pair.truth,
        sampled_items: pair.sampled_items,
    })
}

pub fn run(args: &Args, remote: bool) -> Result<Report> {
    let name = if remote { "service_remote" } else { "service" };
    let mut report = Report::new(name, args.seed, args.trace, geometry(remote));
    if remote {
        report.worker_binary = Some(worker_binary()?.display().to_string());
    }
    if args.trace {
        traced(args, remote, &mut report)?;
    } else {
        untraced(args, remote, &mut report)?;
    }
    Ok(report)
}

fn untraced(args: &Args, remote: bool, report: &mut Report) -> Result<()> {
    let sc = scale(args.toy, remote);
    let salt = salt_of(args.seed);
    let engine = Engine::with_threads(1);
    let query = EngineQuery::distinct_k(2, 1.0);

    let mut setup_s = Vec::new();
    let mut current = None;
    for _ in 0..sc.setups {
        drop(current.take());
        let start = Instant::now();
        current = Some(setup(remote, salt, sc)?);
        setup_s.push(secs(start));
    }
    let s = current.expect("at least one setup");

    let mut gen = Gen::new(args.seed, sc.preload);
    let mut t = Tally::new();
    let start = Instant::now();
    while secs(start) < args.seconds {
        let round_start = Instant::now();
        for op in gen.round() {
            exec(&s.store, &engine, &query, &op, &mut t);
        }
        t.round_s.push(secs(round_start));
    }
    let rss = report::peak_rss_mb(&report::child_pids());

    // Checks, outside the measured phase.
    report.check(
        "estimates_finite",
        t.estimates_finite,
        format!("{} queries", t.query_us.seen()),
    );
    if remote {
        // The same ops fed to an in-process reference store must give
        // bit-identical answers.
        let reference = setup(false, salt, sc)?;
        let mut regen = Gen::new(args.seed, sc.preload);
        let mut rt = Tally::new();
        for _ in 0..gen.round {
            for op in regen.round() {
                exec(&reference.store, &engine, &query, &op, &mut rt);
            }
        }
        report.check(
            "remote_matches_local",
            rt.digest == t.digest && rt.failed == 0,
            format!("digest over {} answers", t.query_us.seen()),
        );
    }
    let mut panel = Rng::new(args.seed, 0x9a9e1);
    let mut agree = 0;
    for _ in 0..PANEL {
        let a = panel.below(sc.preload - 1);
        let group = [a, a + 1];
        let whole = s.store.query_group(&engine, &query, &group)?;
        let parts = decomposed_query(&s.backends, &engine, &query, salt, &group)?;
        agree += usize::from(whole == parts);
    }
    report.check(
        "query_equals_its_parts",
        agree == PANEL,
        format!("{agree}/{PANEL} panel queries bit-identical"),
    );
    drop(s);

    report.attempted = t.attempted;
    report.failed = t.failed;
    report.check(
        "query_samples",
        t.query_us.seen() >= OP_WINDOW as u64 || args.toy,
        format!("{} query latencies", t.query_us.seen()),
    );
    let (p50, tail) = t.query_us.p50_tail();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("ingest_items_per_s", t.ingest.rate(), "1/s");
    report.metric("op_p50_us", p50, "us");
    report.metric("op_tail_us", tail, "us");
    report.metric("round_s", t.round_s.p50_tail().0, "s");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

fn traced(args: &Args, remote: bool, report: &mut Report) -> Result<()> {
    let sc = scale(args.toy, remote);
    let salt = salt_of(args.seed);
    let engine = Engine::with_threads(1);
    let query = EngineQuery::distinct_k(2, 1.0);

    // The same fixed op stream, untraced, for the overhead baseline and
    // the traced-equals-untraced check.
    let base = setup(remote, salt, sc)?;
    let mut gen = Gen::new(args.seed, sc.preload);
    let mut t = Tally::new();
    let start = Instant::now();
    for _ in 0..sc.traced_rounds {
        for op in gen.round() {
            exec(&base.store, &engine, &query, &op, &mut t);
        }
    }
    let untraced_wall = secs(start);
    drop(base);

    let s = setup(remote, salt, sc)?;
    let tr = Tracer::new();
    let shards = s.backends.len();
    let mut shadows: Vec<Shadow> = (0..shards).map(|_| Shadow::new(K, salt, None)).collect();
    let mirrors: Vec<LocalShard> = if remote {
        (0..shards).map(|_| LocalShard::new(K, salt)).collect()
    } else {
        Vec::new()
    };
    // Bring shadows and mirrors to the preloaded state (untimed).
    let mut scratch = Replayed::default();
    let mut sc_counts = ShadowCounts::default();
    for id in 0..sc.preload {
        let shard = (splitmix64(id) % shards as u64) as usize;
        let items = window(id * STRIDE);
        shadows[shard].ingest_all(id, &items, &mut scratch, &mut sc_counts);
        if remote {
            mirrors[shard].ingest_all(id, &items)?;
        }
    }
    let mut ts = TracedStore {
        tr: &tr,
        salt,
        backends: s.backends.clone(),
        remote,
        shadows,
        mirrors,
        composite: &s.store,
        counts: Counts::default(),
        mismatches: 0,
    };

    let mut gen = Gen::new(args.seed, sc.preload);
    let mut digest = Digest::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut op_id = 0u32;
    let start = Instant::now();
    for _ in 0..sc.traced_rounds {
        for op in tr.input(|| gen.round()) {
            op_id += 1;
            match op {
                Op::Fresh { id, base, recycle } => {
                    if recycle {
                        attempted += 1;
                        match ts.evict(op_id, id) {
                            Ok(had) => digest.add(u64::from(had)),
                            Err(_) => failed += 1,
                        }
                    }
                    attempted += 1;
                    let items = tr.input(|| window(base));
                    failed += u64::from(ts.ingest(op_id, id, &items, false).is_err());
                }
                Op::Refeed { id, first_key } => {
                    attempted += 1;
                    let items = tr.input(|| refeed_items(first_key));
                    failed += u64::from(ts.ingest(op_id, id, &items, false).is_err());
                }
                Op::Trickle { id, key } => {
                    attempted += 1;
                    failed += u64::from(ts.ingest(op_id, id, &[(key, LIGHT)], true).is_err());
                }
                Op::Query { a, d } => {
                    attempted += 1;
                    match ts.query(op_id, &engine, &query, &[a, a + d]) {
                        Ok(est) => tr.check(|| digest_estimate(&mut digest, &est)),
                        Err(_) => failed += 1,
                    }
                }
            }
        }
    }
    let traced_wall = secs(start);
    let uncovered = tr.uncovered_secs();
    let checks = tr.check_secs();

    // End-of-run checks: every shard's state equals its shadow's.
    let state_ok = tr.check(|| -> Result<bool> {
        let mut ok = true;
        for (backend, shadow) in ts.backends.iter().zip(&ts.shadows) {
            ok &= backend.len()? == shadow.len();
        }
        let mut r = Replayed::default();
        for id in (0..sc.preload).step_by(97) {
            let shard = ts.route(id);
            ok &= ts.backends[shard].sketches(&[id])? == ts.shadows[shard].sketches(&[id], &mut r);
        }
        Ok(ok)
    })?;
    report.check(
        "shards_equal_their_replay",
        state_ok && ts.mismatches == 0,
        format!("{} replay or decomposition mismatches", ts.mismatches),
    );
    report.check(
        "traced_answers_equal_untraced",
        digest == t.digest && t.failed == 0,
        format!("digest over {} ops", attempted),
    );

    ts.counts.resident_skew = layers::skew(&s.backends)?;
    ts.counts.ops = attempted;
    report.attempted = attempted;
    report.failed = failed;
    let covered_wall = traced_wall - uncovered;
    layers::emit(
        report,
        &tr,
        &ts.counts,
        &s.times,
        covered_wall,
        traced_wall - checks,
        untraced_wall,
    );
    crate::write_spans(&tr, report.workload)?;
    Ok(())
}
