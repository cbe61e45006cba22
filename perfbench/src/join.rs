//! The `join` workload: the all-pairs similarity join over a resident
//! store of 10⁶ planted-pair instances. The measured phase builds the
//! band index with `band_index_with`, streams `for_each_candidate_block`
//! and verifies every block with the engine's distinct-count kernel.

use std::sync::Arc;
use std::time::Instant;

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::instance::Instance;
use monotone_coord::seed::splitmix64;
use monotone_core::Result;
use monotone_engine::{chunk_bounds, workload, BatchResult, Engine, EngineQuery, PairJob};
use monotone_store::banding::{band_hashes_into, BandConfig, BandIndex};
use monotone_store::{ShardBackend, SketchStore};

use crate::layers::{self, Counts, SetupTimes};
use crate::report::{
    self, median, ratio, secs, Digest, Geometry, RateWindows, Report, Windows, INGEST_WINDOW,
    OP_WINDOW,
};
use crate::trace::{timed, Ctx, Layer, Tracer};
use crate::traced::local_backends;
use crate::Args;

const K: usize = 32;
const SHARDS: usize = 16;
const ITEMS: u64 = 48;
const PERIOD: u64 = 10;
const BANDS: usize = 16;
const ROWS: usize = 2;
/// Similarity threshold and verification scale (E18's).
const SIM_J: f64 = 0.5;
const VERIFY_SCALE: f64 = 0.25;
/// Candidate pairs per streamed block; one block is one verified op.
const BLOCK: usize = 512;
/// The tail quantile of per-block latency: a join yields about 1 400
/// blocks, whose p99 (14 samples beyond it) moves with every hiccup of a
/// shared host; the p90 has 140 beyond it.
const BLOCK_TAIL: f64 = 0.90;
/// Joins per untraced run, at least: a 10⁶ join outlasts `--seconds`, and
/// one sample of it is too few.
const MIN_JOINS: usize = 2;
/// Recall is measured against the exact join of the first `SLICE` ids.
const SLICE: u64 = 256;

#[derive(Debug, Clone, Copy)]
struct Scale {
    n: u64,
    setups: usize,
}

fn scale(toy: bool) -> Scale {
    if toy {
        Scale {
            n: 5_000,
            setups: 2,
        }
    } else {
        Scale {
            n: 1_000_000,
            setups: 2,
        }
    }
}

fn salts(seed: u64) -> (u64, u64) {
    (
        splitmix64(seed ^ 0x1018_0001),
        splitmix64(seed ^ 0x1018_0002),
    )
}

struct Setup {
    pool: Vec<Instance>,
    store: SketchStore,
    backends: Vec<Arc<dyn ShardBackend>>,
    times: SetupTimes,
}

fn setup(seed: u64, sc: Scale, ingest: &mut RateWindows) -> Result<Setup> {
    let (salt, _) = salts(seed);
    let mut times = SetupTimes::default();
    let pool_start = Instant::now();
    let pool = workload::planted_pair_pool(sc.n, ITEMS, PERIOD);
    times.pool_s = secs(pool_start);
    let preload_start = Instant::now();
    let backends = local_backends(K, salt, SHARDS);
    let store = SketchStore::with_backends(K, salt, backends.clone());
    let mut items: Vec<(u64, f64)> = Vec::with_capacity(ITEMS as usize);
    for (id, inst) in pool.iter().enumerate() {
        items.clear();
        items.extend(inst.iter());
        let (r, ns) = timed(|| store.ingest_all(id as u64, items.iter().copied()));
        r?;
        ingest.push(items.len() as u64, ns);
    }
    times.preload_s = secs(preload_start);
    Ok(Setup {
        pool,
        store,
        backends,
        times,
    })
}

/// What one join produced.
#[derive(Debug, Default)]
struct Joined {
    wall_s: f64,
    block_us: Vec<f64>,
    blocks: u64,
    candidates: u64,
    accepted: u64,
    agree: u64,
    slice_pairs: Vec<(u64, u64)>,
    digest: Digest,
}

/// Verifies one block of candidate pairs through `Engine::run`.
fn verify_block(
    pool: &[Instance],
    salt: u64,
    block: &[(u64, u64)],
    out: &mut Joined,
    run: impl FnOnce(&[PairJob<'_>]) -> Result<BatchResult>,
) -> Result<()> {
    let jobs: Vec<PairJob<'_>> = block
        .iter()
        .map(|&(a, b)| PairJob::new(&pool[a as usize], &pool[b as usize], salt))
        .collect();
    let batch = run(&jobs)?;
    let jaccard = |union: f64| (2.0 * ITEMS as f64 - union) / union;
    for (&(a, b), pair) in block.iter().zip(&batch.pairs) {
        let est = jaccard(pair.estimates[0]) >= SIM_J;
        let exact = jaccard(pair.truth) >= SIM_J;
        out.accepted += u64::from(est);
        out.agree += u64::from(est == exact);
        out.digest.add(a);
        out.digest.add(b);
        out.digest.add_f64(pair.estimates[0]);
        if b < SLICE {
            out.slice_pairs.push((a, b));
        }
    }
    out.candidates += block.len() as u64;
    out.blocks += 1;
    Ok(())
}

/// One join through the composite calls.
fn join_once(s: &Setup, seed: u64, engine: &Engine) -> Result<Joined> {
    let (salt, band_salt) = salts(seed);
    let cfg = BandConfig::new(BANDS, ROWS, band_salt);
    let query = EngineQuery::distinct(VERIFY_SCALE);
    let mut out = Joined::default();
    let mut err = None;
    let start = Instant::now();
    let index = s.store.band_index_with(&cfg, engine)?;
    let mut last = Instant::now();
    index.for_each_candidate_block(BLOCK, |block| {
        if err.is_some() {
            return;
        }
        if let Err(e) = verify_block(&s.pool, salt, block, &mut out, |jobs| {
            engine.run(jobs, &query)
        }) {
            err = Some(e);
        }
        out.block_us.push(last.elapsed().as_secs_f64() * 1e6);
        last = Instant::now();
    });
    out.wall_s = secs(start);
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Every pair of the first `SLICE` instances whose exact support Jaccard
/// clears the threshold.
fn exact_slice_join(pool: &[Instance]) -> Vec<(u64, u64)> {
    let slice = pool.len().min(SLICE as usize);
    let keys: Vec<Vec<u64>> = pool[..slice].iter().map(|i| i.keys().collect()).collect();
    let mut out = Vec::new();
    for a in 0..slice {
        for b in a + 1..slice {
            let shared = keys[a]
                .iter()
                .filter(|k| keys[b].binary_search(k).is_ok())
                .count();
            let union = keys[a].len() + keys[b].len() - shared;
            if shared as f64 / union as f64 >= SIM_J {
                out.push((a as u64, b as u64));
            }
        }
    }
    out
}

/// E18's checks: slice recall ≥ 0.9 and verifier agreement ≥ 0.98.
fn check_join(report: &mut Report, pool: &[Instance], j: &Joined) {
    let similar = exact_slice_join(pool);
    let found = similar
        .iter()
        .filter(|p| j.slice_pairs.binary_search(p).is_ok())
        .count();
    let recall = ratio(found as f64, similar.len() as f64);
    report.check(
        "slice_recall",
        recall >= 0.9,
        format!("{found}/{} similar slice pairs found", similar.len()),
    );
    let agreement = ratio(j.agree as f64, j.candidates as f64);
    report.check(
        "verifier_agreement",
        agreement >= 0.98,
        format!("{agreement:.4} over {} candidates", j.candidates),
    );
}

pub fn run(args: &Args) -> Result<Report> {
    let engine = Engine::with_threads(report::nproc());
    let geometry = Geometry {
        shards: SHARDS,
        engine_threads: engine.threads(),
        worker_processes: 0,
        k: K,
    };
    let mut report = Report::new("join", args.seed, args.trace, geometry);
    if args.trace {
        traced(args, &engine, &mut report)?;
    } else {
        untraced(args, &engine, &mut report)?;
    }
    Ok(report)
}

fn untraced(args: &Args, engine: &Engine, report: &mut Report) -> Result<()> {
    let sc = scale(args.toy);
    let mut setup_s = Vec::new();
    let mut ingest = RateWindows::new(INGEST_WINDOW);
    let mut current = None;
    for _ in 0..sc.setups {
        drop(current.take());
        let start = Instant::now();
        current = Some(setup(args.seed, sc, &mut ingest)?);
        setup_s.push(secs(start));
    }
    let s = current.expect("at least one setup");

    // At least `MIN_JOINS` joins, and more while `--seconds` lasts. Peak
    // memory is read after the first, so it does not depend on how many
    // joins a run fits.
    let mut joins: Vec<Joined> = Vec::new();
    let mut rss = 0.0;
    let start = Instant::now();
    while joins.len() < MIN_JOINS || secs(start) < args.seconds {
        joins.push(join_once(&s, args.seed, engine)?);
        if joins.len() == 1 {
            rss = report::peak_rss_mb(&[]);
        }
    }
    check_join(report, &s.pool, &joins[0]);
    report.check(
        "joins_repeat",
        joins.iter().all(|j| j.digest == joins[0].digest),
        format!("{} joins", joins.len()),
    );

    report.attempted = joins.iter().map(|j| j.blocks).sum();
    report.failed = 0;
    let mut lat = Windows::new(OP_WINDOW, BLOCK_TAIL);
    for &us in joins.iter().flat_map(|j| &j.block_us) {
        lat.push(us);
    }
    let (p50, tail) = lat.p50_tail();
    let walls: Vec<f64> = joins.iter().map(|j| j.wall_s).collect();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("ingest_items_per_s", ingest.rate(), "1/s");
    report.metric("op_p50_us", p50, "us");
    report.metric("op_tail_us", tail, "us");
    report.metric("round_s", median(&walls), "s");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

fn traced(args: &Args, engine: &Engine, report: &mut Report) -> Result<()> {
    let sc = scale(args.toy);
    let s = setup(args.seed, sc, &mut RateWindows::new(INGEST_WINDOW))?;
    let (salt, band_salt) = salts(args.seed);
    let cfg = BandConfig::new(BANDS, ROWS, band_salt);
    let query = EngineQuery::distinct(VERIFY_SCALE);

    let untraced = join_once(&s, args.seed, engine)?;
    let untraced_wall = untraced.wall_s;

    let tr = Tracer::new();
    let backends = &s.backends;
    let mut joined = Joined::default();
    let start = Instant::now();
    // `band_index_with` as its parts: per-shard `band_partial` fanned
    // over the engine's workers, then `BandIndex::merged`.
    let (index, shard_spans) = tr.root(Layer::StoreBuild, 0, |ctx| -> Result<_> {
        let bounds = chunk_bounds(backends.len(), engine.threads());
        let parts = engine.map_chunked(&bounds, |chunk, &(lo, hi)| {
            (lo..hi)
                .map(|b| {
                    tr.child_on(ctx, 1 + chunk as u16, Layer::StoreShard, |sctx| {
                        backends[b].band_partial(&cfg).map(|p| (p, sctx))
                    })
                })
                .collect::<Result<Vec<_>>>()
        });
        let mut partials = Vec::with_capacity(backends.len());
        let mut spans: Vec<Ctx> = Vec::with_capacity(backends.len());
        for chunk in parts {
            for (p, sctx) in chunk? {
                partials.push(p);
                spans.push(sctx);
            }
        }
        let index = tr.child(ctx, Layer::BandMerge, |_| BandIndex::merged(cfg, partials));
        Ok((index, spans))
    })?;
    let mut err = None;
    tr.root(Layer::BandExtract, 1, |ctx| {
        index.for_each_candidate_block(BLOCK, |block| {
            if err.is_some() {
                return;
            }
            tr.child(ctx, Layer::JoinDriver, |dctx| {
                let r = verify_block(&s.pool, salt, block, &mut joined, |jobs| {
                    tr.child(dctx, Layer::EngineVerify, |_| engine.run(jobs, &query))
                });
                if let Err(e) = r {
                    err = Some(e);
                }
            });
        });
    });
    if let Some(e) = err {
        return Err(e);
    }
    let traced_wall = secs(start);

    // Replay each shard's partial build as its parts — snapshot the
    // shard's sketches, hash each into band signatures, register each —
    // and carve the times out of that shard's `band_partial` span. The
    // replayed partial must agree with the merged index.
    let mut counts = Counts::default();
    let mut replay_ok = true;
    for (shard, sctx) in shard_spans.iter().enumerate() {
        let ids: Vec<u64> = (0..sc.n)
            .filter(|&id| (splitmix64(id) % SHARDS as u64) as usize == shard)
            .collect();
        let (part, snap_ns, hash_ns, insert_ns, entries) = tr.replay(|| -> Result<_> {
            let (sketches, snap_ns) = timed(|| backends[shard].sketches(&ids));
            let sketches: Vec<BottomKSample> = sketches?.into_iter().flatten().collect();
            let (mut slots, mut bands) = (Vec::new(), Vec::new());
            let ((), hash_ns) = timed(|| {
                for sk in &sketches {
                    band_hashes_into(sk, &cfg, &mut slots, &mut bands);
                    std::hint::black_box(&bands);
                }
            });
            let mut part = BandIndex::new(cfg);
            let ((), insert_ns) = timed(|| {
                for (&id, sk) in ids.iter().zip(&sketches) {
                    part.insert(id, sk);
                }
            });
            let entries: u64 = ids
                .iter()
                .map(|&id| part.signature(id).map_or(0, |s| s.len() as u64))
                .sum();
            Ok((part, snap_ns, hash_ns, insert_ns, entries))
        })?;
        replay_ok &= tr.check(|| {
            part.len() == ids.len()
                && ids
                    .iter()
                    .all(|&id| part.signature(id) == index.signature(id))
        });
        tr.carve(*sctx, Layer::BandSnapshot, snap_ns);
        tr.carve(*sctx, Layer::BandHash, hash_ns);
        tr.carve(
            *sctx,
            Layer::BandRegister,
            insert_ns.saturating_sub(hash_ns),
        );
        counts.hash_instances += ids.len() as u64;
        counts.register_entries += entries;
    }
    drop(index);

    tr.check(|| check_join(report, &s.pool, &joined));
    report.check(
        "shards_equal_their_replay",
        replay_ok,
        format!("{} shard partials replayed", shard_spans.len()),
    );
    report.check(
        "traced_answers_equal_untraced",
        joined.digest == untraced.digest,
        format!("digest over {} candidate pairs", joined.candidates),
    );

    counts.resident_skew = layers::skew(&s.backends)?;
    counts.extract_pairs = joined.candidates;
    counts.verify_pairs = joined.candidates;
    counts.verify_accepted = joined.accepted;
    counts.ops = 2;
    report.attempted = joined.blocks;
    report.failed = 0;
    let covered_wall = traced_wall;
    layers::emit(
        report,
        &tr,
        &counts,
        &s.times,
        covered_wall,
        traced_wall,
        untraced_wall,
    );
    crate::write_spans(&tr, report.workload)?;
    Ok(())
}
