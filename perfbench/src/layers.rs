//! The per-layer metrics of a traced run. Every workload emits every
//! metric; a layer a workload does not exercise reads 0.

use std::sync::Arc;

use monotone_core::Result;
use monotone_store::ShardBackend;

use crate::report::{ratio, Report};
use crate::shadow::ShadowCounts;
use crate::trace::{Layer, Tracer};

/// Exact work counts gathered during a traced run. Each repeats exactly
/// for a given seed.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub ops: u64,
    pub seed_keys: u64,
    pub inserts: u64,
    pub changes: u64,
    pub wire_bytes: u64,
    pub union_items: u64,
    pub query_sampled: u64,
    pub verify_pairs: u64,
    pub verify_accepted: u64,
    pub fetch_sketches: u64,
    pub mirror_calls: u64,
    pub remote_failed: u64,
    pub hash_instances: u64,
    pub register_entries: u64,
    pub extract_pairs: u64,
    pub live_updates: u64,
    pub probe_calls: u64,
    pub probe_candidates: u64,
    pub bucket_max: u64,
    pub resident_skew: f64,
}

impl Counts {
    pub fn add_shadow(&mut self, c: ShadowCounts) {
        self.seed_keys += c.seed_keys;
        self.inserts += c.inserts;
        self.changes += c.changes;
        self.live_updates += c.live_updates;
        self.probe_candidates += c.probe_candidates;
    }
}

/// Seconds spent in each part of set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub pool_s: f64,
    pub spawn_s: f64,
    pub preload_s: f64,
}

/// Max ÷ mean of per-shard resident counts (1 = perfectly even).
pub fn skew(backends: &[Arc<dyn ShardBackend>]) -> Result<f64> {
    let mut lens = Vec::with_capacity(backends.len());
    for b in backends {
        lens.push(b.len()? as f64);
    }
    let mean = lens.iter().sum::<f64>() / lens.len().max(1) as f64;
    Ok(ratio(lens.iter().copied().fold(0.0, f64::max), mean))
}

/// Emits every per-layer metric. `covered_wall` is the traced measured
/// phase minus its replays, checks and input generation; `traced_wall`
/// (checks excluded) and `untraced_wall` time the same fixed op stream
/// with and without tracing.
pub fn emit(
    report: &mut Report,
    tr: &Tracer,
    c: &Counts,
    setup: &SetupTimes,
    covered_wall: f64,
    traced_wall: f64,
    untraced_wall: f64,
) {
    let a = tr.attribute();
    let busy = |l: Layer| a.self_of(l);
    let count = |v: u64| v as f64;
    let mut m = |name: &str, value: f64, unit: &'static str| report.metric(name, value, unit);

    m("coord.seed.keys", count(c.seed_keys), "count");
    m("coord.seed.busy_s", busy(Layer::CoordSeed), "s");
    m("coord.bottomk.inserts", count(c.inserts), "count");
    m("coord.bottomk.changes", count(c.changes), "count");
    m(
        "coord.bottomk.change_ratio",
        ratio(c.changes as f64, c.inserts as f64),
        "1",
    );
    m("coord.bottomk.busy_s", busy(Layer::CoordBottomK), "s");
    m("coord.bottomk.snapshot_s", busy(Layer::CoordSnapshot), "s");
    m("coord.wire.bytes", count(c.wire_bytes), "B");
    m("coord.wire.encode_s", busy(Layer::CoordWireEncode), "s");
    m("coord.wire.decode_s", busy(Layer::CoordWireDecode), "s");
    m("coord.source.union_items", count(c.union_items), "count");
    m("coord.source.busy_s", busy(Layer::CoordSource), "s");
    m(
        "engine.query.calls",
        count(a.spans_of(Layer::EngineQuery)),
        "count",
    );
    m("engine.query.busy_s", busy(Layer::EngineQuery), "s");
    m(
        "engine.query.sampled_items",
        count(c.query_sampled),
        "count",
    );
    m("engine.verify.pairs", count(c.verify_pairs), "count");
    m("engine.verify.busy_s", busy(Layer::EngineVerify), "s");
    m(
        "engine.verify.accept_ratio",
        ratio(c.verify_accepted as f64, c.verify_pairs as f64),
        "1",
    );
    m(
        "store.ingest.calls",
        count(a.spans_of(Layer::StoreIngest)),
        "count",
    );
    m("store.ingest.busy_s", busy(Layer::StoreIngest), "s");
    m(
        "store.evict.calls",
        count(a.spans_of(Layer::StoreEvict)),
        "count",
    );
    m("store.evict.busy_s", busy(Layer::StoreEvict), "s");
    m(
        "store.query.calls",
        count(a.spans_of(Layer::StoreQuery)),
        "count",
    );
    m("store.query.busy_s", busy(Layer::StoreQuery), "s");
    m("store.fetch.sketches", count(c.fetch_sketches), "count");
    m("store.fetch.busy_s", busy(Layer::StoreFetch), "s");
    m(
        "store.live.calls",
        count(a.spans_of(Layer::StoreLive)),
        "count",
    );
    m("store.live.busy_s", busy(Layer::StoreLive), "s");
    m("store.build.busy_s", busy(Layer::StoreBuild), "s");
    m(
        "store.shard.calls",
        count(a.spans_of(Layer::StoreShard) + c.mirror_calls),
        "count",
    );
    m("store.shard.busy_s", busy(Layer::StoreShard), "s");
    m("store.shard.resident_skew", c.resident_skew, "1");
    let trips = a.spans_of(Layer::StoreRemote);
    m("store.remote.round_trips", count(trips), "count");
    m(
        "store.remote.round_trips_per_op",
        ratio(trips as f64, c.ops as f64),
        "1",
    );
    m("store.remote.busy_s", a.span_of(Layer::StoreRemote), "s");
    m("store.remote.transport_s", busy(Layer::StoreRemote), "s");
    m("store.remote.failed", count(c.remote_failed), "count");
    m(
        "store.banding.hash.instances",
        count(c.hash_instances),
        "count",
    );
    m("store.banding.hash.busy_s", busy(Layer::BandHash), "s");
    m(
        "store.banding.register.entries",
        count(c.register_entries),
        "count",
    );
    m(
        "store.banding.register.busy_s",
        busy(Layer::BandRegister),
        "s",
    );
    m(
        "store.banding.snapshot.busy_s",
        busy(Layer::BandSnapshot),
        "s",
    );
    m("store.banding.merge.busy_s", busy(Layer::BandMerge), "s");
    m(
        "store.banding.extract.pairs",
        count(c.extract_pairs),
        "count",
    );
    m(
        "store.banding.extract.busy_s",
        busy(Layer::BandExtract),
        "s",
    );
    m("store.banding.live.updates", count(c.live_updates), "count");
    m("store.banding.live.busy_s", busy(Layer::BandLive), "s");
    m("store.banding.probe.calls", count(c.probe_calls), "count");
    m(
        "store.banding.probe.candidates",
        count(c.probe_candidates),
        "count",
    );
    m("store.banding.probe.busy_s", busy(Layer::BandProbe), "s");
    m("store.banding.bucket_max", count(c.bucket_max), "count");
    m("join.driver.busy_s", busy(Layer::JoinDriver), "s");
    m("setup.pool_s", setup.pool_s, "s");
    m("setup.spawn_s", setup.spawn_s, "s");
    m("setup.preload_s", setup.preload_s, "s");
    m("trace.coverage", ratio(a.total_self(), covered_wall), "1");
    m("trace.overhead", ratio(traced_wall, untraced_wall), "1");
    m(
        "trace.spans",
        count(Layer::ALL.iter().map(|&l| a.spans_of(l)).sum()),
        "count",
    );
    let coverage = ratio(a.total_self(), covered_wall);
    report.check(
        "trace_coverage",
        coverage >= 0.9,
        format!(
            "layer self times cover {:.3} of the measured wall",
            coverage
        ),
    );
}
