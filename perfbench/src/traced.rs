//! The traced run's store: each composite store call performed as the
//! public calls it is made of, with a span around every call into a
//! layer and a replay of every shard call carved out of its span.

use std::collections::HashMap;
use std::sync::Arc;

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::seed::splitmix64;
use monotone_coord::source::SketchUnion;
use monotone_core::{Error, Result};
use monotone_engine::{Engine, EngineQuery, SourceJob};
use monotone_store::{GroupEstimate, LocalShard, ShardBackend, SketchStore};

use crate::layers::Counts;
use crate::shadow::{self, Codec, Replayed, Shadow, ShadowCounts};
use crate::trace::{timed, Ctx, Layer, Tracer};

/// `n` in-process shards as the store sees them.
pub fn local_backends(k: usize, salt: u64, n: usize) -> Vec<Arc<dyn ShardBackend>> {
    (0..n)
        .map(|_| Arc::new(LocalShard::new(k, salt)) as Arc<dyn ShardBackend>)
        .collect()
}

/// The traced store: the real backends plus, per shard, a shadow for the
/// inner-layer replays and (remote only) an in-process `LocalShard`
/// mirror whose replay prices the shard work inside a round trip.
pub struct TracedStore<'a> {
    pub tr: &'a Tracer,
    pub salt: u64,
    pub backends: Vec<Arc<dyn ShardBackend>>,
    pub remote: bool,
    pub shadows: Vec<Shadow>,
    /// Remote only: one in-process `LocalShard` per worker, fed the same
    /// ops.
    pub mirrors: Vec<LocalShard>,
    /// The store the composite calls go through, for bit-identity checks.
    pub composite: &'a SketchStore,
    pub counts: Counts,
    /// Replays or decompositions whose answer differed from the real one.
    pub mismatches: u64,
}

impl TracedStore<'_> {
    pub fn route(&self, id: u64) -> usize {
        (splitmix64(id) % self.backends.len() as u64) as usize
    }

    fn shard_layer(&self) -> Layer {
        if self.remote {
            Layer::StoreRemote
        } else {
            Layer::StoreShard
        }
    }

    /// Carves a replayed shard call out of its span `sctx`: the shadow's
    /// inner layers, and for a remote call the mirror's remaining shard
    /// time and the codec time (what is left is transport).
    fn carve(&mut self, sctx: Ctx, r: Replayed, mirror_ns: u64, codec: Codec) {
        let tr = self.tr;
        tr.carve(sctx, Layer::CoordSeed, r.seed_ns);
        tr.carve(sctx, Layer::CoordBottomK, r.bottomk_ns());
        tr.carve(sctx, Layer::CoordSnapshot, r.snapshot_ns);
        tr.carve(sctx, Layer::BandLive, r.live_ns);
        tr.carve(sctx, Layer::BandProbe, r.probe_ns);
        if self.remote {
            tr.carve(
                sctx,
                Layer::StoreShard,
                mirror_ns.saturating_sub(r.total_ns()),
            );
            tr.carve(sctx, Layer::CoordWireEncode, codec.encode_ns);
            tr.carve(sctx, Layer::CoordWireDecode, codec.decode_ns);
            self.counts.wire_bytes += codec.bytes;
            self.counts.mirror_calls += 1;
        }
    }

    pub fn ingest(&mut self, op: u32, id: u64, items: &[(u64, f64)], single: bool) -> Result<()> {
        let layer = self.shard_layer();
        let tr = self.tr;
        let (res, sctx, shard) = tr.root(Layer::StoreIngest, op, |ctx| {
            let shard = self.route(id);
            let backend = &self.backends[shard];
            let (res, sctx) = tr.child(ctx, layer, |sctx| {
                let r = if single {
                    backend.ingest(id, items[0].0, items[0].1)
                } else {
                    backend.ingest_all(id, items)
                };
                (r, sctx)
            });
            (res, sctx, shard)
        });
        tr.replay(|| {
            let mut r = Replayed::default();
            let mut sc = ShadowCounts::default();
            self.shadows[shard].ingest_all(id, items, &mut r, &mut sc);
            self.counts.add_shadow(sc);
            let mut mirror_ns = 0;
            let mut codec = Codec::default();
            if self.remote {
                let (_, ns) = timed(|| self.mirrors[shard].ingest_all(id, items));
                mirror_ns = ns;
                shadow::codec_ingest(&mut codec, id, items);
            }
            self.carve(sctx, r, mirror_ns, codec);
        });
        self.counts.remote_failed += u64::from(self.remote && res.is_err());
        res
    }

    pub fn evict(&mut self, op: u32, id: u64) -> Result<bool> {
        let layer = self.shard_layer();
        let tr = self.tr;
        let (res, sctx, shard) = tr.root(Layer::StoreEvict, op, |ctx| {
            let shard = self.route(id);
            let backend = &self.backends[shard];
            let (res, sctx) = tr.child(ctx, layer, |sctx| (backend.evict(id), sctx));
            (res, sctx, shard)
        });
        let had = tr.replay(|| {
            let mut r = Replayed::default();
            let mut sc = ShadowCounts::default();
            let had = self.shadows[shard].evict(id, &mut r, &mut sc);
            self.counts.add_shadow(sc);
            let mut mirror_ns = 0;
            let mut codec = Codec::default();
            if self.remote {
                let (_, ns) = timed(|| self.mirrors[shard].evict(id));
                mirror_ns = ns;
                shadow::codec_evict(&mut codec, id, had);
            }
            self.carve(sctx, r, mirror_ns, codec);
            had
        });
        self.counts.remote_failed += u64::from(self.remote && res.is_err());
        if let Ok(real) = res {
            self.mismatches += u64::from(real != had);
        }
        res
    }

    pub fn query(
        &mut self,
        op: u32,
        engine: &Engine,
        query: &EngineQuery,
        group: &[u64],
    ) -> Result<GroupEstimate> {
        let layer = self.shard_layer();
        let tr = self.tr;
        let mut fetch_spans: Vec<(usize, Vec<u64>, Ctx)> = Vec::new();
        let mut failed_remote = 0u64;
        let res = tr.root(Layer::StoreQuery, op, |ctx| -> Result<GroupEstimate> {
            let fetched = tr.child(ctx, Layer::StoreFetch, |fctx| {
                let mut ids = group.to_vec();
                ids.sort_unstable();
                ids.dedup();
                let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); self.backends.len()];
                for &id in &ids {
                    per_shard[self.route(id)].push(id);
                }
                let mut fetched: HashMap<u64, BottomKSample> = HashMap::with_capacity(ids.len());
                for (shard, shard_ids) in per_shard.into_iter().enumerate() {
                    if shard_ids.is_empty() {
                        continue;
                    }
                    let backend = &self.backends[shard];
                    let (got, sctx) =
                        tr.child(fctx, layer, |sctx| (backend.sketches(&shard_ids), sctx));
                    let got = got.inspect_err(|_| failed_remote += 1)?;
                    for (&id, s) in shard_ids.iter().zip(got) {
                        fetched.insert(id, s.ok_or(Error::UnknownInstance { id })?);
                    }
                    fetch_spans.push((shard, shard_ids, sctx));
                }
                Ok::<_, Error>(fetched)
            })?;
            let union = tr.child(ctx, Layer::CoordSource, |_| {
                let sketches: Vec<BottomKSample> =
                    group.iter().map(|id| fetched[id].clone()).collect();
                let union = SketchUnion::new(&sketches);
                let scales = union
                    .conditioned_scales()
                    .expect("priority sketches carry conditioned scales")
                    .to_vec();
                (union, scales)
            });
            let (union, scales) = union;
            let compiled = query.clone().with_instance_scales(&scales);
            let salt = self.salt;
            let batch = tr.child(ctx, Layer::EngineQuery, |_| {
                engine.run_sources(&[SourceJob::new(union, salt)], &compiled)
            })?;
            let pair = batch.pairs.into_iter().next().expect("one job, one result");
            Ok(GroupEstimate {
                estimates: pair.estimates,
                retained_truth: pair.truth,
                sampled_items: pair.sampled_items,
            })
        });
        self.counts.remote_failed += failed_remote;
        tr.replay(|| {
            for (shard, ids, sctx) in fetch_spans {
                let mut r = Replayed::default();
                let shadow_sk = self.shadows[shard].sketches(&ids, &mut r);
                let mut mirror_ns = 0;
                let mut codec = Codec::default();
                let mut same = true;
                if self.remote {
                    let (mirror_sk, ns) = timed(|| self.mirrors[shard].sketches(&ids));
                    mirror_ns = ns;
                    same &= mirror_sk.as_ref().ok() == Some(&shadow_sk);
                    same &= shadow::codec_sketches(&mut codec, &ids, &shadow_sk);
                }
                self.counts.fetch_sketches += ids.len() as u64;
                self.mismatches += u64::from(!same);
                self.carve(sctx, r, mirror_ns, codec);
            }
        });
        if let Ok(est) = &res {
            self.counts.union_items += est.retained_truth as u64;
            self.counts.query_sampled += est.sampled_items as u64;
            // The decomposed answer must equal the composite call's.
            let whole = tr.check(|| self.composite.query_group(engine, query, group));
            self.mismatches += u64::from(whole.as_ref().ok() != Some(est));
        }
        res
    }

    /// `live_candidates_of` as its parts: the owner shard's
    /// `live_signature`, then `live_candidates` on every shard, unioned.
    pub fn probe(&mut self, op: u32, id: u64) -> Result<Vec<u64>> {
        let tr = self.tr;
        let mut shard_spans: Vec<(usize, Ctx)> = Vec::with_capacity(self.backends.len() + 1);
        let mut sig_out: Option<Vec<(u32, u64)>> = None;
        let res = tr.root(Layer::StoreLive, op, |ctx| -> Result<Vec<u64>> {
            let owner = self.route(id);
            let (sig, sctx) = tr.child(ctx, Layer::StoreShard, |sctx| {
                (self.backends[owner].live_signature(id), sctx)
            });
            shard_spans.push((owner, sctx));
            let sig = sig?.ok_or(Error::UnknownInstance { id })?;
            let mut out = Vec::new();
            for (shard, backend) in self.backends.iter().enumerate() {
                let (got, sctx) = tr.child(ctx, Layer::StoreShard, |sctx| {
                    (backend.live_candidates(&sig), sctx)
                });
                shard_spans.push((shard, sctx));
                out.extend(got?);
            }
            out.sort_unstable();
            out.dedup();
            sig_out = Some(sig);
            Ok(out)
        });
        tr.replay(|| {
            for (i, (shard, sctx)) in shard_spans.into_iter().enumerate() {
                let mut r = Replayed::default();
                let mut sc = ShadowCounts::default();
                let same = if i == 0 {
                    self.shadows[shard].live_signature(id, &mut r) == sig_out
                } else {
                    let sig = sig_out.as_deref().unwrap_or(&[]);
                    self.shadows[shard].live_candidates(sig, &mut r, &mut sc);
                    true
                };
                self.counts.add_shadow(sc);
                self.mismatches += u64::from(!same);
                self.carve(sctx, r, 0, Codec::default());
            }
            self.counts.probe_calls += 1;
        });
        if let Ok(found) = &res {
            let whole = tr.check(|| self.composite.live_candidates_of(id));
            self.mismatches += u64::from(whole.as_ref().ok() != Some(found));
        }
        res
    }
}
