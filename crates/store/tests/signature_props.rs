//! Signature-first band builds agree bit for bit with the sample path.
//!
//! 1. **Stream path ≡ sample path** (pinned-seed proptest): hashing a
//!    live [`BottomKStream`](monotone_coord::bottomk::BottomKStream)'s
//!    retained entries — in heap order, threshold entry excluded — gives
//!    the per-band hashes of its sample snapshot after every
//!    observation: across rank ties, re-streamed keys, streams below
//!    `k`, at `k` and at `k + 1` entries, and rejected weights. A
//!    [`LocalShard`]'s `band_signatures` matches the same sample-path
//!    model.
//! 2. **One index, every route**: `band_index`, `merged` over every
//!    backend's `band_partial`, and `band_index_with` at 1, 2 and 4
//!    workers encode to the same bytes and yield the same candidates,
//!    over in-process and child-process shards alike.

use std::sync::Arc;

use monotone_coord::bottomk::{BottomK, BottomKSample, RankMethod};
use monotone_coord::seed::SeedHasher;
use monotone_coord::wire::Enc;
use monotone_engine::Engine;
use monotone_store::banding::{band_hashes, band_hashes_ranked_into, BandConfig, BandIndex};
use monotone_store::{LocalShard, ProcessShard, ShardBackend, SketchStore};
use proptest::prelude::*;

/// Observation weights: the first four are active, the rest rejected.
const WEIGHTS: [f64; 7] = [1.0, 2.5, 0.125, 7.0, 0.0, -1.0, f64::NAN];

/// The indexable `(band, hash)` pairs of `sketch`: the sample-path model.
fn model_signature(sketch: &BottomKSample, cfg: &BandConfig) -> Vec<(u32, u64)> {
    band_hashes(sketch, cfg)
        .into_iter()
        .enumerate()
        .filter_map(|(band, hash)| hash.map(|h| (band as u32, h)))
        .collect()
}

fn wire_bytes(index: &BandIndex) -> Vec<u8> {
    let mut enc = Enc::new();
    index.encode_into(&mut enc);
    enc.into_bytes()
}

/// Overlapping key ranges with key-pure weights, plus one instance
/// whose every observation is rejected (resident, empty signature).
fn ingest_workload(store: &SketchStore, items_per: u64) {
    for id in 0..16u64 {
        let items = (0..items_per).map(|j| {
            let key = id * 5 + j * 3;
            (key, 0.25 + (key % 11) as f64 * 0.5)
        });
        store.ingest_all(id, items).unwrap();
    }
    store.ingest(99, 1, 0.0).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0x2014_0615_000d))]

    #[test]
    fn stream_signatures_equal_sample_signatures(
        // (key kind: 0/1 tie partners, 2-3 plain; key; weight index)
        ops in proptest::collection::vec((0u8..4, 0u64..24, 0usize..7), 0..60),
        k in 1usize..10,
        salt in any::<u64>(),
        bands in 1usize..9,
        rows in 1usize..4,
        band_salt in any::<u64>(),
    ) {
        let cfg = BandConfig::new(bands, rows, band_salt);
        let seeder = SeedHasher::new(salt);
        // Partners share their top 53 hash bits, hence one seed: at equal
        // weights they tie on rank and the key breaks the tie. A plain
        // key seen twice is streamed twice.
        let key_of = |kind: u8, x: u64| match kind {
            0 => seeder.key_for_raw(x << 20),
            1 => seeder.key_for_raw((x << 20) | 1),
            _ => x,
        };
        let mut stream = BottomK::new(k, RankMethod::Priority, seeder).stream();
        let shard = LocalShard::new(k, salt);
        let (mut slots, mut hashes) = (Vec::new(), Vec::new());
        for (step, &(kind, x, w)) in ops.iter().enumerate() {
            let key = key_of(kind, x);
            stream.insert(key, WEIGHTS[w]);
            shard.ingest(x % 3, key, WEIGHTS[w]).unwrap();
            band_hashes_ranked_into(stream.retained(), &cfg, &mut slots, &mut hashes);
            prop_assert_eq!(
                &hashes,
                &band_hashes(&stream.sample(), &cfg),
                "step {} with {} resident entries", step, stream.len()
            );
        }

        let sigs = shard.band_signatures(&cfg).unwrap();
        let ids: Vec<u64> = sigs.iter().map(|&(id, _)| id).collect();
        let mut resident: Vec<u64> = ops.iter().map(|&(_, x, _)| x % 3).collect();
        resident.sort_unstable();
        resident.dedup();
        prop_assert_eq!(&ids, &resident);
        for (id, sig) in &sigs {
            let sketch = shard.sketches(&[*id]).unwrap().pop().flatten().unwrap();
            prop_assert_eq!(&sig[..], &model_signature(&sketch, &cfg)[..], "id={}", id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0x2014_0615_000e))]

    #[test]
    fn band_builds_agree_across_routes_workers_and_transports(
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        shards in 1usize..4,
        items_per in 1u64..60,
    ) {
        let k = 16;
        let cfg = BandConfig::new(12, 2, band_salt);
        let local: Vec<Arc<dyn ShardBackend>> = (0..shards)
            .map(|_| Arc::new(LocalShard::new(k, salt)) as Arc<dyn ShardBackend>)
            .collect();
        let process: Vec<Arc<dyn ShardBackend>> = (0..shards)
            .map(|ordinal| {
                let worker = std::process::Command::new(env!("CARGO_BIN_EXE_shard_worker"));
                Arc::new(ProcessShard::spawn(worker, ordinal, k, salt).expect("spawn shard worker"))
                    as Arc<dyn ShardBackend>
            })
            .collect();
        let mut reference: Option<(Vec<u8>, Vec<(u64, u64)>)> = None;
        for backends in [local, process] {
            let store = SketchStore::with_backends(k, salt, backends.clone());
            ingest_workload(&store, items_per);
            let sequential = store.band_index(&cfg).unwrap();
            let (bytes, pairs) = (wire_bytes(&sequential), sequential.candidate_pairs());

            let partials = backends
                .iter()
                .map(|backend| backend.band_partial(&cfg))
                .collect::<monotone_core::Result<Vec<_>>>()
                .unwrap();
            let merged = BandIndex::merged(cfg, partials);
            prop_assert_eq!(&wire_bytes(&merged), &bytes);
            prop_assert_eq!(&merged.candidate_pairs(), &pairs);

            for workers in [1usize, 2, 4] {
                let parallel = store.band_index_with(&cfg, &Engine::with_threads(workers)).unwrap();
                prop_assert_eq!(&wire_bytes(&parallel), &bytes, "w={}", workers);
                prop_assert_eq!(&parallel.candidate_pairs(), &pairs, "w={}", workers);
            }
            match &reference {
                None => reference = Some((bytes, pairs)),
                Some(local) => prop_assert_eq!(local, &(bytes, pairs)),
            }
        }
    }
}
