//! Replays for the traced run: one shard's work performed as the public
//! calls it is made of, each timed on its own.
//!
//! A [`Shadow`] keeps the same state a `LocalShard` keeps — one
//! `BottomKStream` per instance and an optional live `BandIndex` — and
//! performs every shard operation step by step: seed hashing
//! (`SeedHasher::seed_many` over the operation's keys), heap upkeep
//! (`BottomKStream::insert`), snapshots (`BottomKStream::sample`) and
//! band registration (`BandIndex::insert` / `remove`). The traced run
//! replays each shard call on the shadow right after the real call and
//! carves the replayed times out of the call's span. Because the shadow
//! holds identical state, its answers must equal the shard's; the traced
//! run checks that they do.
//!
//! The `codec_*` functions replay the wire encoding of a shard request
//! and its reply with `wire::Enc` / `wire::Dec` and
//! `BottomKSample::encode_into` / `decode`.

use std::collections::HashMap;
use std::hint::black_box;

use monotone_coord::bottomk::{BottomK, BottomKSample, BottomKStream, RankMethod};
use monotone_coord::seed::SeedHasher;
use monotone_coord::wire::{Dec, Enc};
use monotone_store::banding::{BandConfig, BandIndex};

use crate::trace::timed;

/// Nanoseconds one replayed shard call spent in each inner layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    pub seed_ns: u64,
    pub insert_ns: u64,
    pub snapshot_ns: u64,
    pub live_ns: u64,
    pub probe_ns: u64,
}

impl Replayed {
    /// Heap upkeep net of the seed hashing replayed separately.
    pub fn bottomk_ns(&self) -> u64 {
        self.insert_ns.saturating_sub(self.seed_ns)
    }

    pub fn total_ns(&self) -> u64 {
        self.insert_ns + self.snapshot_ns + self.live_ns + self.probe_ns
    }
}

/// Exact work counts gathered by the replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShadowCounts {
    pub seed_keys: u64,
    pub inserts: u64,
    pub changes: u64,
    pub live_updates: u64,
    pub probe_candidates: u64,
}

/// One shard's state, operated through public calls only.
#[derive(Debug)]
pub struct Shadow {
    sampler: BottomK,
    streams: HashMap<u64, BottomKStream>,
    live: Option<BandIndex>,
    keys: Vec<u64>,
    seeds: Vec<f64>,
}

impl Shadow {
    pub fn new(k: usize, salt: u64, live: Option<BandConfig>) -> Shadow {
        Shadow {
            sampler: BottomK::new(k, RankMethod::Priority, SeedHasher::new(salt)),
            streams: HashMap::new(),
            live: live.map(BandIndex::new),
            keys: Vec::new(),
            seeds: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.streams.len()
    }

    pub fn live(&self) -> Option<&BandIndex> {
        self.live.as_ref()
    }

    /// `LocalShard::ingest_all`, step by step.
    pub fn ingest_all(
        &mut self,
        instance: u64,
        items: &[(u64, f64)],
        r: &mut Replayed,
        c: &mut ShadowCounts,
    ) {
        self.keys.clear();
        self.keys.extend(items.iter().map(|&(key, _)| key));
        self.seeds.clear();
        self.seeds.resize(items.len(), 0.0);
        let ((), seed_ns) = timed(|| {
            self.sampler
                .seeder()
                .seed_many(black_box(&self.keys), &mut self.seeds);
            black_box(&self.seeds);
        });
        r.seed_ns += seed_ns;
        c.seed_keys += items.len() as u64;

        let sampler = self.sampler;
        let mut created = false;
        let stream = self.streams.entry(instance).or_insert_with(|| {
            created = true;
            sampler.stream()
        });
        let ((changed, changes), insert_ns) = timed(|| {
            let mut changed = false;
            let mut changes = 0u64;
            for &(key, w) in items {
                let entered = stream.insert(key, w);
                changes += u64::from(entered);
                changed |= entered;
            }
            (changed, changes)
        });
        r.insert_ns += insert_ns;
        c.changes += changes;
        c.inserts += items.len() as u64;
        if let Some(live) = &mut self.live {
            if created || changed {
                let (sample, snap_ns) = timed(|| stream.sample());
                r.snapshot_ns += snap_ns;
                let ((), live_ns) = timed(|| live.insert(instance, &sample));
                r.live_ns += live_ns;
                c.live_updates += 1;
            }
        }
    }

    /// `LocalShard::evict`, step by step.
    pub fn evict(&mut self, instance: u64, r: &mut Replayed, c: &mut ShadowCounts) -> bool {
        let had = self.streams.remove(&instance).is_some();
        if had {
            if let Some(live) = &mut self.live {
                let (_, live_ns) = timed(|| live.remove(instance));
                r.live_ns += live_ns;
                c.live_updates += 1;
            }
        }
        had
    }

    /// `LocalShard::sketches`: one snapshot per resident id.
    pub fn sketches(&self, ids: &[u64], r: &mut Replayed) -> Vec<Option<BottomKSample>> {
        let (out, ns) = timed(|| {
            ids.iter()
                .map(|id| self.streams.get(id).map(BottomKStream::sample))
                .collect()
        });
        r.snapshot_ns += ns;
        out
    }

    /// `LocalShard::live_signature`.
    pub fn live_signature(&self, instance: u64, r: &mut Replayed) -> Option<Vec<(u32, u64)>> {
        let live = self.live.as_ref()?;
        let (sig, ns) = timed(|| live.signature(instance).map(<[(u32, u64)]>::to_vec));
        r.probe_ns += ns;
        sig
    }

    /// `LocalShard::live_candidates`.
    pub fn live_candidates(
        &self,
        sig: &[(u32, u64)],
        r: &mut Replayed,
        c: &mut ShadowCounts,
    ) -> Vec<u64> {
        let Some(live) = self.live.as_ref() else {
            return Vec::new();
        };
        let (out, ns) = timed(|| live.candidates_of_signature(sig));
        r.probe_ns += ns;
        c.probe_candidates += out.len() as u64;
        out
    }
}

/// Bytes and nanoseconds of one replayed request/reply encoding.
#[derive(Debug, Default, Clone, Copy)]
pub struct Codec {
    pub bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
}

fn roundtrip<R>(
    codec: &mut Codec,
    encode: impl FnOnce(&mut Enc),
    decode: impl FnOnce(&mut Dec<'_>) -> R,
) -> R {
    let (bytes, encode_ns) = timed(|| {
        let mut enc = Enc::new();
        encode(&mut enc);
        enc.into_bytes()
    });
    let (out, decode_ns) = timed(|| {
        let mut dec = Dec::new(black_box(&bytes));
        let out = decode(&mut dec);
        dec.finish().expect("replayed payload decodes completely");
        out
    });
    codec.bytes += bytes.len() as u64;
    codec.encode_ns += encode_ns;
    codec.decode_ns += decode_ns;
    out
}

/// The ingest request (`op, instance, n, (key, w)*`) and its empty reply.
pub fn codec_ingest(codec: &mut Codec, instance: u64, items: &[(u64, f64)]) {
    roundtrip(
        codec,
        |e| {
            e.put_u8(2);
            e.put_u64(instance);
            e.put_len(items.len());
            for &(key, w) in items {
                e.put_u64(key);
                e.put_f64(w);
            }
        },
        |d| {
            d.take_u8().expect("op");
            black_box(d.take_u64().expect("instance"));
            let n = d.take_len().expect("len");
            for _ in 0..n {
                black_box(d.take_u64().expect("key"));
                black_box(d.take_f64().expect("weight"));
            }
        },
    );
    roundtrip(
        codec,
        |e| e.put_u8(0),
        |d| {
            d.take_u8().expect("status");
        },
    );
}

/// The evict request (`op, instance`) and its `(status, had)` reply.
pub fn codec_evict(codec: &mut Codec, instance: u64, had: bool) {
    roundtrip(
        codec,
        |e| {
            e.put_u8(3);
            e.put_u64(instance);
        },
        |d| {
            d.take_u8().expect("op");
            black_box(d.take_u64().expect("instance"));
        },
    );
    roundtrip(
        codec,
        |e| {
            e.put_u8(0);
            e.put_u8(u8::from(had));
        },
        |d| {
            d.take_u8().expect("status");
            black_box(d.take_u8().expect("had"));
        },
    );
}

/// The sketch-fetch request (`op, n, id*`) and its reply of presence
/// flags plus `BottomKSample` wire forms. Returns whether every decoded
/// sample equals the encoded one bit for bit.
pub fn codec_sketches(codec: &mut Codec, ids: &[u64], replies: &[Option<BottomKSample>]) -> bool {
    roundtrip(
        codec,
        |e| {
            e.put_u8(5);
            e.put_len(ids.len());
            for &id in ids {
                e.put_u64(id);
            }
        },
        |d| {
            d.take_u8().expect("op");
            let n = d.take_len().expect("len");
            for _ in 0..n {
                black_box(d.take_u64().expect("id"));
            }
        },
    );
    let decoded = roundtrip(
        codec,
        |e| {
            e.put_u8(0);
            for reply in replies {
                match reply {
                    None => e.put_u8(0),
                    Some(s) => {
                        e.put_u8(1);
                        s.encode_into(e);
                    }
                }
            }
        },
        |d| {
            d.take_u8().expect("status");
            replies
                .iter()
                .map(|_| match d.take_u8().expect("presence") {
                    0 => None,
                    _ => Some(BottomKSample::decode(d).expect("sketch decodes")),
                })
                .collect::<Vec<_>>()
        },
    );
    decoded == replies
}
