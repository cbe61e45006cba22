//! A band build hands its shard's lock to blocked writers between
//! hashing chunks, and that handoff is bounded: the build finishes while
//! several writers keep its one shard's lock contended throughout.
//!
//! Kept in its own test binary: its writer threads saturate the cores,
//! and the store's scheduling-sensitive unit test
//! (`ingest_proceeds_while_a_large_build_runs`) must not share them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use monotone_store::banding::BandConfig;
use monotone_store::SketchStore;

/// Each writer stops on its own after `MAX_WRITES`, far more than fit
/// into a build, so a build that waited for the writers to go quiet
/// fails here instead of hanging.
#[test]
fn a_build_finishes_under_steady_concurrent_writes() {
    const N: u64 = 20_000;
    const MAX_WRITES: u64 = 5_000_000;
    let store = Arc::new(SketchStore::with_shards(16, 3, 1));
    for id in 0..N {
        store.ingest(id, id, 1.0).unwrap();
    }
    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3)
        .map(|t| {
            let (store, done) = (Arc::clone(&store), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut writes = 0;
                while !done.load(Ordering::SeqCst) && writes < MAX_WRITES {
                    store.ingest(N + t, writes, 1.0).unwrap();
                    writes += 1;
                }
                writes
            })
        })
        .collect();
    let index = store.band_index(&BandConfig::new(8, 2, 5)).unwrap();
    done.store(true, Ordering::SeqCst);
    for writer in writers {
        let writes = writer.join().expect("writer thread");
        assert!(writes < MAX_WRITES, "the build waited for the writers");
    }
    assert_eq!(index.ids().filter(|&id| id < N).count(), N as usize);
}
