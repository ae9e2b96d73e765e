//! Crash-restart coverage for the persistent MP-Cache tier: the
//! snapshot/restore cycle must round-trip the dynamic tier byte-exactly
//! across a process restart, a crash *between* snapshots must recover
//! exactly the last durable snapshot (tmp files from the interrupted
//! write are ignored), and a torn or corrupt trailing record is
//! tolerated by truncating to the last whole record.

use std::path::{Path, PathBuf};

use mprec_core::mpcache::{ShardedCacheConfig, ShardedMpCache};
use mprec_core::persist::Segment;
use mprec_core::CoreError;
use mprec_embed::{DheConfig, DheStack};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Self-cleaning unique tempdir (no external tempfile crate): one
/// subdirectory of the OS tempdir per (process, test tag), removed on
/// drop so repeated CI runs leave nothing behind.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "mprec-persist-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stack() -> DheStack {
    stack_with_out_dim(4)
}

fn stack_with_out_dim(out_dim: usize) -> DheStack {
    let mut rng = StdRng::seed_from_u64(7);
    DheStack::new(
        DheConfig {
            k: 8,
            dnn: 16,
            h: 1,
            out_dim,
        },
        0,
        &mut rng,
    )
    .expect("valid dhe config")
}

fn fresh_cache() -> ShardedMpCache {
    ShardedMpCache::new(
        None,
        None,
        ShardedCacheConfig {
            shards: 4,
            dynamic_entries: 256,
        },
    )
}

/// Admits `ids` (feature 0) into the cache's dynamic tier.
fn warm(cache: &ShardedMpCache, stack: &DheStack, ids: impl IntoIterator<Item = u64>) {
    for id in ids {
        let _ = cache.embed(stack, 0, id).expect("embed");
    }
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read snapshot dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    files.sort();
    files
}

fn snapshot_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    shard_files(dir)
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read shard file");
            (p, bytes)
        })
        .collect()
}

#[test]
fn snapshot_restore_round_trip_is_byte_exact_across_restart() {
    let s = stack();
    let first = TempDir::new("roundtrip-a");
    let second = TempDir::new("roundtrip-b");

    let cache = fresh_cache();
    warm(&cache, &s, 0..48);
    assert!(cache.dynamic_len() > 0, "traffic fills the dynamic tier");
    cache.snapshot_dynamic(first.path()).expect("snapshot");

    // "Process restart": a brand-new cache object restores the snapshot
    // and must re-serialize to the identical bytes, shard for shard.
    let restarted = fresh_cache();
    let restored = restarted.restore_dynamic(first.path()).expect("restore");
    assert_eq!(restored, cache.dynamic_len(), "every entry survives");
    restarted.snapshot_dynamic(second.path()).expect("re-snapshot");

    let before = snapshot_bytes(first.path());
    let after = snapshot_bytes(second.path());
    assert_eq!(before.len(), after.len(), "same shard file count");
    for ((pa, ba), (pb, bb)) in before.iter().zip(after.iter()) {
        assert_eq!(
            pa.file_name(),
            pb.file_name(),
            "shard files pair up by name"
        );
        assert_eq!(ba, bb, "byte-exact contents for {:?}", pa.file_name());
    }

    // The restored entries actually serve: repeats of warmed IDs are
    // dynamic-tier hits, not recomputes.
    warm(&restarted, &s, 0..48);
    let st = restarted.stats();
    assert_eq!(st.dynamic_hits, 48, "restored entries serve RAM hits");
    assert_eq!(st.encoder_misses, 0, "nothing recomputed after restore");
}

#[test]
fn crash_between_snapshots_recovers_the_last_durable_snapshot() {
    let s = stack();
    let dir = TempDir::new("crash-between");

    let cache = fresh_cache();
    warm(&cache, &s, 0..32);
    cache.snapshot_dynamic(dir.path()).expect("durable snapshot");
    let durable = snapshot_bytes(dir.path());

    // More traffic arrives, then the process dies mid-way through the
    // *next* snapshot: `Segment::write_to` stages into `.seg.tmp` before
    // the rename, so the crash leaves a torn tmp file and the durable
    // files untouched.
    warm(&cache, &s, 100..140);
    std::fs::write(
        dir.path().join("shard-0000.seg.tmp"),
        b"MPSG\x01\x00\x00\x00torn mid-write",
    )
    .expect("write torn tmp");

    let restarted = fresh_cache();
    let restored = restarted.restore_dynamic(dir.path()).expect("restore");
    let expected: usize = durable
        .iter()
        .map(|(_, bytes)| Segment::from_bytes(bytes).expect("durable segment").records())
        .sum();
    assert_eq!(restored, expected, "recovers exactly the durable snapshot");

    // Byte-exact equivalence with the durable snapshot, proven by
    // re-serializing the recovered state.
    let verify = TempDir::new("crash-between-verify");
    restarted.snapshot_dynamic(verify.path()).expect("re-snapshot");
    let recovered = snapshot_bytes(verify.path());
    assert_eq!(durable.len(), recovered.len());
    for ((pa, ba), (_, bb)) in durable.iter().zip(recovered.iter()) {
        assert_eq!(ba, bb, "recovered state matches durable {:?}", pa.file_name());
    }

    // The post-snapshot traffic (ids 100..140) is gone, as a crash
    // before the rename implies.
    let st_before = restarted.stats();
    warm(&restarted, &s, 100..101);
    assert_eq!(
        restarted.stats().encoder_misses,
        st_before.encoder_misses + 1,
        "unsnapshotted entries did not survive the crash"
    );
}

#[test]
fn torn_trailing_record_is_truncated_and_tolerated() {
    let s = stack();
    let dir = TempDir::new("torn-tail");

    let cache = fresh_cache();
    warm(&cache, &s, 0..32);
    cache.snapshot_dynamic(dir.path()).expect("snapshot");

    // Tear the tail of one shard file: chop five bytes off the final
    // record, simulating a crash while appending to a live segment.
    let victim = shard_files(dir.path())
        .into_iter()
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("a shard file");
    let full = Segment::read_from(&victim).expect("intact segment");
    assert!(full.records() >= 2, "victim shard needs >= 2 records");
    let bytes = std::fs::read(&victim).expect("read victim");
    std::fs::write(&victim, &bytes[..bytes.len() - 5]).expect("tear tail");

    let torn = Segment::read_from(&victim).expect("torn read still succeeds");
    assert!(torn.truncated(), "the tear is detected");
    assert_eq!(
        torn.records(),
        full.records() - 1,
        "only the torn record is dropped"
    );

    // restore_dynamic over the whole dir tolerates the torn shard and
    // recovers everything except the single lost record.
    let restarted = fresh_cache();
    let restored = restarted.restore_dynamic(dir.path()).expect("restore");
    assert_eq!(restored, cache.dynamic_len() - 1);
}

#[test]
fn corrupt_trailing_checksum_drops_only_the_bad_record() {
    let s = stack();
    let dir = TempDir::new("bad-checksum");

    let cache = fresh_cache();
    warm(&cache, &s, 0..32);
    cache.snapshot_dynamic(dir.path()).expect("snapshot");

    // Flip the last byte (inside the final record's checksum): the
    // record is length-complete but fails verification, so the reader
    // must truncate at it rather than serve corrupt embedding bytes.
    let victim = shard_files(dir.path())
        .into_iter()
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("a shard file");
    let full = Segment::read_from(&victim).expect("intact segment");
    let mut bytes = std::fs::read(&victim).expect("read victim");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&victim, &bytes).expect("corrupt tail");

    let corrupt = Segment::read_from(&victim).expect("corrupt read still succeeds");
    assert!(corrupt.truncated(), "corruption is detected");
    assert_eq!(corrupt.records(), full.records() - 1);
}

#[test]
fn records_of_another_emb_dim_fail_the_lookup_instead_of_panicking() {
    // A snapshot or warm-start segment written under `out_dim` 4 loads
    // fine (segments carry no model identity) but must never be served
    // to an 8-dim stack: not as a short row, not as a worker panic.
    let narrow = stack();
    let wide = stack_with_out_dim(8);
    let dir = TempDir::new("wrong-dim");

    let donor = fresh_cache();
    warm(&donor, &narrow, 0..8);
    donor.snapshot_dynamic(dir.path()).expect("snapshot");
    let foreign = donor.export_dynamic_segment(|_| true);

    let from_segment = fresh_cache();
    assert_eq!(from_segment.load_disk_segment(&foreign).expect("load"), 8);
    let from_snapshot = fresh_cache();
    assert_eq!(from_snapshot.restore_dynamic(dir.path()).expect("restore"), 8);

    for (tier, cache) in [("disk", from_segment), ("dynamic", from_snapshot)] {
        let scalar = cache.embed(&wide, 0, 3);
        assert!(
            matches!(scalar, Err(CoreError::BadConfig(_))),
            "{tier} record, scalar path: {scalar:?}"
        );
        let batch = cache.embed_batch(&wide, 0, &[1000, 3, 4]);
        assert!(
            matches!(batch, Err(CoreError::BadConfig(_))),
            "{tier} record, batch path: {batch:?}"
        );
        // Ids the foreign segment never held are served at the stack's dim.
        assert_eq!(cache.embed(&wide, 0, 1000).expect("cold id").len(), 8);
    }
}
