//! Persistent segment file format for the MP-Cache disk tier.
//!
//! A [`Segment`] is an append-only log of embedding records with an
//! in-memory `(feature, id) → offset` index. The same structure backs
//! three uses:
//!
//! 1. the per-shard **disk tier** inside
//!    [`ShardedMpCache`](crate::mpcache::ShardedMpCache) (records live in a
//!    `Vec<u8>`, mmap-style, so the vendored std-only stubs suffice),
//! 2. **snapshot/restore** of the dynamic warm-up tier across process
//!    restarts, and
//! 3. **warm-start hand-off** on node join: the cluster exports the moved
//!    features' dynamic entries from the old owners as segment bytes and
//!    loads them into the joiner's disk tier.
//!
//! # On-disk layout
//!
//! ```text
//! header : magic "MPSG" (4 bytes) | version u32 LE
//! record : feature u32 LE | id u64 LE | dim u32 LE | dim × f32 LE | fnv1a u32 LE
//! ```
//!
//! The trailing checksum covers every preceding byte of the record. Readers
//! scan sequentially, stop at the first short or corrupt record, and keep the
//! valid prefix — a torn trailing write (crash mid-append) is tolerated and
//! truncated rather than failing the whole segment. A bad header is a hard
//! error: the file is not a segment at all.

use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"MPSG";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

const HEADER_LEN: usize = 8;
/// feature u32 + id u64 + dim u32 before the floats, checksum u32 after.
const RECORD_PREFIX: usize = 16;
const RECORD_SUFFIX: usize = 4;
/// Upper bound on a record's embedding width; anything larger is treated as
/// corruption during a scan rather than an attempt to slice gigabytes.
const MAX_RECORD_DIM: u32 = 1 << 20;

/// FNV-1a over the record body; cheap, dependency-free, and good enough to
/// catch torn writes and bit rot in trailing records.
fn checksum(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Error returned when segment bytes do not start with a valid header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The byte stream is shorter than a header or the magic does not match.
    BadMagic,
    /// The header version is not one this build can read.
    BadVersion(u32),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::BadMagic => write!(f, "segment header magic mismatch"),
            SegmentError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// Append-only embedding log with an in-memory `(feature, id) → offset`
/// index over a `Vec<u8>` record buffer.
///
/// Appends go to the end of the buffer; lookups copy the floats back out via
/// the index. Duplicate keys are legal in the log — the index keeps the most
/// recent record (last write wins) while [`Segment::iter`] replays the raw
/// log in append order.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    data: Vec<u8>,
    /// key → (byte offset of the first float, dim).
    index: HashMap<(usize, u64), (u32, u32)>,
    records: usize,
    truncated: bool,
    /// Record-count capacity; 0 means unbounded (the default).
    max_records: usize,
}

impl Segment {
    /// Creates an empty segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty segment bounded to at most `max_records` log
    /// records (`0` = unbounded). When an append pushes the log over the
    /// bound, the segment first compacts away superseded records; if the
    /// live set alone still exceeds the bound, the *oldest* live records
    /// are evicted — the disk tier degrades to a bounded LRU-by-append
    /// rather than growing without limit.
    pub fn bounded(max_records: usize) -> Self {
        Segment {
            max_records,
            ..Segment::default()
        }
    }

    /// The record-count bound (`0` = unbounded).
    pub fn max_records(&self) -> usize {
        self.max_records
    }

    /// Re-bounds the segment, compacting/evicting immediately if the
    /// current log already exceeds the new bound.
    pub fn set_max_records(&mut self, max_records: usize) {
        self.max_records = max_records;
        self.enforce_bound();
    }

    /// Appends one record and indexes it (last write wins on duplicates).
    /// On a bounded segment this may trigger compaction/eviction; see
    /// [`Segment::bounded`].
    pub fn append(&mut self, feature: usize, id: u64, values: &[f32]) {
        let start = self.data.len();
        self.data
            .extend_from_slice(&(feature as u32).to_le_bytes());
        self.data.extend_from_slice(&id.to_le_bytes());
        self.data
            .extend_from_slice(&(values.len() as u32).to_le_bytes());
        let float_off = self.data.len();
        for v in values {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        let crc = checksum(&self.data[start..]);
        self.data.extend_from_slice(&crc.to_le_bytes());
        self.index
            .insert((feature, id), (float_off as u32, values.len() as u32));
        self.records += 1;
        self.enforce_bound();
    }

    fn enforce_bound(&mut self) {
        if self.max_records == 0 || self.records <= self.max_records {
            return;
        }
        self.compact();
        if self.records > self.max_records {
            self.evict_oldest(self.records - self.max_records);
        }
    }

    /// Drops superseded records (older duplicates of a rewritten key),
    /// keeping the live set in original append order. A no-op when every
    /// record is already live; byte layout of the survivors is unchanged.
    pub fn compact(&mut self) {
        if self.records == self.index.len() {
            return;
        }
        let mut data = Vec::with_capacity(self.data.len());
        let mut index = HashMap::with_capacity(self.index.len());
        let mut records = 0usize;
        let mut pos = 0usize;
        while let Some((feature, id, float_off, dim, next)) = decode_record(&self.data, pos) {
            // Live iff the index still points at this exact record.
            if self.index.get(&(feature, id)) == Some(&(float_off as u32, dim)) {
                index.insert(
                    (feature, id),
                    ((data.len() + RECORD_PREFIX) as u32, dim),
                );
                data.extend_from_slice(&self.data[pos..next]);
                records += 1;
            }
            pos = next;
        }
        self.data = data;
        self.index = index;
        self.records = records;
    }

    /// Drops the `n` oldest records from the front of the log and
    /// reindexes the remainder. Intended for post-compaction overflow,
    /// where every record is live and eviction is a real data drop.
    fn evict_oldest(&mut self, n: usize) {
        let mut cut = 0usize;
        for _ in 0..n {
            match decode_record(&self.data, cut) {
                Some((.., next)) => cut = next,
                None => break,
            }
        }
        self.data.drain(..cut);
        self.index.clear();
        self.records = 0;
        let mut pos = 0usize;
        while let Some((feature, id, float_off, dim, next)) = decode_record(&self.data, pos) {
            self.index.insert((feature, id), (float_off as u32, dim));
            self.records += 1;
            pos = next;
        }
    }

    /// Copies the embedding for `(feature, id)` into `out`, returning `true`
    /// on a hit. `out` is cleared first; on a miss it is left empty.
    pub fn get_into(&self, feature: usize, id: u64, out: &mut Vec<f32>) -> bool {
        out.clear();
        let Some(&(off, dim)) = self.index.get(&(feature, id)) else {
            return false;
        };
        let start = off as usize;
        let end = start + dim as usize * 4;
        out.extend(
            self.data[start..end]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        true
    }

    /// Whether the index holds an entry for `(feature, id)`.
    pub fn contains(&self, feature: usize, id: u64) -> bool {
        self.index.contains_key(&(feature, id))
    }

    /// Number of distinct keys in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of records in the log (≥ [`Segment::len`] when keys repeat).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Whether parsing dropped a torn or corrupt trailing record.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Iterates records in append order, yielding `(feature, id, values)`.
    pub fn iter(&self) -> SegmentIter<'_> {
        SegmentIter {
            data: &self.data,
            pos: 0,
        }
    }

    /// Serialises the segment: header followed by the record log.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.data.len());
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses segment bytes. A bad header is an error; a short or corrupt
    /// trailing record is tolerated — the valid prefix is kept and
    /// [`Segment::truncated`] reports the cut.
    pub fn from_bytes(bytes: &[u8]) -> Result<Segment, SegmentError> {
        if bytes.len() < HEADER_LEN || bytes[..4] != SEGMENT_MAGIC {
            return Err(SegmentError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != SEGMENT_VERSION {
            return Err(SegmentError::BadVersion(version));
        }
        let body = &bytes[HEADER_LEN..];
        let mut seg = Segment::new();
        let mut pos = 0usize;
        while pos < body.len() {
            let Some((feature, id, float_off, dim, next)) = decode_record(body, pos) else {
                seg.truncated = true;
                break;
            };
            seg.index.insert((feature, id), (float_off as u32, dim));
            seg.records += 1;
            pos = next;
        }
        seg.data = body[..pos].to_vec();
        Ok(seg)
    }

    /// Writes the segment to `path` durably: the bytes land in a `.tmp`
    /// sibling first and are renamed into place, so a crash mid-write never
    /// replaces the previous durable file with a torn one.
    ///
    /// Snapshots are compacted on the way out: superseded records never
    /// reach disk. For a segment with no duplicate keys the bytes are
    /// identical to [`Segment::to_bytes`].
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let bytes = if self.records == self.index.len() {
            self.to_bytes()
        } else {
            let mut live = self.clone();
            live.compact();
            live.to_bytes()
        };
        let tmp = path.with_extension("seg.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and parses a segment file; format errors surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_from(path: &Path) -> io::Result<Segment> {
        let bytes = std::fs::read(path)?;
        Segment::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Decodes the record starting at `pos`, returning
/// `(feature, id, float_offset, dim, next_pos)` or `None` when the record is
/// short or fails its checksum.
fn decode_record(body: &[u8], pos: usize) -> Option<(usize, u64, usize, u32, usize)> {
    let rest = &body[pos..];
    if rest.len() < RECORD_PREFIX + RECORD_SUFFIX {
        return None;
    }
    let feature = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let id = u64::from_le_bytes([
        rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
    ]);
    let dim = u32::from_le_bytes([rest[12], rest[13], rest[14], rest[15]]);
    if dim > MAX_RECORD_DIM {
        return None;
    }
    let body_len = RECORD_PREFIX + dim as usize * 4;
    if rest.len() < body_len + RECORD_SUFFIX {
        return None;
    }
    let crc = u32::from_le_bytes([
        rest[body_len],
        rest[body_len + 1],
        rest[body_len + 2],
        rest[body_len + 3],
    ]);
    if crc != checksum(&rest[..body_len]) {
        return None;
    }
    Some((
        feature,
        id,
        pos + RECORD_PREFIX,
        dim,
        pos + body_len + RECORD_SUFFIX,
    ))
}

/// Iterator over a segment's records in append order.
pub struct SegmentIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Iterator for SegmentIter<'_> {
    type Item = (usize, u64, Vec<f32>);

    fn next(&mut self) -> Option<Self::Item> {
        let (feature, id, float_off, dim, next) = decode_record(self.data, self.pos)?;
        let floats = self.data[float_off..float_off + dim as usize * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        self.pos = next;
        Some((feature, id, floats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        let mut seg = Segment::new();
        seg.append(0, 7, &[1.0, 2.0, 3.0]);
        seg.append(1, 9, &[-4.5, 0.25, 8.0]);
        seg.append(2, 11, &[0.0; 3]);
        seg
    }

    #[test]
    fn round_trips_byte_exact() {
        let seg = sample();
        let bytes = seg.to_bytes();
        let back = Segment::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert!(!back.truncated());
        assert_eq!(back.len(), 3);
        let mut buf = Vec::new();
        assert!(back.get_into(1, 9, &mut buf));
        assert_eq!(buf, vec![-4.5, 0.25, 8.0]);
        assert!(!back.get_into(1, 10, &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn torn_trailing_record_is_truncated_not_fatal() {
        let seg = sample();
        let mut bytes = seg.to_bytes();
        bytes.truncate(bytes.len() - 3); // tear the last record's checksum
        let back = Segment::from_bytes(&bytes).unwrap();
        assert!(back.truncated());
        assert_eq!(back.len(), 2);
        assert!(back.contains(0, 7));
        assert!(back.contains(1, 9));
        assert!(!back.contains(2, 11));
    }

    #[test]
    fn corrupt_trailing_record_is_truncated_not_fatal() {
        let seg = sample();
        let mut bytes = seg.to_bytes();
        let last = bytes.len() - 10; // flip a float byte inside the last record
        bytes[last] ^= 0xFF;
        let back = Segment::from_bytes(&bytes).unwrap();
        assert!(back.truncated());
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        assert_eq!(Segment::from_bytes(b"nope").unwrap_err(), SegmentError::BadMagic);
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert_eq!(
            Segment::from_bytes(&bytes).unwrap_err(),
            SegmentError::BadVersion(99)
        );
    }

    #[test]
    fn compact_drops_superseded_records_and_keeps_order() {
        let mut seg = Segment::new();
        seg.append(0, 1, &[1.0]);
        seg.append(0, 2, &[2.0]);
        seg.append(0, 1, &[1.5]); // supersedes the first record
        assert_eq!(seg.records(), 3);
        seg.compact();
        assert_eq!(seg.records(), 2);
        assert_eq!(seg.len(), 2);
        let replay: Vec<_> = seg.iter().collect();
        // Live records keep original append order; the stale one is gone.
        assert_eq!(replay[0].1, 2);
        assert_eq!(replay[1].1, 1);
        assert_eq!(replay[1].2, vec![1.5]);
        let mut buf = Vec::new();
        assert!(seg.get_into(0, 1, &mut buf));
        assert_eq!(buf, vec![1.5]);
        // Compacting an already-live log is a byte-level no-op.
        let bytes = seg.to_bytes();
        seg.compact();
        assert_eq!(seg.to_bytes(), bytes);
    }

    #[test]
    fn bounded_segment_compacts_then_evicts_oldest() {
        let mut seg = Segment::bounded(2);
        seg.append(0, 1, &[1.0]);
        seg.append(0, 2, &[2.0]);
        // A rewrite of key 1 overflows the log but compaction alone
        // absorbs it — no live data is lost.
        seg.append(0, 1, &[1.5]);
        assert_eq!(seg.records(), 2);
        assert!(seg.contains(0, 1) && seg.contains(0, 2));
        // A genuinely new key overflows a fully-live log: the oldest
        // live record (key 2, appended before key 1's rewrite) is evicted.
        seg.append(0, 3, &[3.0]);
        assert_eq!(seg.records(), 2);
        assert!(!seg.contains(0, 2));
        assert!(seg.contains(0, 1) && seg.contains(0, 3));
        let mut buf = Vec::new();
        assert!(seg.get_into(0, 1, &mut buf));
        assert_eq!(buf, vec![1.5]);
        // Re-bounding tighter evicts immediately.
        seg.set_max_records(1);
        assert_eq!(seg.records(), 1);
        assert!(seg.contains(0, 3));
        assert_eq!(seg.max_records(), 1);
    }

    #[test]
    fn snapshot_compacts_superseded_records_on_write() {
        let dir = std::env::temp_dir().join(format!(
            "mprec-seg-compact-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tier.seg");
        let mut seg = Segment::new();
        seg.append(4, 8, &[0.5; 4]);
        seg.append(4, 8, &[0.75; 4]);
        seg.append(5, 9, &[2.0; 4]);
        seg.write_to(&path).unwrap();
        let back = Segment::read_from(&path).unwrap();
        // In-memory log still holds 3 records; the snapshot holds the 2 live.
        assert_eq!(seg.records(), 3);
        assert_eq!(back.records(), 2);
        assert_eq!(back.len(), 2);
        let mut buf = Vec::new();
        assert!(back.get_into(4, 8, &mut buf));
        assert_eq!(buf, vec![0.75; 4]);
        // An already-compacted segment snapshots byte-exactly.
        let mut live = seg.clone();
        live.compact();
        assert_eq!(std::fs::read(&path).unwrap(), live.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_keys_last_write_wins_on_lookup() {
        let mut seg = Segment::new();
        seg.append(3, 5, &[1.0]);
        seg.append(3, 5, &[2.0]);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.records(), 2);
        let mut buf = Vec::new();
        assert!(seg.get_into(3, 5, &mut buf));
        assert_eq!(buf, vec![2.0]);
        // iter replays the raw log in order.
        let replay: Vec<_> = seg.iter().collect();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].2, vec![1.0]);
        assert_eq!(replay[1].2, vec![2.0]);
    }
}
