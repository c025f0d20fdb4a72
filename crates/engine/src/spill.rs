//! Cold tier of the memory-budgeted two-tier join state: compressed
//! append-only on-disk segments with just-in-time fault-back.
//!
//! The hot tier is the unchanged [`SlabStore`](crate::slab::SlabStore)
//! (SwissTable-over-slab). When a store's estimated hot bytes exceed its
//! [`SpillConfig::budget_bytes`], the slab evicts the oldest entries of its
//! insertion ring — whole oldest prefixes of per-key chains — as one frame
//! appended to this module's *active* segment file, which seals once it
//! reaches [`SpillConfig::segment_target_bytes`] (file creation costs
//! orders of magnitude more than appending on common filesystems, so
//! sustained eviction pays one `open(2)` per sealed segment, not one per
//! eviction run). What stays in memory per cold entry is a ~32-byte
//! `ColdStub` (segment id, entry index, and just enough tuple metadata
//! to answer containment and expiry questions without touching disk); the
//! tuple bytes themselves live in the segment file.
//!
//! The discipline for reading state back mirrors JISC's just-in-time state
//! completion: a probe that misses hot but hits the cold-resident key index
//! does not scan the archive — the probed keys of a whole columnar batch
//! are collected first and faulted back in one sequential segment read
//! ([`ColdTier::fault_keys`]), then the normal probe kernel runs over a
//! hot-only store. Completion fills in keys the *window* owes a state;
//! fault-back fills in keys the *disk* owes the window.
//!
//! Segment files use no external dependencies: a magic header, then one
//! (durable checkpoints) or many (cold tier) length-prefixed frames, each
//! followed by the FNV-1a hash of its payload — so a partially filled
//! active segment reads back exactly like a sealed one. Cold-tier payloads
//! are per-column delta + varint encoded tuple data (bases deduplicated and
//! stored columnar; joined trees as preorder structure streams over base
//! indices); a checkpoint's single payload is its encoded snapshot.
//! A hash-chained manifest (each record chains the FNV of its predecessor,
//! JACS-style signed-header chaining) makes on-disk state tamper-evident;
//! [`DurableCheckpointStore`] folds the PR-3 [`BaseStateSnapshot`]
//! checkpoints into the same segment format so checkpoints survive process
//! restarts, and recovery verifies the whole chain before trusting a byte.
//!
//! Expiring a fully-dead cold segment is an O(1) file drop; a segment whose
//! live fraction falls below [`SpillConfig::compact_live_frac`] is
//! rewritten in place (live entries re-encoded into a fresh segment, stubs
//! repointed, old file dropped).
//!
//! I/O errors on the cold path are fatal to the owning engine (a panic,
//! surfaced like any worker panic): the tier's files are process-lifetime
//! scratch, and there is no meaningful way to continue a join whose state
//! is unreadable. Only [`DurableCheckpointStore`] — whose files *are*
//! expected to outlive processes and suffer corruption — returns `Result`s.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jisc_common::{BaseTuple, FxHashMap, JiscError, Key, Metrics, Result, SeqNo, StreamId, Tuple};
use jisc_telemetry::{AtomicHistogram, HistogramSnapshot};

use crate::snapshot::BaseStateSnapshot;

/// Segment file magic: after it, any number of frames written by
/// [`put_frame`]. Each frame is self-delimited and self-verified, so a
/// partially filled (still-active) segment reads back with the same code
/// path as a sealed one. Durable checkpoints are one-frame segments.
const MAGIC: &[u8; 6] = b"JSPL2\n";

/// Tuning and placement of one store's cold tier.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Hot-tier byte budget; the slab evicts oldest-first past this.
    pub budget_bytes: usize,
    /// Target encoded bytes per sealed segment (eviction runs accumulate
    /// at least the budget hysteresis, so small budgets mean small files).
    pub segment_target_bytes: usize,
    /// Rewrite a segment when its live fraction drops below this.
    pub compact_live_frac: f64,
    /// Directory the segment files live in (created on demand).
    pub dir: PathBuf,
}

impl SpillConfig {
    /// A config with default tuning for the given budget and directory.
    pub fn new(budget_bytes: usize, dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            budget_bytes,
            segment_target_bytes: 64 * 1024,
            compact_live_frac: 0.5,
            dir: dir.into(),
        }
    }
}

/// Occupancy snapshot of one cold tier (see [`ColdTier::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Cold entries currently stub-indexed.
    pub entries: usize,
    /// Distinct keys with at least one cold entry.
    pub keys: usize,
    /// Sealed segments currently referenced by this tier.
    pub segments: usize,
    /// Sum of sealed segment file sizes in bytes.
    pub disk_bytes: u64,
}

// ---------------------------------------------------------------------------
// FNV-1a and varint primitives
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `seed` (chain with the previous
/// record's hash; start fresh from [`fnv1a`]).
pub fn fnv1a_chain(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Plain FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_chain(FNV_OFFSET, bytes)
}

#[inline]
fn put_uv(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

#[inline]
fn get_uv(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| JiscError::Internal("spill frame: truncated varint".into()))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(JiscError::Internal("spill frame: varint overflow".into()));
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Delta-encode `v` against `prev` (wrapping), update `prev`.
#[inline]
fn put_delta(buf: &mut Vec<u8>, prev: &mut u64, v: u64) {
    put_uv(buf, zigzag(v.wrapping_sub(*prev) as i64));
    *prev = v;
}

#[inline]
fn get_delta(buf: &[u8], pos: &mut usize, prev: &mut u64) -> Result<u64> {
    let d = unzigzag(get_uv(buf, pos)?);
    let v = prev.wrapping_add(d as u64);
    *prev = v;
    Ok(v)
}

// ---------------------------------------------------------------------------
// Frame codec: Vec<(Key, Tuple)>  <->  compressed bytes
// ---------------------------------------------------------------------------

/// Encode entries into one frame payload. Bases are deduplicated (by
/// `Arc` identity then value) and stored as four delta/varint columns;
/// each entry is its key plus a preorder structure stream over base
/// indices (`0` = joined node, `1 + i` = base `i`).
fn encode_entries(entries: &[(Key, Tuple)]) -> Vec<u8> {
    // Base-state eviction batches are pure `Tuple::Base` rows, where the
    // dedup map buys nothing (each base appears once) while costing two
    // hash lookups per entry; encode those positionally. The decoder is
    // unchanged — dedup is a compression choice, not part of the format.
    if entries.iter().all(|(_, t)| matches!(t, Tuple::Base(_))) {
        return encode_base_entries(entries);
    }
    let mut bases: Vec<Arc<BaseTuple>> = Vec::new();
    let mut base_ix: FxHashMap<(u16, SeqNo, Key, u64), u32> = FxHashMap::default();
    for (_, t) in entries {
        t.for_each_base(&mut |b| {
            let sig = (b.stream.0, b.seq, b.key, b.payload);
            base_ix.entry(sig).or_insert_with(|| {
                bases.push(Arc::clone(b));
                (bases.len() - 1) as u32
            });
        });
    }

    let mut buf = Vec::with_capacity(entries.len() * 8 + bases.len() * 6);
    put_uv(&mut buf, bases.len() as u64);
    // Columnar base block: run-length streams, delta-zigzag seq/key/payload.
    let (mut ps, mut pk, mut pp) = (0u64, 0u64, 0u64);
    for b in &bases {
        put_uv(&mut buf, b.stream.0 as u64);
    }
    for b in &bases {
        put_delta(&mut buf, &mut ps, b.seq);
    }
    for b in &bases {
        put_delta(&mut buf, &mut pk, b.key);
    }
    for b in &bases {
        put_delta(&mut buf, &mut pp, b.payload);
    }

    put_uv(&mut buf, entries.len() as u64);
    let mut prev_key = 0u64;
    for (key, t) in entries {
        put_delta(&mut buf, &mut prev_key, *key);
        encode_tree(&mut buf, t, &base_ix);
    }
    buf
}

/// [`encode_entries`] for an all-base batch: base `i` is entry `i`, so
/// both the base block and the tree refs are written straight through.
fn encode_base_entries(entries: &[(Key, Tuple)]) -> Vec<u8> {
    let as_base = |t: &Tuple| match t {
        Tuple::Base(b) => Arc::clone(b),
        Tuple::Joined(_) => unreachable!("caller checked all-base"),
    };
    let mut buf = Vec::with_capacity(entries.len() * 8);
    put_uv(&mut buf, entries.len() as u64);
    let (mut ps, mut pk, mut pp) = (0u64, 0u64, 0u64);
    for (_, t) in entries {
        put_uv(&mut buf, as_base(t).stream.0 as u64);
    }
    for (_, t) in entries {
        put_delta(&mut buf, &mut ps, as_base(t).seq);
    }
    for (_, t) in entries {
        put_delta(&mut buf, &mut pk, as_base(t).key);
    }
    for (_, t) in entries {
        put_delta(&mut buf, &mut pp, as_base(t).payload);
    }
    put_uv(&mut buf, entries.len() as u64);
    let mut prev_key = 0u64;
    for (i, (key, _)) in entries.iter().enumerate() {
        put_delta(&mut buf, &mut prev_key, *key);
        put_uv(&mut buf, 1 + i as u64);
    }
    buf
}

fn encode_tree(buf: &mut Vec<u8>, t: &Tuple, base_ix: &FxHashMap<(u16, SeqNo, Key, u64), u32>) {
    match t {
        Tuple::Base(b) => {
            let i = base_ix[&(b.stream.0, b.seq, b.key, b.payload)];
            put_uv(buf, 1 + i as u64);
        }
        Tuple::Joined(j) => {
            put_uv(buf, 0);
            put_uv(buf, j.key);
            encode_tree(buf, &j.left, base_ix);
            encode_tree(buf, &j.right, base_ix);
        }
    }
}

/// Decode a frame payload back into `(key, tuple)` entries, sharing one
/// `Arc<BaseTuple>` per deduplicated base (as the hot store would).
fn decode_entries(buf: &[u8]) -> Result<Vec<(Key, Tuple)>> {
    let mut pos = 0usize;
    let n_base = get_uv(buf, &mut pos)? as usize;
    let mut streams = Vec::with_capacity(n_base);
    for _ in 0..n_base {
        streams.push(get_uv(buf, &mut pos)? as u16);
    }
    let (mut ps, mut pk, mut pp) = (0u64, 0u64, 0u64);
    let mut seqs = Vec::with_capacity(n_base);
    for _ in 0..n_base {
        seqs.push(get_delta(buf, &mut pos, &mut ps)?);
    }
    let mut keys = Vec::with_capacity(n_base);
    for _ in 0..n_base {
        keys.push(get_delta(buf, &mut pos, &mut pk)?);
    }
    let mut bases = Vec::with_capacity(n_base);
    for i in 0..n_base {
        let payload = get_delta(buf, &mut pos, &mut pp)?;
        bases.push(Tuple::base(BaseTuple::new(
            StreamId(streams[i]),
            seqs[i],
            keys[i],
            payload,
        )));
    }

    let n = get_uv(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n);
    let mut prev_key = 0u64;
    for _ in 0..n {
        let key = get_delta(buf, &mut pos, &mut prev_key)?;
        let t = decode_tree(buf, &mut pos, &bases)?;
        out.push((key, t));
    }
    if pos != buf.len() {
        return Err(JiscError::Internal(
            "spill frame: trailing garbage after last entry".into(),
        ));
    }
    Ok(out)
}

fn decode_tree(buf: &[u8], pos: &mut usize, bases: &[Tuple]) -> Result<Tuple> {
    let tag = get_uv(buf, pos)?;
    if tag == 0 {
        let key = get_uv(buf, pos)?;
        let left = decode_tree(buf, pos, bases)?;
        let right = decode_tree(buf, pos, bases)?;
        Ok(Tuple::joined(key, left, right))
    } else {
        let i = (tag - 1) as usize;
        bases
            .get(i)
            .cloned()
            .ok_or_else(|| JiscError::Internal("spill frame: base index out of range".into()))
    }
}

/// Append one frame to `buf`: `[uvarint len][payload][8-byte LE FNV of
/// payload]`.
fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    put_uv(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Split a segment file's bytes into its frame payloads, verifying the
/// magic and every frame's FNV. A length prefix sits outside the checksum
/// it introduces, so it is bounds-checked before any arithmetic on it.
fn segment_frames<'a>(path: &Path, bytes: &'a [u8]) -> Result<Vec<&'a [u8]>> {
    let corrupt = |what: &str| JiscError::Internal(format!("segment {}: {what}", path.display()));
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("bad magic or truncated"));
    }
    let mut pos = MAGIC.len();
    let mut frames = Vec::new();
    while pos < bytes.len() {
        let len = get_uv(bytes, &mut pos)?;
        match bytes.len().checked_sub(pos + 8) {
            Some(room) if len <= room as u64 => {}
            _ => return Err(corrupt("truncated frame")),
        }
        let (payload, rest) = bytes[pos..].split_at(len as usize);
        let want = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        if fnv1a(payload) != want {
            return Err(corrupt("frame checksum mismatch"));
        }
        frames.push(payload);
        pos += payload.len() + 8;
    }
    Ok(frames)
}

/// Read a multi-frame cold-tier segment (sealed *or* still active),
/// concatenating the decoded entries in frame order — stub `idx` values
/// are segment-global across frames.
fn read_segment_frames(path: &Path) -> Result<Vec<(Key, Tuple)>> {
    let bytes = fs::read(path).map_err(|e| io_err("read segment", path, &e))?;
    let mut out = Vec::new();
    for payload in segment_frames(path, &bytes)? {
        out.extend(decode_entries(payload)?);
    }
    Ok(out)
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> JiscError {
    JiscError::Internal(format!("spill {what} {}: {e}", path.display()))
}

/// Process-unique instance ids: clones of a spilled store write their new
/// segments under a fresh id so two owners never collide on file names.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Segments and stubs
// ---------------------------------------------------------------------------

/// A sealed, immutable segment file. Shared by clones of a store via
/// `Arc`; the file is unlinked when the last owner drops.
#[derive(Debug)]
struct SegmentFile {
    path: PathBuf,
}

impl Drop for SegmentFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StubKind {
    /// A base entry: exact `(stream, seq)`, removable without disk I/O.
    Base { stream: StreamId, seq: SeqNo },
    /// A joined entry: only the constituent seq range is known in memory.
    Joined { seq_lo: SeqNo, seq_hi: SeqNo },
}

/// In-memory remnant of one spilled entry (~32 bytes): where it sleeps and
/// what expiry/containment questions it can answer without a read.
#[derive(Debug, Clone, Copy)]
struct ColdStub {
    seg: u32,
    /// Entry index within the segment's frame.
    idx: u32,
    kind: StubKind,
}

/// A key's cold stubs. Nearly every key holds exactly one cold entry
/// (base states spill one row per key per stream), so the single-stub
/// case is stored inline — a heap `Vec` per evicted key was a measurable
/// slice of per-entry eviction cost under sustained spill.
#[derive(Debug, Clone)]
enum StubList {
    One(ColdStub),
    Many(Vec<ColdStub>),
}

impl StubList {
    #[inline]
    fn len(&self) -> usize {
        match self {
            StubList::One(_) => 1,
            StubList::Many(v) => v.len(),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[ColdStub] {
        match self {
            StubList::One(s) => std::slice::from_ref(s),
            StubList::Many(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [ColdStub] {
        match self {
            StubList::One(s) => std::slice::from_mut(s),
            StubList::Many(v) => v,
        }
    }

    #[inline]
    fn push(&mut self, s: ColdStub) {
        match self {
            StubList::One(first) => *self = StubList::Many(vec![*first, s]),
            StubList::Many(v) => v.push(s),
        }
    }

    /// Remove the stub at `pos`; returns `true` when the list emptied
    /// (the caller then drops the key from the index).
    fn remove(&mut self, pos: usize) -> bool {
        match self {
            StubList::One(_) => {
                debug_assert_eq!(pos, 0, "single-stub list has only position 0");
                true
            }
            StubList::Many(v) => {
                v.remove(pos);
                v.is_empty()
            }
        }
    }
}

#[derive(Debug, Clone)]
struct SegMeta {
    file: Arc<SegmentFile>,
    entries: u32,
    dead: u32,
    bytes: u64,
    /// Distinct keys with entries in this segment (for compaction's stub
    /// repointing; duplicates allowed, harmless).
    keys: Vec<Key>,
}

// ---------------------------------------------------------------------------
// The cold tier
// ---------------------------------------------------------------------------

/// The on-disk cold tier of one [`SlabStore`](crate::slab::SlabStore):
/// sealed segments plus the in-memory stub index over them.
#[derive(Debug)]
/// The one segment file currently open for appends. Creating a file is
/// orders of magnitude more expensive than appending to one on common
/// filesystems, so eviction batches append frames here until the segment
/// reaches its target size and is sealed; fault-back reads it through the
/// same multi-frame reader as sealed segments (each frame is
/// self-delimited and self-verified).
struct ActiveSeg {
    seg: u32,
    name: String,
    file: fs::File,
    /// Running chain over frame payloads — becomes the manifest record's
    /// content hash at seal.
    fnv: u64,
}

#[derive(Debug)]
pub struct ColdTier {
    cfg: SpillConfig,
    instance: u64,
    next_seg: u32,
    next_file_ord: u64,
    active: Option<ActiveSeg>,
    segs: FxHashMap<u32, SegMeta>,
    index: FxHashMap<Key, StubList>,
    entries: usize,
    disk_bytes: u64,
    /// Manifest chain hash after the last appended record.
    manifest_chain: u64,
    /// Open append handle to the manifest ledger; kept across segment
    /// seals so sustained eviction pays one `open(2)` total, not one per
    /// segment. `None` until the first record lands.
    manifest: Option<fs::File>,
    /// Wall-clock nanoseconds per fault-back batch (JIT state completion
    /// latency of the disk tier). Wall-clock, so deliberately *not* part of
    /// [`Metrics`] — mirrored into the `index:` explain footer instead.
    fault_ns: AtomicHistogram,
}

impl Clone for ColdTier {
    fn clone(&self) -> Self {
        ColdTier {
            cfg: self.cfg.clone(),
            instance: next_instance(),
            next_seg: self.next_seg,
            next_file_ord: 0,
            // The clone never appends to the original's active file — its
            // next spill opens a segment of its own. It can still *read*
            // the shared file: extra frames the original appends later sit
            // past every stub index the clone registered.
            active: None,
            segs: self.segs.clone(),
            index: self.index.clone(),
            entries: self.entries,
            disk_bytes: self.disk_bytes,
            manifest_chain: FNV_OFFSET,
            manifest: None,
            fault_ns: AtomicHistogram::new(),
        }
    }
}

impl ColdTier {
    /// Open a tier under `cfg.dir` (created if missing).
    pub fn new(cfg: SpillConfig) -> Result<Self> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &cfg.dir, &e))?;
        Ok(ColdTier {
            cfg,
            instance: next_instance(),
            next_seg: 0,
            next_file_ord: 0,
            active: None,
            segs: FxHashMap::default(),
            index: FxHashMap::default(),
            entries: 0,
            disk_bytes: 0,
            manifest_chain: FNV_OFFSET,
            manifest: None,
            fault_ns: AtomicHistogram::new(),
        })
    }

    /// The tier's configuration.
    pub fn config(&self) -> &SpillConfig {
        &self.cfg
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            entries: self.entries,
            keys: self.index.len(),
            segments: self.segs.len(),
            disk_bytes: self.disk_bytes,
        }
    }

    /// Cold entries currently indexed.
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// True if no cold entries exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Does `key` have cold entries?
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.index.contains_key(&key)
    }

    /// Cold entries under `key`.
    #[inline]
    pub fn count(&self, key: Key) -> usize {
        self.index.get(&key).map_or(0, StubList::len)
    }

    /// Distinct keys with cold entries.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.index.keys().copied()
    }

    /// Does `key` hold any *joined* cold entry whose constituent seq range
    /// covers `seq`? Such an entry can only be expired by faulting it back
    /// (lineage lives on disk); base entries never need this.
    pub fn joined_may_contain(&self, key: Key, seq: SeqNo) -> bool {
        self.index.get(&key).is_some_and(|stubs| {
            stubs.as_slice().iter().any(|s| match s.kind {
                StubKind::Joined { seq_lo, seq_hi } => seq_lo <= seq && seq <= seq_hi,
                StubKind::Base { .. } => false,
            })
        })
    }

    /// Fault-latency histogram (nanoseconds per fault-back batch).
    pub fn fault_latency(&self) -> HistogramSnapshot {
        self.fault_ns.snapshot()
    }

    fn manifest_path(&self) -> PathBuf {
        self.cfg.dir.join(format!("manifest-{}.log", self.instance))
    }

    /// Path of this tier's segment manifest, if any record was written
    /// (the soak harness uploads it next to the flight dump on failure).
    pub fn manifest_file(&self) -> Option<PathBuf> {
        self.manifest.is_some().then(|| self.manifest_path())
    }

    /// Append a hash-chained record for a sealed segment. Best-effort for
    /// the scratch tier (the authoritative chain verification lives in
    /// [`DurableCheckpointStore`]); the file doubles as the soak harness's
    /// leak ledger.
    fn manifest_append(&mut self, name: &str, bytes: u64, file_fnv: u64) {
        let record = format!("seg {name} {bytes} {file_fnv:016x}");
        self.manifest_chain = fnv1a_chain(self.manifest_chain, record.as_bytes());
        let line = format!("{record} {:016x}\n", self.manifest_chain);
        if self.manifest.is_none() {
            let path = self.manifest_path();
            self.manifest = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .ok();
        }
        if let Some(f) = self.manifest.as_mut() {
            if f.write_all(line.as_bytes()).is_err() {
                self.manifest = None;
            }
        }
    }

    /// Seal `batch` (oldest-first eviction order) into one new segment and
    /// index a stub per entry. The caller has already unlinked the entries
    /// from the hot tier.
    pub fn spill_batch(&mut self, batch: &[(Key, Tuple)], m: &mut Metrics) {
        if batch.is_empty() {
            return;
        }
        let (seg, base_idx) = self.append_frame(batch, m).expect("spill I/O is fatal");
        for (i, (key, t)) in batch.iter().enumerate() {
            let kind = match t {
                Tuple::Base(b) => StubKind::Base {
                    stream: b.stream,
                    seq: b.seq,
                },
                Tuple::Joined(_) => StubKind::Joined {
                    seq_lo: t.min_seq(),
                    seq_hi: t.max_seq(),
                },
            };
            let stub = ColdStub {
                seg,
                idx: (base_idx + i) as u32,
                kind,
            };
            self.index
                .entry(*key)
                .and_modify(|l| l.push(stub))
                .or_insert(StubList::One(stub));
        }
        self.entries += batch.len();
        m.spill_evictions += batch.len() as u64;
    }

    /// Encode `batch` as one frame and append it to the active segment
    /// (opened on demand — file *creation* is the expensive disk op, so
    /// one create is amortized over every frame until the segment reaches
    /// its target size and seals). Returns the segment id and the
    /// segment-global index of the frame's first entry. Does not touch the
    /// stub index.
    fn append_frame(&mut self, batch: &[(Key, Tuple)], m: &mut Metrics) -> Result<(u32, usize)> {
        let payload = encode_entries(batch);
        if self.active.is_none() {
            let name = format!("seg-{}-{}.jspl", self.instance, self.next_file_ord);
            self.next_file_ord += 1;
            let path = self.cfg.dir.join(&name);
            let mut file =
                fs::File::create(&path).map_err(|e| io_err("create segment", &path, &e))?;
            file.write_all(MAGIC)
                .map_err(|e| io_err("write segment", &path, &e))?;
            let seg = self.next_seg;
            self.next_seg += 1;
            self.segs.insert(
                seg,
                SegMeta {
                    file: Arc::new(SegmentFile { path }),
                    entries: 0,
                    dead: 0,
                    bytes: MAGIC.len() as u64,
                    keys: Vec::new(),
                },
            );
            self.disk_bytes += MAGIC.len() as u64;
            self.active = Some(ActiveSeg {
                seg,
                name,
                file,
                fnv: FNV_OFFSET,
            });
        }
        let active = self.active.as_mut().expect("opened above");
        let seg = active.seg;
        let mut frame = Vec::with_capacity(payload.len() + 18);
        put_frame(&mut frame, &payload);
        active
            .file
            .write_all(&frame)
            .map_err(|e| JiscError::Internal(format!("append segment frame: {e}")))?;
        active.fnv = fnv1a_chain(active.fnv, &payload);
        let meta = self.segs.get_mut(&seg).expect("active segment registered");
        let base_idx = meta.entries as usize;
        meta.entries += batch.len() as u32;
        meta.bytes += frame.len() as u64;
        meta.keys.extend(batch.iter().map(|&(k, _)| k));
        meta.keys.dedup();
        self.disk_bytes += frame.len() as u64;
        if meta.bytes >= self.cfg.segment_target_bytes as u64 {
            self.seal_active(m);
        }
        Ok((seg, base_idx))
    }

    /// Close the active segment and append its hash-chained manifest
    /// record; subsequent spills open a fresh segment.
    fn seal_active(&mut self, m: &mut Metrics) {
        let Some(active) = self.active.take() else {
            return;
        };
        let bytes = self.segs.get(&active.seg).map_or(0, |meta| meta.bytes);
        self.manifest_append(&active.name, bytes, active.fnv);
        m.spill_segments_sealed += 1;
    }

    /// Fault back every cold entry of the requested keys in one pass:
    /// group the needed stubs by segment, read each touched segment
    /// sequentially once, and return each key's tuples oldest-first. The
    /// stubs are consumed; segments whose last live entry left are dropped
    /// (O(1) unlink), under-occupied ones compacted.
    pub fn fault_keys(&mut self, wanted: &[Key], m: &mut Metrics) -> Vec<(Key, Vec<Tuple>)> {
        let t0 = Instant::now();
        // (key, stubs) for each requested cold-resident key.
        let mut claimed: Vec<(Key, StubList)> = Vec::new();
        for &k in wanted {
            if let Some(stubs) = self.index.remove(&k) {
                claimed.push((k, stubs));
            }
        }
        if claimed.is_empty() {
            return Vec::new();
        }
        // One sequential read per touched segment.
        let mut by_seg: FxHashMap<u32, Vec<(usize, usize, u32)>> = FxHashMap::default();
        for (ki, (_, stubs)) in claimed.iter().enumerate() {
            for (si, s) in stubs.as_slice().iter().enumerate() {
                by_seg.entry(s.seg).or_default().push((ki, si, s.idx));
            }
        }
        // Decode each touched segment once, writing tuples into their
        // per-key positions (stub order == per-key insertion order).
        let mut slots_out: Vec<Vec<Option<Tuple>>> = claimed
            .iter()
            .map(|(_, stubs)| vec![None; stubs.len()])
            .collect();
        let mut segs_read = 0u64;
        for (&seg, slots) in &by_seg {
            let meta = self.segs.get(&seg).expect("stub references live segment");
            let entries = read_segment_frames(&meta.file.path).expect("spill I/O is fatal");
            segs_read += 1;
            for &(ki, si, idx) in slots {
                slots_out[ki][si] = Some(entries[idx as usize].1.clone());
            }
        }
        let out: Vec<(Key, Vec<Tuple>)> = claimed
            .iter()
            .zip(slots_out)
            .map(|((k, _), ts)| {
                (
                    *k,
                    ts.into_iter()
                        .map(|t| t.expect("every stub resolved by a segment read"))
                        .collect(),
                )
            })
            .collect();
        // Account the consumed stubs against their segments.
        let mut dead_by_seg: FxHashMap<u32, u32> = FxHashMap::default();
        for (_, stubs) in &claimed {
            for s in stubs.as_slice() {
                *dead_by_seg.entry(s.seg).or_default() += 1;
            }
        }
        let faulted: usize = claimed.iter().map(|(_, s)| s.len()).sum();
        self.entries -= faulted;
        for (seg, dead) in dead_by_seg {
            self.note_dead(seg, dead, m);
        }
        m.spill_faults += faulted as u64;
        m.spill_fault_reads += segs_read;
        self.fault_ns.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Remove the cold *base* entry `(stream, seq)` under `key` without
    /// any disk read (expiry of a spilled scan entry). Returns how many
    /// entries went (0 or 1 — a base is inserted once).
    pub fn remove_base(
        &mut self,
        key: Key,
        stream: StreamId,
        seq: SeqNo,
        m: &mut Metrics,
    ) -> usize {
        let Some(stubs) = self.index.get_mut(&key) else {
            return 0;
        };
        let Some(pos) = stubs.as_slice().iter().position(|s| {
            matches!(s.kind, StubKind::Base { stream: st, seq: sq } if st == stream && sq == seq)
        }) else {
            return 0;
        };
        let seg = stubs.as_slice()[pos].seg;
        if stubs.remove(pos) {
            self.index.remove(&key);
        }
        self.entries -= 1;
        self.note_dead(seg, 1, m);
        1
    }

    /// Drop every cold entry under `key` without reading it (migration /
    /// range extraction of keys whose tuples are not needed). Returns how
    /// many entries went.
    pub fn remove_key(&mut self, key: Key, m: &mut Metrics) -> usize {
        let Some(stubs) = self.index.remove(&key) else {
            return 0;
        };
        let mut dead_by_seg: FxHashMap<u32, u32> = FxHashMap::default();
        for s in stubs.as_slice() {
            *dead_by_seg.entry(s.seg).or_default() += 1;
        }
        self.entries -= stubs.len();
        for (seg, dead) in dead_by_seg {
            self.note_dead(seg, dead, m);
        }
        stubs.len()
    }

    /// Drop all segments and stubs (hot-store `clear`).
    pub fn clear(&mut self) {
        self.active = None;
        self.segs.clear();
        self.index.clear();
        self.entries = 0;
        self.disk_bytes = 0;
    }

    /// Record `dead` newly dead entries in `seg`; fully dead segments are
    /// dropped in O(1) (the file unlinks when its last owner lets go),
    /// under-occupied ones are compacted.
    fn note_dead(&mut self, seg: u32, dead: u32, m: &mut Metrics) {
        let (fully_dead, needs_compact) = {
            let meta = self.segs.get_mut(&seg).expect("dead note on live segment");
            meta.dead += dead;
            debug_assert!(meta.dead <= meta.entries);
            let live = (meta.entries - meta.dead) as f64;
            (
                meta.dead == meta.entries,
                meta.entries >= 4 && live / (meta.entries as f64) < self.cfg.compact_live_frac,
            )
        };
        let is_active = self.active.as_ref().is_some_and(|a| a.seg == seg);
        if fully_dead {
            if is_active {
                // Close the append handle before the meta's Arc drop
                // unlinks the file.
                self.active = None;
            }
            let meta = self.segs.remove(&seg).expect("present");
            self.disk_bytes -= meta.bytes;
            m.spill_segments_dropped += 1;
        } else if needs_compact {
            if is_active {
                // Compaction rewrites a closed file; seal first. The live
                // survivors then land in a fresh active segment.
                self.seal_active(m);
            }
            self.compact(seg, m);
        }
    }

    /// Rewrite `seg`'s live entries into a fresh segment and repoint their
    /// stubs in place (per-key order is untouched). The old file drops.
    fn compact(&mut self, seg: u32, m: &mut Metrics) {
        let meta = self.segs.get(&seg).expect("compact live segment").clone();
        let entries = read_segment_frames(&meta.file.path).expect("spill I/O is fatal");
        // Live stub locations pointing into `seg`: (key, position in the
        // key's stub vec, entry idx).
        let mut live: Vec<(Key, usize, u32)> = Vec::new();
        let mut seen = jisc_common::FxHashSet::default();
        for &k in &meta.keys {
            if !seen.insert(k) {
                continue;
            }
            if let Some(stubs) = self.index.get(&k) {
                for (pos, s) in stubs.as_slice().iter().enumerate() {
                    if s.seg == seg {
                        live.push((k, pos, s.idx));
                    }
                }
            }
        }
        if live.is_empty() {
            // All claimed elsewhere; nothing to rewrite.
            let meta = self.segs.remove(&seg).expect("present");
            self.disk_bytes -= meta.bytes;
            m.spill_segments_dropped += 1;
            return;
        }
        let batch: Vec<(Key, Tuple)> = live
            .iter()
            .map(|&(k, _, idx)| (k, entries[idx as usize].1.clone()))
            .collect();
        // Survivors ride the append path: they join the current active
        // segment (opening one if needed) rather than forcing a file
        // create per compaction.
        let (new_seg, base_idx) = self.append_frame(&batch, m).expect("spill I/O is fatal");
        for (i, &(k, pos, _)) in live.iter().enumerate() {
            let stubs = self
                .index
                .get_mut(&k)
                .expect("live stub key")
                .as_mut_slice();
            stubs[pos].seg = new_seg;
            stubs[pos].idx = (base_idx + i) as u32;
        }
        let old = self.segs.remove(&seg).expect("present");
        self.disk_bytes -= old.bytes;
        m.spill_compactions += 1;
        m.spill_segments_dropped += 1;
    }
}

// ---------------------------------------------------------------------------
// Durable checkpoints
// ---------------------------------------------------------------------------

/// Durable, hash-chain-verified checkpoint store: folds the PR-3
/// [`BaseStateSnapshot`] into the same segment format the cold tier uses,
/// so checkpoints survive process restarts.
///
/// Layout under `dir`:
/// * `ckpt-<id>.jspl` — one snapshot per file, as a one-frame segment
/// * `MANIFEST` — one record per persisted checkpoint, each carrying the
///   FNV of its frame payload and a chain hash over all prior records
///   (JACS-style signed-header chaining). Recovery re-derives the chain
///   and every file hash; a single flipped byte anywhere is rejected.
#[derive(Debug)]
pub struct DurableCheckpointStore {
    dir: PathBuf,
    chain: u64,
    next_id: u64,
}

/// One verified manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestRecord {
    id: u64,
    seq_tag: u64,
    bytes: u64,
    file_fnv: u64,
}

impl DurableCheckpointStore {
    /// Manifest path under a checkpoint directory.
    pub fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("MANIFEST")
    }

    /// Open (or create) a checkpoint store, verifying any existing
    /// manifest chain first.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, &e))?;
        let (chain, records) = Self::load_manifest(&dir)?;
        let next_id = records.last().map_or(0, |r| r.id + 1);
        Ok(DurableCheckpointStore {
            dir,
            chain,
            next_id,
        })
    }

    fn load_manifest(dir: &Path) -> Result<(u64, Vec<ManifestRecord>)> {
        let path = Self::manifest_path(dir);
        let mut chain = FNV_OFFSET;
        let mut records = Vec::new();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((chain, records)),
            Err(e) => return Err(io_err("read manifest", &path, &e)),
        };
        for (ln, line) in text.lines().enumerate() {
            let bad = |what: &str| {
                JiscError::Internal(format!(
                    "checkpoint manifest {}:{}: {what}",
                    path.display(),
                    ln + 1
                ))
            };
            let fields: Vec<&str> = line.split(' ').collect();
            if fields.len() != 6 || fields[0] != "ckpt" {
                return Err(bad("malformed record"));
            }
            let id: u64 = fields[1].parse().map_err(|_| bad("bad id"))?;
            let seq_tag: u64 = fields[2].parse().map_err(|_| bad("bad seq tag"))?;
            let bytes: u64 = fields[3].parse().map_err(|_| bad("bad byte count"))?;
            let file_fnv = u64::from_str_radix(fields[4], 16).map_err(|_| bad("bad file hash"))?;
            let want_chain =
                u64::from_str_radix(fields[5], 16).map_err(|_| bad("bad chain hash"))?;
            let record = format!("ckpt {id} {seq_tag} {bytes} {file_fnv:016x}");
            chain = fnv1a_chain(chain, record.as_bytes());
            if chain != want_chain {
                return Err(bad("chain hash mismatch (manifest corrupt or reordered)"));
            }
            records.push(ManifestRecord {
                id,
                seq_tag,
                bytes,
                file_fnv,
            });
        }
        Ok((chain, records))
    }

    fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("ckpt-{id}.jspl"))
    }

    /// Persist one snapshot; returns its checkpoint id. `seq_tag` is the
    /// caller's progress marker (typically the snapshot's `next_seq`),
    /// replayed back by [`DurableCheckpointStore::recover_latest`].
    pub fn persist(&mut self, snap: &BaseStateSnapshot, seq_tag: u64) -> Result<u64> {
        let payload = encode_snapshot(snap);
        let id = self.next_id;
        let path = Self::ckpt_path(&self.dir, id);
        let mut file = MAGIC.to_vec();
        put_frame(&mut file, &payload);
        // Synced before the manifest names it: a checkpoint's contract is
        // surviving a process crash.
        fs::File::create(&path)
            .and_then(|mut f| f.write_all(&file).and_then(|()| f.sync_all()))
            .map_err(|e| io_err("write checkpoint", &path, &e))?;
        let bytes = file.len() as u64;
        let file_fnv = fnv1a(&payload);
        let record = format!("ckpt {id} {seq_tag} {bytes} {file_fnv:016x}");
        self.chain = fnv1a_chain(self.chain, record.as_bytes());
        let line = format!("{record} {:016x}\n", self.chain);
        let mpath = Self::manifest_path(&self.dir);
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&mpath)
            .map_err(|e| io_err("open manifest", &mpath, &e))?;
        f.write_all(line.as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| io_err("append manifest", &mpath, &e))?;
        self.next_id = id + 1;
        Ok(id)
    }

    /// Recover the newest checkpoint under `dir`, verifying the manifest
    /// chain and the checkpoint file's payload hash. `Ok(None)` means the
    /// store is empty; any corruption is an error, never a silent fallback.
    pub fn recover_latest(dir: impl AsRef<Path>) -> Result<Option<(u64, BaseStateSnapshot)>> {
        let dir = dir.as_ref();
        let (_, records) = Self::load_manifest(dir)?;
        let Some(last) = records.last() else {
            return Ok(None);
        };
        let path = Self::ckpt_path(dir, last.id);
        let bytes = fs::read(&path).map_err(|e| io_err("read checkpoint", &path, &e))?;
        let [payload] = segment_frames(&path, &bytes)?[..] else {
            return Err(JiscError::Internal(format!(
                "checkpoint {}: expected exactly one frame",
                path.display()
            )));
        };
        if fnv1a(payload) != last.file_fnv {
            return Err(JiscError::Internal(format!(
                "checkpoint {}: payload hash disagrees with manifest",
                path.display()
            )));
        }
        let snap = decode_snapshot(payload)?;
        Ok(Some((last.seq_tag, snap)))
    }

    /// Drop every checkpoint except the newest `keep` (bounded disk), via
    /// atomic manifest rewrite (tmp + rename).
    pub fn prune(&mut self, keep: usize) -> Result<()> {
        let (_, records) = Self::load_manifest(&self.dir)?;
        if records.len() <= keep {
            return Ok(());
        }
        let cut = records.len() - keep;
        let (old, kept) = records.split_at(cut);
        let mut chain = FNV_OFFSET;
        let mut text = String::new();
        for r in kept {
            let record = format!(
                "ckpt {} {} {} {:016x}",
                r.id, r.seq_tag, r.bytes, r.file_fnv
            );
            chain = fnv1a_chain(chain, record.as_bytes());
            text.push_str(&format!("{record} {chain:016x}\n"));
        }
        let mpath = Self::manifest_path(&self.dir);
        let tmp = self.dir.join("MANIFEST.tmp");
        fs::write(&tmp, &text).map_err(|e| io_err("write manifest tmp", &tmp, &e))?;
        fs::rename(&tmp, &mpath).map_err(|e| io_err("rename manifest", &mpath, &e))?;
        self.chain = chain;
        for r in old {
            let _ = fs::remove_file(Self::ckpt_path(&self.dir, r.id));
        }
        Ok(())
    }
}

/// Frame-encode a [`BaseStateSnapshot`] with the same varint/delta
/// primitives segments use.
fn encode_snapshot(snap: &BaseStateSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    put_uv(&mut buf, snap.next_seq);
    put_uv(&mut buf, snap.last_ts);
    put_uv(&mut buf, snap.last_transition_seq);
    put_uv(&mut buf, snap.rings.len() as u64);
    for ring in &snap.rings {
        put_uv(&mut buf, ring.len() as u64);
        let (mut pt, mut ps, mut pk, mut pp) = (0u64, 0u64, 0u64, 0u64);
        for (ts, b) in ring {
            put_delta(&mut buf, &mut pt, *ts);
            put_uv(&mut buf, b.stream.0 as u64);
            put_delta(&mut buf, &mut ps, b.seq);
            put_delta(&mut buf, &mut pk, b.key);
            put_delta(&mut buf, &mut pp, b.payload);
        }
    }
    put_uv(&mut buf, snap.fresh.len() as u64);
    for fresh in &snap.fresh {
        let mut pairs: Vec<(Key, SeqNo)> = fresh.iter().map(|(&k, &s)| (k, s)).collect();
        pairs.sort_unstable();
        put_uv(&mut buf, pairs.len() as u64);
        let (mut pk, mut ps) = (0u64, 0u64);
        for (k, s) in pairs {
            put_delta(&mut buf, &mut pk, k);
            put_delta(&mut buf, &mut ps, s);
        }
    }
    buf
}

fn decode_snapshot(buf: &[u8]) -> Result<BaseStateSnapshot> {
    let mut pos = 0usize;
    let next_seq = get_uv(buf, &mut pos)?;
    let last_ts = get_uv(buf, &mut pos)?;
    let last_transition_seq = get_uv(buf, &mut pos)?;
    let n_rings = get_uv(buf, &mut pos)? as usize;
    let mut rings = Vec::with_capacity(n_rings);
    for _ in 0..n_rings {
        let n = get_uv(buf, &mut pos)? as usize;
        let mut ring = Vec::with_capacity(n);
        let (mut pt, mut ps, mut pk, mut pp) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..n {
            let ts = get_delta(buf, &mut pos, &mut pt)?;
            let stream = get_uv(buf, &mut pos)? as u16;
            let seq = get_delta(buf, &mut pos, &mut ps)?;
            let key = get_delta(buf, &mut pos, &mut pk)?;
            let payload = get_delta(buf, &mut pos, &mut pp)?;
            ring.push((
                ts,
                Arc::new(BaseTuple::new(StreamId(stream), seq, key, payload)),
            ));
        }
        rings.push(ring);
    }
    let n_fresh = get_uv(buf, &mut pos)? as usize;
    let mut fresh = Vec::with_capacity(n_fresh);
    for _ in 0..n_fresh {
        let n = get_uv(buf, &mut pos)? as usize;
        let mut map: FxHashMap<Key, SeqNo> = FxHashMap::default();
        let (mut pk, mut ps) = (0u64, 0u64);
        for _ in 0..n {
            let k = get_delta(buf, &mut pos, &mut pk)?;
            let s = get_delta(buf, &mut pos, &mut ps)?;
            map.insert(k, s);
        }
        fresh.push(map);
    }
    if pos != buf.len() {
        return Err(JiscError::Internal(
            "checkpoint frame: trailing garbage".into(),
        ));
    }
    Ok(BaseStateSnapshot {
        rings,
        fresh,
        next_seq,
        last_ts,
        last_transition_seq,
    })
}

/// A unique scratch directory under the system temp dir, removed on drop.
/// Test/bench helper — production callers name their own directories.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `jisc-spill-<pid>-<n>` under the system temp dir.
    pub fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "jisc-{tag}-{}-{}",
            std::process::id(),
            next_instance()
        ));
        fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bt(stream: u16, seq: u64, key: Key) -> Tuple {
        Tuple::base(BaseTuple::new(StreamId(stream), seq, key, seq * 3))
    }

    fn tier(dir: &Path) -> ColdTier {
        ColdTier::new(SpillConfig::new(1024, dir)).unwrap()
    }

    #[test]
    fn frame_round_trips_bases_and_joined_trees() {
        let j = Tuple::joined(7, bt(0, 1, 7), Tuple::joined(7, bt(1, 2, 7), bt(2, 9, 7)));
        let entries = vec![(7u64, bt(0, 1, 7)), (7, j.clone()), (8, bt(1, 5, 8))];
        let payload = encode_entries(&entries);
        let back = decode_entries(&payload).unwrap();
        assert_eq!(back.len(), 3);
        for ((k0, t0), (k1, t1)) in entries.iter().zip(&back) {
            assert_eq!(k0, k1);
            assert_eq!(t0.lineage(), t1.lineage());
            assert_eq!(t0.key(), t1.key());
            assert_eq!(t0.min_seq(), t1.min_seq());
            assert_eq!(t0.max_seq(), t1.max_seq());
        }
        // Shared bases deduplicate: the joined tree references the same
        // base rows the standalone entries carry.
        assert!(payload.len() < 120, "columnar payload stays compact");
    }

    #[test]
    fn spill_fault_round_trip_preserves_per_key_order() {
        let dir = ScratchDir::new("tier");
        let mut m = Metrics::new();
        let mut t = tier(dir.path());
        let batch: Vec<(Key, Tuple)> = (0..10u64).map(|s| (s % 3, bt(0, s, s % 3))).collect();
        t.spill_batch(&batch, &mut m);
        assert_eq!(t.entries(), 10);
        assert!(t.contains(0) && t.contains(1) && t.contains(2));
        assert_eq!(t.count(0), 4);

        let got = t.fault_keys(&[0, 2, 99], &mut m);
        let by_key: FxHashMap<Key, Vec<u64>> = got
            .iter()
            .map(|(k, ts)| (*k, ts.iter().map(|t| t.max_seq()).collect()))
            .collect();
        assert_eq!(by_key[&0], vec![0, 3, 6, 9], "oldest-first per key");
        assert_eq!(by_key[&2], vec![2, 5, 8]);
        assert!(!by_key.contains_key(&99));
        assert_eq!(t.entries(), 3, "key 1 stays cold");
        assert_eq!(m.spill_faults, 7);
        assert!(m.spill_fault_reads >= 1);
        assert!(t.fault_latency().count() >= 1);
    }

    #[test]
    fn fully_dead_segment_is_dropped_and_file_unlinked() {
        let dir = ScratchDir::new("drop");
        let mut m = Metrics::new();
        let mut t = tier(dir.path());
        t.spill_batch(&[(1, bt(0, 1, 1)), (2, bt(0, 2, 2))], &mut m);
        let seg_path = {
            let meta = t.segs.values().next().unwrap();
            meta.file.path.clone()
        };
        assert!(seg_path.exists());
        assert_eq!(t.remove_base(1, StreamId(0), 1, &mut m), 1);
        assert_eq!(t.remove_key(2, &mut m), 1);
        assert!(t.is_empty());
        assert_eq!(t.stats().segments, 0);
        assert_eq!(m.spill_segments_dropped, 1);
        assert!(!seg_path.exists(), "O(1) drop unlinks the file");
    }

    #[test]
    fn compaction_rewrites_underoccupied_segments_and_keeps_order() {
        let dir = ScratchDir::new("compact");
        let mut m = Metrics::new();
        let mut t = ColdTier::new(SpillConfig {
            compact_live_frac: 0.6,
            ..SpillConfig::new(1024, dir.path())
        })
        .unwrap();
        // 8 entries, 2 keys; kill 5 of key 1's entries -> live frac 3/8.
        let batch: Vec<(Key, Tuple)> = (0..8u64)
            .map(|s| ((s % 2) + 1, bt(0, s, (s % 2) + 1)))
            .collect();
        t.spill_batch(&batch, &mut m);
        for seq in [1u64, 3, 5, 7] {
            assert_eq!(t.remove_base(2, StreamId(0), seq, &mut m), 1);
        }
        assert_eq!(t.remove_base(1, StreamId(0), 0, &mut m), 1);
        assert!(m.spill_compactions >= 1, "live fraction crossed threshold");
        // Key 1's survivors fault back in order from the rewritten segment.
        let got = t.fault_keys(&[1], &mut m);
        let seqs: Vec<u64> = got[0].1.iter().map(|t| t.max_seq()).collect();
        assert_eq!(seqs, vec![2, 4, 6]);
        assert!(t.is_empty());
    }

    #[test]
    fn clones_share_sealed_files_and_diverge_independently() {
        let dir = ScratchDir::new("clone");
        let mut m = Metrics::new();
        let mut a = tier(dir.path());
        a.spill_batch(&[(1, bt(0, 1, 1)), (2, bt(0, 2, 2))], &mut m);
        let mut b = a.clone();
        // A faults key 1; B still sees it cold and faults independently.
        let got_a = a.fault_keys(&[1], &mut m);
        assert_eq!(got_a[0].1.len(), 1);
        assert!(b.contains(1));
        let got_b = b.fault_keys(&[1, 2], &mut m);
        assert_eq!(got_b.len(), 2);
        assert!(b.is_empty());
        assert!(a.contains(2));
        let got_a2 = a.fault_keys(&[2], &mut m);
        assert_eq!(got_a2[0].1[0].max_seq(), 2);
    }

    #[test]
    fn durable_checkpoints_survive_reopen_and_verify_chain() {
        let dir = ScratchDir::new("ckpt");
        let snap = BaseStateSnapshot {
            rings: vec![
                vec![
                    (5, Arc::new(BaseTuple::new(StreamId(0), 1, 42, 7))),
                    (6, Arc::new(BaseTuple::new(StreamId(0), 3, 43, 8))),
                ],
                vec![(6, Arc::new(BaseTuple::new(StreamId(1), 2, 42, 9)))],
            ],
            fresh: vec![
                [(42u64, 1u64), (43, 3)].into_iter().collect(),
                [(42u64, 2u64)].into_iter().collect(),
            ],
            next_seq: 4,
            last_ts: 6,
            last_transition_seq: 0,
        };
        let mut store = DurableCheckpointStore::open(dir.path()).unwrap();
        store.persist(&snap, 4).unwrap();
        let mut snap2 = snap.clone();
        snap2.next_seq = 9;
        store.persist(&snap2, 9).unwrap();

        // "Process restart": recover from the directory alone.
        let (tag, got) = DurableCheckpointStore::recover_latest(dir.path())
            .unwrap()
            .expect("checkpoint present");
        assert_eq!(tag, 9);
        assert_eq!(got.next_seq, 9);
        assert_eq!(got.last_ts, 6);
        assert_eq!(got.window_tuples(), 3);
        assert_eq!(got.rings[0][1].1.key, 43);
        assert_eq!(got.fresh[1][&42], 2);

        // Reopening appends to the verified chain.
        let mut reopened = DurableCheckpointStore::open(dir.path()).unwrap();
        let id = reopened.persist(&snap, 4).unwrap();
        assert_eq!(id, 2);
        reopened.prune(1).unwrap();
        let (tag, _) = DurableCheckpointStore::recover_latest(dir.path())
            .unwrap()
            .expect("pruned store keeps newest");
        assert_eq!(tag, 4);
    }

    #[test]
    fn flipped_byte_in_checkpoint_or_manifest_is_rejected() {
        let dir = ScratchDir::new("corrupt");
        let snap = BaseStateSnapshot {
            rings: vec![vec![(1, Arc::new(BaseTuple::new(StreamId(0), 1, 5, 0)))]],
            fresh: vec![[(5u64, 1u64)].into_iter().collect()],
            next_seq: 2,
            last_ts: 1,
            last_transition_seq: 0,
        };
        let mut store = DurableCheckpointStore::open(dir.path()).unwrap();
        store.persist(&snap, 2).unwrap();

        // Flip one byte mid-file: recovery must fail, not return junk.
        let ckpt = DurableCheckpointStore::ckpt_path(dir.path(), 0);
        let mut bytes = fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&ckpt, &bytes).unwrap();
        assert!(DurableCheckpointStore::recover_latest(dir.path()).is_err());
        bytes[mid] ^= 0x40;
        fs::write(&ckpt, &bytes).unwrap();
        assert!(DurableCheckpointStore::recover_latest(dir.path()).is_ok());

        // Flip one byte in the manifest: the chain breaks.
        let mpath = DurableCheckpointStore::manifest_path(dir.path());
        let mut mbytes = fs::read(&mpath).unwrap();
        let at = mbytes.len() / 3;
        mbytes[at] = if mbytes[at] == b'7' { b'8' } else { b'7' };
        fs::write(&mpath, &mbytes).unwrap();
        assert!(DurableCheckpointStore::open(dir.path()).is_err());
        assert!(DurableCheckpointStore::recover_latest(dir.path()).is_err());
    }

    #[test]
    fn corrupt_frame_length_is_an_error_not_a_panic() {
        let dir = ScratchDir::new("frame-len");
        let mut max_len = Vec::new();
        put_uv(&mut max_len, u64::MAX);
        assert_eq!(max_len.len(), 10);

        // A cold segment whose only frame claims u64::MAX payload bytes.
        let seg = dir.path().join("seg.jspl");
        let mut bytes = b"JSPL2\n".to_vec();
        bytes.extend_from_slice(&max_len);
        bytes.extend_from_slice(&[0; 16]);
        fs::write(&seg, &bytes).unwrap();
        assert!(read_segment_frames(&seg).is_err());

        // The same length spliced into a durable checkpoint, where no
        // checksum covers the length prefix.
        let snap = BaseStateSnapshot {
            rings: vec![vec![(1, Arc::new(BaseTuple::new(StreamId(0), 1, 5, 0)))]],
            fresh: vec![[(5u64, 1u64)].into_iter().collect()],
            next_seq: 2,
            last_ts: 1,
            last_transition_seq: 0,
        };
        let ckpt_dir = dir.path().join("ckpt");
        DurableCheckpointStore::open(&ckpt_dir)
            .unwrap()
            .persist(&snap, 2)
            .unwrap();
        let ckpt = DurableCheckpointStore::ckpt_path(&ckpt_dir, 0);
        let good = fs::read(&ckpt).unwrap();
        let mut pos = MAGIC.len();
        get_uv(&good, &mut pos).unwrap();
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&max_len);
        bad.extend_from_slice(&good[pos..]);
        fs::write(&ckpt, &bad).unwrap();
        assert!(DurableCheckpointStore::recover_latest(&ckpt_dir).is_err());
    }
}
