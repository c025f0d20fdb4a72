//! Columnar (structure-of-arrays) tuple batches and selection bitmaps.
//!
//! A [`ColumnarBatch`] — the data plane's one batch type — stores a run of
//! tuples as dense parallel columns (stream, key, payload, timestamp,
//! sequence number), which is what the vectorized kernels in
//! [`crate::kernels`] operate on: whole-column key hashing, predicate
//! evaluation into [`SelBitmap`]s, and shard routing all become tight loops
//! over contiguous `u64`s that the compiler unrolls and auto-vectorizes.
//!
//! Conventions:
//!
//! * **Selection bitmaps** — a [`SelBitmap`] marks a subset of a column's
//!   rows, one bit per row, little-endian within each 64-bit word (bit `i`
//!   of word `w` is row `w * 64 + i`). Bits past the logical length are
//!   always zero, so whole-word operations (`count_ones`, word-skipping
//!   iteration) need no tail masking.
//! * **Validity masks** — the `ts`/`seq` columns are dense `u64`s paired
//!   with a validity bitmap; an unset bit means "consumer assigns" (the
//!   serial default clock), a set bit pins the value (sharded routing).
//!   This replaces the row model's `Option<u64>` per field without the
//!   per-element discriminant.
//! * **Arena-scoped payloads** — variable-length payload bytes live in a
//!   per-batch bump [`PayloadArena`]; the payload column then holds opaque
//!   handles. The arena is dropped (or recycled via
//!   [`ColumnarBatch::clear`]) wholesale with its batch — nothing in the
//!   engine retains payload bytes past the batch, so there is no per-tuple
//!   ownership bookkeeping (no `Arc`, no per-payload free).

use crate::event::{BatchFull, BatchedTuple};
use crate::tuple::{Key, SeqNo, StreamId};

/// A selection bitmap over the rows of a columnar batch.
///
/// Bit `i` set means row `i` is selected. Kernels produce these instead of
/// materializing matching rows, so downstream stages pay only for rows they
/// actually visit (word-skipping iteration) and the intermediate costs
/// O(rows/64) words instead of O(rows) clones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelBitmap {
    /// An empty bitmap (length 0).
    pub fn new() -> Self {
        SelBitmap::default()
    }

    /// An all-zero bitmap over `len` rows.
    pub fn zeroed(len: usize) -> Self {
        SelBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reset to length 0, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        self.words[w] |= (bit as u64) << b;
        self.len += 1;
    }

    /// Append up to 64 bits at once from the low `nbits` of `word` — the
    /// kernel building block. Requires the current length to be a multiple
    /// of 64 (kernels emit whole words in order) and `nbits` in `1..=64`.
    pub fn push_word(&mut self, word: u64, nbits: usize) {
        debug_assert!(
            self.len.is_multiple_of(64),
            "push_word appends word-aligned runs"
        );
        debug_assert!((1..=64).contains(&nbits));
        let mask = if nbits == 64 {
            u64::MAX
        } else {
            (1u64 << nbits) - 1
        };
        self.words.push(word & mask);
        self.len += nbits;
    }

    /// Set bit `i` (must be within the current length).
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range ({} rows)", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i` (false past the current length).
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if any bit is set (whole zero words are skipped).
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// The backing words (trailing bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Visit each set bit index in ascending order. Zero words are skipped
    /// with one load each, so sparse selections cost O(words + hits).
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f(wi * 64 + b);
                bits &= bits - 1;
            }
        }
    }
}

/// A bump arena for variable-length payload bytes, scoped to one batch.
///
/// Handles pack `(offset, len)` into a `u64` that rides in the payload
/// column; the bytes live contiguously here and are freed all at once when
/// the batch is cleared or dropped — the arena-scoped lifetime that lets
/// the data plane skip per-payload ownership entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PayloadArena {
    bytes: Vec<u8>,
}

/// Offset bits of a blob handle (low 24 bits carry the length).
const BLOB_LEN_BITS: u32 = 24;
const BLOB_LEN_MASK: u64 = (1 << BLOB_LEN_BITS) - 1;

impl PayloadArena {
    /// An empty arena.
    pub fn new() -> Self {
        PayloadArena::default()
    }

    /// Total bytes stored.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Copy `data` into the arena, returning its handle. Blobs are capped
    /// at 16 MiB each and the arena at 2^40 bytes (handle packing).
    pub fn alloc(&mut self, data: &[u8]) -> u64 {
        assert!((data.len() as u64) <= BLOB_LEN_MASK, "blob too large");
        let offset = self.bytes.len() as u64;
        assert!(offset < (1 << 40), "arena full");
        self.bytes.extend_from_slice(data);
        (offset << BLOB_LEN_BITS) | data.len() as u64
    }

    /// The bytes a handle refers to.
    pub fn get(&self, handle: u64) -> &[u8] {
        let offset = (handle >> BLOB_LEN_BITS) as usize;
        let len = (handle & BLOB_LEN_MASK) as usize;
        &self.bytes[offset..offset + len]
    }

    /// Drop every blob, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }
}

/// A capacity-bounded run of tuples in columnar (SoA) layout — the
/// vectorized data plane's unit of work, carried by
/// [`Event::Columnar`](crate::Event::Columnar).
///
/// Row `i` of the batch is `(streams[i], keys[i], payloads[i])` plus an
/// optional pinned timestamp / sequence number (see the module docs for the
/// validity-mask convention); [`ColumnarBatch::row`] reconstructs any row
/// in the row model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarBatch {
    streams: Vec<StreamId>,
    keys: Vec<Key>,
    payloads: Vec<u64>,
    ts: Vec<u64>,
    seqs: Vec<SeqNo>,
    ts_mask: SelBitmap,
    seq_mask: SelBitmap,
    arena: PayloadArena,
    capacity: usize,
    /// Telemetry stamp: nanoseconds (since the run's shared epoch) at
    /// which the producer staged this batch, if stamped. Rides the
    /// batch through queues and replay so the consumer can record
    /// ingest-to-emit latency once per batch — recovery replays keep
    /// the original stamp, making recorded latency recovery-inclusive.
    origin_ns: Option<u64>,
    /// Telemetry stamp: producer-assigned workload phase (e.g. steady
    /// vs burst); consumers keep one latency histogram per phase.
    phase: u32,
}

impl ColumnarBatch {
    /// An empty batch holding at most `capacity` rows (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ColumnarBatch {
            streams: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
            ts: Vec::with_capacity(capacity),
            seqs: Vec::with_capacity(capacity),
            ts_mask: SelBitmap::new(),
            seq_mask: SelBitmap::new(),
            arena: PayloadArena::new(),
            capacity,
            origin_ns: None,
            phase: 0,
        }
    }

    /// Stamps the batch with its staging time (`origin_ns`,
    /// nanoseconds since the run's telemetry epoch) and workload
    /// `phase`. Set by the sharded router at flush; read once by the
    /// consuming worker via [`ColumnarBatch::origin_ns`].
    pub fn stamp_telemetry(&mut self, origin_ns: u64, phase: u32) {
        self.origin_ns = Some(origin_ns);
        self.phase = phase;
    }

    /// The producer's staging time in nanoseconds since the run's
    /// telemetry epoch, or `None` if the batch was never stamped.
    pub fn origin_ns(&self) -> Option<u64> {
        self.origin_ns
    }

    /// The producer-assigned workload phase (0 when unstamped).
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// True if the batch is at capacity.
    pub fn is_full(&self) -> bool {
        self.keys.len() >= self.capacity
    }

    /// Empty the batch (and its arena), keeping every allocation — the
    /// producer-side scratch-reuse discipline.
    pub fn clear(&mut self) {
        self.streams.clear();
        self.keys.clear();
        self.payloads.clear();
        self.ts.clear();
        self.seqs.clear();
        self.ts_mask.clear();
        self.seq_mask.clear();
        self.arena.clear();
        self.origin_ns = None;
        self.phase = 0;
    }

    /// Append a row with consumer-assigned timestamp and sequence number.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<(), BatchFull> {
        self.push_stamped(stream, key, payload, None, None)
    }

    /// Append a row, optionally pinning its timestamp and/or sequence
    /// number (the sharded router stamps both so every shard agrees on
    /// global arrival order).
    pub fn push_stamped(
        &mut self,
        stream: StreamId,
        key: Key,
        payload: u64,
        ts: Option<u64>,
        seq: Option<SeqNo>,
    ) -> Result<(), BatchFull> {
        if self.is_full() {
            return Err(BatchFull);
        }
        self.streams.push(stream);
        self.keys.push(key);
        self.payloads.push(payload);
        self.ts.push(ts.unwrap_or(0));
        self.seqs.push(seq.unwrap_or(0));
        self.ts_mask.push(ts.is_some());
        self.seq_mask.push(seq.is_some());
        Ok(())
    }

    /// Append a row whose payload is a byte blob: the bytes go into the
    /// batch's arena and the payload column holds the handle (readable via
    /// [`ColumnarBatch::blob`] until the batch is cleared).
    pub fn push_blob(&mut self, stream: StreamId, key: Key, data: &[u8]) -> Result<(), BatchFull> {
        if self.is_full() {
            return Err(BatchFull);
        }
        let handle = self.arena.alloc(data);
        self.push_stamped(stream, key, handle, None, None)
    }

    /// The bytes behind a blob payload handle.
    pub fn blob(&self, handle: u64) -> &[u8] {
        self.arena.get(handle)
    }

    /// The key column.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The stream column.
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// The payload column.
    pub fn payloads(&self) -> &[u64] {
        &self.payloads
    }

    /// Row `i`'s pinned timestamp, or `None` for the consumer's clock.
    pub fn ts_at(&self, i: usize) -> Option<u64> {
        self.ts_mask.get(i).then(|| self.ts[i])
    }

    /// Row `i`'s pinned sequence number, or `None` for the next one.
    pub fn seq_at(&self, i: usize) -> Option<SeqNo> {
        self.seq_mask.get(i).then(|| self.seqs[i])
    }

    /// The payload arena.
    pub fn arena(&self) -> &PayloadArena {
        &self.arena
    }

    /// Reconstruct row `i` in the row model (fallback paths and tests; the
    /// hot paths read columns directly).
    pub fn row(&self, i: usize) -> BatchedTuple {
        BatchedTuple {
            stream: self.streams[i],
            key: self.keys[i],
            payload: self.payloads[i],
            ts: self.ts_at(i),
            seq: self.seq_at(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_set_get_count() {
        let mut bm = SelBitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        assert!(bm.get(0));
        assert!(!bm.get(1));
        assert!(bm.get(129));
        assert!(!bm.get(999), "out of range reads false");
        assert_eq!(bm.count(), (0..130).filter(|i| i % 3 == 0).count());
        let mut seen = Vec::new();
        bm.for_each_set(|i| seen.push(i));
        assert_eq!(seen, (0..130).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn bitmap_zeroed_and_set() {
        let mut bm = SelBitmap::zeroed(70);
        assert!(!bm.any());
        bm.set(69);
        assert!(bm.any());
        assert_eq!(bm.count(), 1);
        bm.clear();
        assert!(bm.is_empty());
    }

    #[test]
    fn bitmap_push_word_masks_tail() {
        let mut bm = SelBitmap::new();
        bm.push_word(u64::MAX, 64);
        bm.push_word(u64::MAX, 3);
        assert_eq!(bm.len(), 67);
        assert_eq!(bm.count(), 67, "bits past nbits are masked off");
        assert_eq!(bm.words(), &[u64::MAX, 0b111]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_set_out_of_range_panics() {
        let mut bm = SelBitmap::zeroed(3);
        bm.set(3);
    }

    #[test]
    fn arena_roundtrip() {
        let mut a = PayloadArena::new();
        let h1 = a.alloc(b"hello");
        let h2 = a.alloc(b"");
        let h3 = a.alloc(&[7u8; 100]);
        assert_eq!(a.get(h1), b"hello");
        assert_eq!(a.get(h2), b"");
        assert_eq!(a.get(h3), &[7u8; 100]);
        assert_eq!(a.len(), 105);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn columnar_push_and_read_back() {
        let mut b = ColumnarBatch::new(3);
        b.push(StreamId(0), 10, 100).unwrap();
        b.push_stamped(StreamId(1), 11, 101, Some(5), Some(42))
            .unwrap();
        b.push(StreamId(2), 12, 102).unwrap();
        assert!(b.is_full());
        assert_eq!(b.push(StreamId(0), 9, 9), Err(BatchFull));
        assert_eq!(b.keys(), &[10, 11, 12]);
        assert_eq!(b.ts_at(0), None);
        assert_eq!(b.ts_at(1), Some(5));
        assert_eq!(b.seq_at(1), Some(42));
        let r = b.row(1);
        assert_eq!(
            (r.stream, r.key, r.payload, r.ts, r.seq),
            (StreamId(1), 11, 101, Some(5), Some(42))
        );
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn columnar_blob_payloads() {
        let mut b = ColumnarBatch::new(4);
        b.push_blob(StreamId(0), 1, b"reading-42.5C").unwrap();
        b.push_blob(StreamId(1), 2, b"ok").unwrap();
        assert_eq!(b.blob(b.payloads()[0]), b"reading-42.5C");
        assert_eq!(b.blob(b.payloads()[1]), b"ok");
    }
}
