//! ARIES-style write-ahead log.
//!
//! Physical REDO/UNDO records at tuple granularity plus logical index
//! records, with per-transaction backward chains, compensation records
//! (CLRs) and fuzzy checkpoints. The log device itself is not simulated:
//! Shore-MT in the paper's testbed logs to a separate device, so log I/O
//! does not compete with the flash under test — only its *space* matters,
//! because eager log-space reclamation forces dirty-page flushes (§8.4,
//! "Why does the DBMS write even with 90% buffer size?"). That space is
//! the model of [`LogPayload::size_bytes`] (32 bytes per record plus its
//! images), summed in [`Wal::used_bytes`]; it drives reclamation and
//! checkpoint timing and does not depend on how the host stores the log.
//!
//! # Host storage
//!
//! The host keeps the log as an append-only byte log. A record is encoded
//! as its backward-chain pointer, a one-byte tag, the payload's fixed
//! fields and its length-prefixed images. Every integer is a LEB128
//! varint, and LSN fields are stored as distances back from the record's
//! own LSN, so a TATP update costs about a dozen bytes beyond its images
//! (the space model charges 32).
//! [`Wal::append`] encodes straight into the current 1 MiB segment. A
//! record never spans two segments: one that does not fit starts the next
//! segment, and one larger than a segment gets a segment of its own.
//! Beside each segment sits its part of the LSN index: per record, the
//! byte offset and the simulated log position. A lookup is a binary search
//! over segments plus an array index; [`Wal::get`] and [`Wal::iter_from`]
//! decode to owned [`LogRecord`]s, and [`Wal::prev`] reads only the chain
//! pointer. [`Wal::truncate_to`] and [`Wal::lose_unflushed`] free whole
//! segments without visiting the records in them, and the simulated
//! positions give the space they released. The byte range of the forced
//! prefix is everything up to the index entry of the record after
//! [`Wal::flushed`].
//!
//! LSNs stay record numbers. On the `tatp-cached` benchmark window the
//! log retains about 917k records (64 MiB of modelled log space) before
//! each reclaim. They occupy about 50 MiB of host memory: 42 MiB of
//! segments and 7 MiB of index. One owned record per LSN cost about
//! 132 MiB: a 96 MiB record vector plus separately allocated images.

use std::collections::VecDeque;

use crate::db::PageId;
use crate::txn::TxId;
use ipa_core::SlotId;

/// Log sequence number. `Lsn(0)` is the null LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN (no record).
    pub const NULL: Lsn = Lsn(0);

    /// Whether this is a real record reference.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// The body of one log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogPayload {
    /// Transaction start.
    Begin {
        /// Transaction id.
        tx: TxId,
    },
    /// Tuple update (physical before/after images).
    Update {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Before image.
        before: Vec<u8>,
        /// After image.
        after: Vec<u8>,
    },
    /// Tuple insert.
    Insert {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Slot the tuple landed in.
        slot: SlotId,
        /// Tuple image.
        tuple: Vec<u8>,
    },
    /// Tuple delete (mark-delete; before image kept for undo).
    Delete {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Before image.
        before: Vec<u8>,
    },
    /// Logical index insert (redo re-inserts if absent).
    IndexInsert {
        /// Transaction id.
        tx: TxId,
        /// Index identifier (catalog-scoped).
        index: u32,
        /// Key.
        key: u64,
        /// Value (encoded RID).
        value: u64,
    },
    /// Logical index delete.
    IndexDelete {
        /// Transaction id.
        tx: TxId,
        /// Index identifier.
        index: u32,
        /// Key.
        key: u64,
        /// Value (encoded RID).
        value: u64,
    },
    /// Physical redo-only page write (physiological logging for B+-tree
    /// node changes: physical REDO here, logical UNDO via
    /// [`LogPayload::IndexInsert`]/[`LogPayload::IndexDelete`]). Never
    /// undone — rollback skips it.
    PageWrite {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Absolute byte offset of the written range.
        offset: u32,
        /// Bytes written.
        after: Vec<u8>,
    },
    /// Redo-only root-pointer change of an index (tree growth). Never
    /// undone: a one-level-deeper tree remains correct after logical undo.
    RootChange {
        /// Transaction id.
        tx: TxId,
        /// Index identifier.
        index: u32,
        /// New root page.
        new_root: PageId,
    },
    /// Undo of a delete: the tuple reappears in its original slot (the
    /// slot offset survives mark-delete). Appears only inside CLR actions.
    Undelete {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Restored tuple image.
        tuple: Vec<u8>,
    },
    /// Compensation record: `undone` has been rolled back by applying
    /// `action`; on restart-undo continue at `undo_next`. Carrying the
    /// compensation's redo action makes CLRs redo-able (ARIES).
    Clr {
        /// Transaction id.
        tx: TxId,
        /// LSN of the record this CLR compensates.
        undone: Lsn,
        /// Next record to undo for this transaction.
        undo_next: Lsn,
        /// The physical/logical effect of the compensation.
        action: Box<LogPayload>,
    },
    /// Transaction commit.
    Commit {
        /// Transaction id.
        tx: TxId,
    },
    /// Transaction abort completed (all changes rolled back).
    Abort {
        /// Transaction id.
        tx: TxId,
    },
    /// Fuzzy checkpoint begin.
    BeginCheckpoint,
    /// Fuzzy checkpoint end: active transactions and the dirty page table.
    EndCheckpoint {
        /// Active transactions with their last LSN.
        active: Vec<(TxId, Lsn)>,
        /// Dirty pages with their recovery LSN.
        dirty: Vec<(PageId, Lsn)>,
    },
}

impl LogPayload {
    /// Transaction this record belongs to, if any.
    pub fn tx(&self) -> Option<TxId> {
        match self {
            LogPayload::Begin { tx }
            | LogPayload::Update { tx, .. }
            | LogPayload::Insert { tx, .. }
            | LogPayload::Delete { tx, .. }
            | LogPayload::Undelete { tx, .. }
            | LogPayload::PageWrite { tx, .. }
            | LogPayload::RootChange { tx, .. }
            | LogPayload::IndexInsert { tx, .. }
            | LogPayload::IndexDelete { tx, .. }
            | LogPayload::Clr { tx, .. }
            | LogPayload::Commit { tx }
            | LogPayload::Abort { tx } => Some(*tx),
            LogPayload::BeginCheckpoint | LogPayload::EndCheckpoint { .. } => None,
        }
    }

    /// Approximate on-disk size of the record, used for log-space
    /// accounting.
    pub fn size_bytes(&self) -> usize {
        let body = match self {
            LogPayload::Update { before, after, .. } => before.len() + after.len(),
            LogPayload::Insert { tuple, .. } | LogPayload::Undelete { tuple, .. } => tuple.len(),
            LogPayload::Delete { before, .. } => before.len(),
            LogPayload::PageWrite { after, .. } => after.len(),
            LogPayload::Clr { action, .. } => action.size_bytes(),
            LogPayload::EndCheckpoint { active, dirty } => active.len() * 16 + dirty.len() * 24,
            _ => 0,
        };
        32 + body
    }
}

/// One log record: LSN, backward same-transaction chain, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// This record's LSN.
    pub lsn: Lsn,
    /// Previous record of the same transaction (null for the first).
    pub prev: Lsn,
    /// Body.
    pub payload: LogPayload,
}

/// Capacity of one log segment. Unit tests use 4 KiB segments so that
/// small logs already cross many segment boundaries.
const SEGMENT_BYTES: usize = if cfg!(test) { 4 << 10 } else { 1 << 20 };

/// Where a record lives inside its segment.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Byte offset of the record in [`Segment::bytes`].
    offset: u32,
    /// Simulated log position of the record, relative to
    /// [`Segment::sim_base`].
    sim: u32,
}

/// A run of consecutive records, byte-encoded back to back.
#[derive(Debug)]
struct Segment {
    /// LSN of the segment's first record.
    first: u64,
    /// Simulated log position (Σ [`LogPayload::size_bytes`] of every
    /// earlier record) at the segment's first record.
    sim_base: u64,
    bytes: Vec<u8>,
    /// One entry per record, LSN `first + i` at `index[i]`.
    index: Vec<IndexEntry>,
}

impl Segment {
    fn new(first: u64, sim_base: u64, capacity: usize) -> Self {
        Segment { first, sim_base, bytes: Vec::with_capacity(capacity), index: Vec::new() }
    }

    fn host_bytes(&self) -> usize {
        self.bytes.capacity() + self.index.capacity() * std::mem::size_of::<IndexEntry>()
    }
}

/// The write-ahead log: an append-only record store with space accounting,
/// group flush and truncation.
#[derive(Debug)]
pub struct Wal {
    /// Full segments, oldest first. All but the first hold only retained
    /// records; the first may start below [`Wal::tail`].
    sealed: VecDeque<Segment>,
    /// The segment appends go to; it holds the records `head.first..next`.
    head: Segment,
    /// LSN of the first retained record (everything below is truncated).
    tail: Lsn,
    next: u64,
    flushed: Lsn,
    /// Simulated log position after the newest record.
    sim_end: u64,
    used_bytes: usize,
    capacity_bytes: usize,
    /// Begin/End LSN pair of the most recent *complete* checkpoint, while
    /// both records are retained and durable-consistent. Fuzzy checkpoints
    /// interleave with regular traffic, so the two LSNs are in general not
    /// adjacent — restart must scan from the Begin, and truncation must
    /// keep the Begin, not `end - 1`.
    last_checkpoint: Option<(Lsn, Lsn)>,
    /// Begin LSN of a checkpoint whose End has not been appended yet.
    pending_begin: Option<Lsn>,
}

impl Wal {
    /// A log with the given capacity budget.
    pub fn new(capacity_bytes: usize) -> Self {
        Wal {
            sealed: VecDeque::new(),
            head: Segment::new(1, 0, SEGMENT_BYTES),
            tail: Lsn(1),
            next: 1,
            flushed: Lsn::NULL,
            sim_end: 0,
            used_bytes: 0,
            capacity_bytes,
            last_checkpoint: None,
            pending_begin: None,
        }
    }

    /// Append a record, returning its LSN.
    pub fn append(&mut self, prev: Lsn, payload: LogPayload) -> Lsn {
        let lsn = Lsn(self.next);
        self.next += 1;
        let size = payload.size_bytes();
        // Upper bound on the encoded length: a payload's tag, varints (at
        // most 10 bytes each) and images fit in twice its modelled size,
        // and the chain pointer fits in the slack.
        let bound = 2 * size + 64;
        if self.head.bytes.len() + bound > self.head.bytes.capacity() {
            let fresh = Segment::new(lsn.0, self.sim_end, bound.max(SEGMENT_BYTES));
            let mut full = std::mem::replace(&mut self.head, fresh);
            if !full.index.is_empty() {
                full.index.shrink_to_fit();
                self.sealed.push_back(full);
            }
        }
        let seg = &mut self.head;
        let offset = seg.bytes.len();
        seg.index
            .push(IndexEntry { offset: offset as u32, sim: (self.sim_end - seg.sim_base) as u32 });
        put_lsn(&mut seg.bytes, lsn.0, prev);
        encode(&mut seg.bytes, lsn.0, &payload);
        debug_assert!(seg.bytes.len() - offset <= bound, "encoding exceeded its bound");
        self.sim_end += size as u64;
        self.used_bytes += size;
        match payload {
            LogPayload::BeginCheckpoint => self.pending_begin = Some(lsn),
            LogPayload::EndCheckpoint { .. } => {
                // A lone End (no Begin retained) forms a degenerate pair.
                let begin = self.pending_begin.take().unwrap_or(lsn);
                self.last_checkpoint = Some((begin, lsn));
            }
            _ => {}
        }
        lsn
    }

    /// Durably flush the log up to `lsn` (the WAL rule: call before writing
    /// a page whose PageLSN is `lsn`). Returns whether the durable horizon
    /// actually advanced — a *real* log force, as opposed to a no-op
    /// because everything up to `lsn` was already stable. Group commit
    /// counts real forces to report WAL-forces-per-transaction.
    pub fn flush_to(&mut self, lsn: Lsn) -> bool {
        if lsn > self.flushed {
            self.flushed = lsn;
            true
        } else {
            false
        }
    }

    /// Highest durably flushed LSN.
    pub fn flushed(&self) -> Lsn {
        self.flushed
    }

    /// Highest assigned LSN.
    pub fn head(&self) -> Lsn {
        Lsn(self.next - 1)
    }

    /// First retained LSN.
    pub fn tail(&self) -> Lsn {
        self.tail
    }

    /// Fraction of the capacity budget in use.
    pub fn used_fraction(&self) -> f64 {
        self.used_bytes as f64 / self.capacity_bytes as f64
    }

    /// Modelled log space of the retained records (the sum of their
    /// [`LogPayload::size_bytes`]).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Host memory the retained log occupies: segment buffers and the LSN
    /// index, by capacity. A diagnostic; nothing in the simulation reads it.
    pub fn resident_bytes(&self) -> usize {
        self.head.host_bytes()
            + self.sealed.iter().map(Segment::host_bytes).sum::<usize>()
            + self.sealed.capacity() * std::mem::size_of::<Segment>()
    }

    /// End LSN of the most recent completed checkpoint, if retained.
    pub fn last_checkpoint(&self) -> Option<Lsn> {
        self.last_checkpoint.map(|(_, end)| end)
    }

    /// Begin LSN of the most recent completed checkpoint, if retained.
    /// Restart analysis starts here; log reclamation must never truncate
    /// past it (the Begin and End are not adjacent under fuzzy
    /// checkpointing, so `end - 1` is wrong in both roles).
    pub fn last_checkpoint_begin(&self) -> Option<Lsn> {
        self.last_checkpoint.map(|(begin, _)| begin)
    }

    /// Begin/End LSN pair of the most recent completed checkpoint.
    pub fn last_checkpoint_pair(&self) -> Option<(Lsn, Lsn)> {
        self.last_checkpoint
    }

    /// The segment and index entry of a retained record.
    fn locate(&self, lsn: Lsn) -> Option<(&Segment, IndexEntry)> {
        if lsn.is_null() || lsn < self.tail || lsn.0 >= self.next {
            return None;
        }
        let seg = if lsn.0 >= self.head.first {
            &self.head
        } else {
            let after = self.sealed.partition_point(|s| s.first <= lsn.0);
            self.sealed.get(after.checked_sub(1)?)?
        };
        let entry = *seg.index.get((lsn.0 - seg.first) as usize)?;
        Some((seg, entry))
    }

    /// Simulated log position of `lsn`, a retained LSN or the next one.
    fn sim_position(&self, lsn: Lsn) -> u64 {
        self.locate(lsn).map_or(self.sim_end, |(seg, e)| seg.sim_base + u64::from(e.sim))
    }

    /// Fetch a record by LSN (`None` if truncated or not yet written).
    pub fn get(&self, lsn: Lsn) -> Option<LogRecord> {
        let (seg, e) = self.locate(lsn)?;
        let mut r = Reader(seg.bytes.get(e.offset as usize..)?);
        let prev = r.lsn(lsn.0)?;
        let payload = r.payload(lsn.0)?;
        Some(LogRecord { lsn, prev, payload })
    }

    /// The backward-chain pointer of a retained record, read from its
    /// header without decoding the payload.
    pub fn prev(&self, lsn: Lsn) -> Option<Lsn> {
        let (seg, e) = self.locate(lsn)?;
        Reader(seg.bytes.get(e.offset as usize..)?).lsn(lsn.0)
    }

    /// Iterate records with `lsn >= from` in LSN order.
    pub fn iter_from(&self, from: Lsn) -> impl Iterator<Item = LogRecord> + '_ {
        (from.max(self.tail).0..self.next).filter_map(move |lsn| self.get(Lsn(lsn)))
    }

    /// Drop all records below `lsn` (log-space reclamation after the dirty
    /// pages they cover have been flushed). `lsn` is at most one past the
    /// head. Segments wholly below the new tail are freed; the current
    /// segment is kept for appends.
    pub fn truncate_to(&mut self, lsn: Lsn) {
        if lsn <= self.tail {
            return;
        }
        let lsn = lsn.min(Lsn(self.next));
        self.used_bytes -= (self.sim_position(lsn) - self.sim_position(self.tail)) as usize;
        self.tail = lsn;
        // Free every sealed segment whose successor starts at or below the
        // new tail.
        while !self.sealed.is_empty()
            && self.sealed.get(1).map_or(self.head.first, |s| s.first) <= lsn.0
        {
            self.sealed.pop_front();
        }
        if lsn.0 == self.next {
            self.restart_head();
        }
        // A checkpoint is only usable while its Begin is retained:
        // truncating *to* the Begin keeps it, truncating past it loses the
        // records restart analysis would have to scan.
        if self.last_checkpoint.is_some_and(|(begin, _)| begin < lsn) {
            self.last_checkpoint = None;
        }
        if self.pending_begin.is_some_and(|b| b < lsn) {
            self.pending_begin = None;
        }
    }

    /// Simulate losing the unflushed log suffix in a crash: every record
    /// above [`Wal::flushed`] disappears.
    pub fn lose_unflushed(&mut self) {
        let cut = (self.flushed.0 + 1).max(self.tail.0).min(self.next);
        let kept_end = self.sim_position(Lsn(cut));
        self.used_bytes -= (self.sim_end - kept_end) as usize;
        self.sim_end = kept_end;
        self.next = cut;
        // Segments that start at or above the cut hold only lost records.
        while self.head.first >= cut {
            let Some(seg) = self.sealed.pop_back() else { break };
            self.head = seg;
        }
        if self.head.first >= cut || cut == self.tail.0 {
            // No retained record survives.
            self.sealed.clear();
            self.restart_head();
        } else {
            let keep = (cut - self.head.first) as usize;
            if let Some(e) = self.head.index.get(keep) {
                self.head.bytes.truncate(e.offset as usize);
            }
            self.head.index.truncate(keep);
        }
        // A checkpoint whose End never reached stable storage does not
        // exist after the crash; an unflushed pending Begin likewise.
        if self.last_checkpoint.is_some_and(|(_, end)| end > self.flushed) {
            self.last_checkpoint = None;
        }
        if self.pending_begin.is_some_and(|b| b > self.flushed) {
            self.pending_begin = None;
        }
    }

    /// Empty the current segment (every record in it is gone), keeping its
    /// buffer for the records from `next` on.
    fn restart_head(&mut self) {
        self.head.first = self.next;
        self.head.sim_base = self.sim_end;
        self.head.bytes.clear();
        self.head.index.clear();
    }
}

const BEGIN: u8 = 0;
const UPDATE: u8 = 1;
const INSERT: u8 = 2;
const DELETE: u8 = 3;
const INDEX_INSERT: u8 = 4;
const INDEX_DELETE: u8 = 5;
const PAGE_WRITE: u8 = 6;
const ROOT_CHANGE: u8 = 7;
const UNDELETE: u8 = 8;
const CLR: u8 = 9;
const COMMIT: u8 = 10;
const ABORT: u8 = 11;
const BEGIN_CHECKPOINT: u8 = 12;
const END_CHECKPOINT: u8 = 13;

/// Append `v` as a LEB128 varint.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append an LSN field of the record at `lsn` as its distance back from
/// it (wrapping, so any value round-trips; the null LSN costs as much as
/// `lsn` itself).
fn put_lsn(out: &mut Vec<u8>, lsn: u64, field: Lsn) {
    put(out, lsn.wrapping_sub(field.0));
}

fn put_page(out: &mut Vec<u8>, page: PageId) {
    put(out, page.region as u64);
    put(out, page.lba.0);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_tuple_op(out: &mut Vec<u8>, tag: u8, tx: TxId, page: PageId, slot: SlotId, image: &[u8]) {
    out.push(tag);
    put(out, tx.0);
    put_page(out, page);
    put(out, slot.0.into());
    put_bytes(out, image);
}

fn put_index_op(out: &mut Vec<u8>, tag: u8, tx: TxId, index: u32, key: u64, value: u64) {
    out.push(tag);
    put(out, tx.0);
    put(out, index.into());
    put(out, key);
    put(out, value);
}

/// Append the tag and fields of `payload`, a part of the record at `lsn`.
/// [`Reader::payload`] reads them back in the same order.
fn encode(out: &mut Vec<u8>, lsn: u64, payload: &LogPayload) {
    match payload {
        LogPayload::Begin { tx } => {
            out.push(BEGIN);
            put(out, tx.0);
        }
        LogPayload::Update { tx, page, slot, before, after } => {
            out.push(UPDATE);
            put(out, tx.0);
            put_page(out, *page);
            put(out, slot.0.into());
            put_bytes(out, before);
            put_bytes(out, after);
        }
        LogPayload::Insert { tx, page, slot, tuple } => {
            put_tuple_op(out, INSERT, *tx, *page, *slot, tuple);
        }
        LogPayload::Delete { tx, page, slot, before } => {
            put_tuple_op(out, DELETE, *tx, *page, *slot, before);
        }
        LogPayload::Undelete { tx, page, slot, tuple } => {
            put_tuple_op(out, UNDELETE, *tx, *page, *slot, tuple);
        }
        LogPayload::IndexInsert { tx, index, key, value } => {
            put_index_op(out, INDEX_INSERT, *tx, *index, *key, *value);
        }
        LogPayload::IndexDelete { tx, index, key, value } => {
            put_index_op(out, INDEX_DELETE, *tx, *index, *key, *value);
        }
        LogPayload::PageWrite { tx, page, offset, after } => {
            out.push(PAGE_WRITE);
            put(out, tx.0);
            put_page(out, *page);
            put(out, (*offset).into());
            put_bytes(out, after);
        }
        LogPayload::RootChange { tx, index, new_root } => {
            out.push(ROOT_CHANGE);
            put(out, tx.0);
            put(out, (*index).into());
            put_page(out, *new_root);
        }
        LogPayload::Clr { tx, undone, undo_next, action } => {
            out.push(CLR);
            put(out, tx.0);
            put_lsn(out, lsn, *undone);
            put_lsn(out, lsn, *undo_next);
            encode(out, lsn, action);
        }
        LogPayload::Commit { tx } => {
            out.push(COMMIT);
            put(out, tx.0);
        }
        LogPayload::Abort { tx } => {
            out.push(ABORT);
            put(out, tx.0);
        }
        LogPayload::BeginCheckpoint => out.push(BEGIN_CHECKPOINT),
        LogPayload::EndCheckpoint { active, dirty } => {
            out.push(END_CHECKPOINT);
            put(out, active.len() as u64);
            for (tx, last) in active {
                put(out, tx.0);
                put_lsn(out, lsn, *last);
            }
            put(out, dirty.len() as u64);
            for (page, rec_lsn) in dirty {
                put_page(out, *page);
                put_lsn(out, lsn, *rec_lsn);
            }
        }
    }
}

/// Decodes fields from the front of a byte slice; `None` on a truncated
/// or unknown encoding.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn narrow<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.u64()?).ok()
    }

    fn lsn(&mut self, lsn: u64) -> Option<Lsn> {
        Some(Lsn(lsn.wrapping_sub(self.u64()?)))
    }

    fn page(&mut self) -> Option<PageId> {
        let region = self.narrow()?;
        Some(PageId::new(region, self.u64()?))
    }

    fn slot(&mut self) -> Option<SlotId> {
        Some(SlotId(self.narrow()?))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.narrow()?;
        let (image, rest) = self.0.split_at_checked(len)?;
        self.0 = rest;
        Some(image.to_vec())
    }

    fn payload(&mut self, lsn: u64) -> Option<LogPayload> {
        let tag = self.byte()?;
        if tag == BEGIN_CHECKPOINT {
            return Some(LogPayload::BeginCheckpoint);
        }
        if tag == END_CHECKPOINT {
            let n: usize = self.narrow()?;
            let active = (0..n)
                .map(|_| Some((TxId(self.u64()?), self.lsn(lsn)?)))
                .collect::<Option<Vec<_>>>()?;
            let n: usize = self.narrow()?;
            let dirty =
                (0..n).map(|_| Some((self.page()?, self.lsn(lsn)?))).collect::<Option<Vec<_>>>()?;
            return Some(LogPayload::EndCheckpoint { active, dirty });
        }
        let tx = TxId(self.u64()?);
        Some(match tag {
            BEGIN => LogPayload::Begin { tx },
            UPDATE => LogPayload::Update {
                tx,
                page: self.page()?,
                slot: self.slot()?,
                before: self.bytes()?,
                after: self.bytes()?,
            },
            INSERT => LogPayload::Insert {
                tx,
                page: self.page()?,
                slot: self.slot()?,
                tuple: self.bytes()?,
            },
            DELETE => LogPayload::Delete {
                tx,
                page: self.page()?,
                slot: self.slot()?,
                before: self.bytes()?,
            },
            UNDELETE => LogPayload::Undelete {
                tx,
                page: self.page()?,
                slot: self.slot()?,
                tuple: self.bytes()?,
            },
            INDEX_INSERT => LogPayload::IndexInsert {
                tx,
                index: self.narrow()?,
                key: self.u64()?,
                value: self.u64()?,
            },
            INDEX_DELETE => LogPayload::IndexDelete {
                tx,
                index: self.narrow()?,
                key: self.u64()?,
                value: self.u64()?,
            },
            PAGE_WRITE => LogPayload::PageWrite {
                tx,
                page: self.page()?,
                offset: self.narrow()?,
                after: self.bytes()?,
            },
            ROOT_CHANGE => {
                LogPayload::RootChange { tx, index: self.narrow()?, new_root: self.page()? }
            }
            CLR => LogPayload::Clr {
                tx,
                undone: self.lsn(lsn)?,
                undo_next: self.lsn(lsn)?,
                action: Box::new(self.payload(lsn)?),
            },
            COMMIT => LogPayload::Commit { tx },
            ABORT => LogPayload::Abort { tx },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::rng::{forall, StdRng};

    fn upd(tx: u64) -> LogPayload {
        LogPayload::Update {
            tx: TxId(tx),
            page: PageId::new(0, 0),
            slot: SlotId(0),
            before: vec![1, 2],
            after: vec![3, 4],
        }
    }

    #[test]
    fn append_assigns_monotone_lsns() {
        let mut wal = Wal::new(1 << 20);
        let a = wal.append(Lsn::NULL, LogPayload::Begin { tx: TxId(1) });
        let b = wal.append(a, upd(1));
        assert!(b > a);
        assert_eq!(wal.head(), b);
        assert_eq!(wal.get(b).unwrap().prev, a);
        assert_eq!(wal.prev(b), Some(a));
        assert_eq!(wal.prev(a), Some(Lsn::NULL));
    }

    #[test]
    fn flush_tracks_high_water_mark() {
        let mut wal = Wal::new(1 << 20);
        let a = wal.append(Lsn::NULL, upd(1));
        assert!(wal.flush_to(a), "first force advances the horizon");
        assert!(!wal.flush_to(Lsn(0)), "stale force is a no-op");
        assert!(!wal.flush_to(a), "repeated force is a no-op");
        assert_eq!(wal.flushed(), a);
    }

    #[test]
    fn space_accounting_and_truncation() {
        let mut wal = Wal::new(1000);
        for _ in 0..10 {
            wal.append(Lsn::NULL, upd(1));
        }
        let used = wal.used_bytes();
        assert_eq!(used, 10 * (32 + 4));
        assert!(wal.used_fraction() > 0.3);
        wal.truncate_to(Lsn(6));
        assert_eq!(wal.used_bytes(), 5 * 36);
        assert_eq!(wal.tail(), Lsn(6));
        assert!(wal.get(Lsn(3)).is_none());
        assert!(wal.get(Lsn(6)).is_some());
    }

    #[test]
    fn iter_from_respects_truncation() {
        let mut wal = Wal::new(1 << 20);
        for _ in 0..10 {
            wal.append(Lsn::NULL, upd(1));
        }
        wal.truncate_to(Lsn(4));
        let lsns: Vec<u64> = wal.iter_from(Lsn(1)).map(|r| r.lsn.0).collect();
        assert_eq!(lsns, (4..=10).collect::<Vec<_>>());
        let lsns: Vec<u64> = wal.iter_from(Lsn(8)).map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![8, 9, 10]);
    }

    #[test]
    fn checkpoint_lsn_tracked() {
        let mut wal = Wal::new(1 << 20);
        let begin = wal.append(Lsn::NULL, LogPayload::BeginCheckpoint);
        // Fuzzy: regular records land between Begin and End.
        wal.append(Lsn::NULL, upd(1));
        wal.append(Lsn::NULL, upd(2));
        let end =
            wal.append(Lsn::NULL, LogPayload::EndCheckpoint { active: vec![], dirty: vec![] });
        assert_eq!(wal.last_checkpoint(), Some(end));
        assert_eq!(wal.last_checkpoint_begin(), Some(begin));
        assert_eq!(wal.last_checkpoint_pair(), Some((begin, end)));
        // Truncating *to* the Begin keeps the checkpoint usable...
        wal.truncate_to(begin);
        assert_eq!(wal.last_checkpoint_pair(), Some((begin, end)));
        // ...truncating past it does not.
        wal.truncate_to(Lsn(begin.0 + 1));
        assert_eq!(wal.last_checkpoint(), None);
        assert_eq!(wal.last_checkpoint_begin(), None);
    }

    #[test]
    fn crash_invalidates_unflushed_checkpoint() {
        let mut wal = Wal::new(1 << 20);
        let begin = wal.append(Lsn::NULL, LogPayload::BeginCheckpoint);
        wal.append(Lsn::NULL, upd(1));
        wal.append(Lsn::NULL, LogPayload::EndCheckpoint { active: vec![], dirty: vec![] });
        // End never reached stable storage: the pair must not survive.
        wal.flush_to(begin);
        wal.lose_unflushed();
        assert_eq!(wal.last_checkpoint_pair(), None);
        // A lone End after the crash must not pair with the stale
        // pre-crash Begin — it forms a degenerate self-pair instead
        // (scanning from the End itself is exactly right for it).
        let end2 =
            wal.append(Lsn::NULL, LogPayload::EndCheckpoint { active: vec![], dirty: vec![] });
        assert_eq!(end2, Lsn(begin.0 + 1), "appends continue after the surviving prefix");
        assert_eq!(wal.last_checkpoint_pair(), Some((end2, end2)));
    }

    #[test]
    fn crash_loses_unflushed_suffix() {
        let mut wal = Wal::new(1 << 20);
        let a = wal.append(Lsn::NULL, upd(1));
        let _b = wal.append(a, upd(1));
        let _c = wal.append(Lsn::NULL, upd(2));
        wal.flush_to(a);
        wal.lose_unflushed();
        assert_eq!(wal.head(), a);
        assert!(wal.get(Lsn(2)).is_none());
        assert!(wal.get(a).is_some());
        // New appends continue after the surviving prefix.
        let d = wal.append(a, upd(1));
        assert_eq!(d, Lsn(2));
    }

    #[test]
    fn payload_tx_extraction() {
        assert_eq!(upd(7).tx(), Some(TxId(7)));
        assert_eq!(LogPayload::BeginCheckpoint.tx(), None);
    }

    /// The log as one owned record per LSN: the store's reference
    /// semantics, kept deliberately naive.
    #[derive(Default)]
    struct Model {
        records: Vec<LogRecord>,
        tail: u64,
        next: u64,
        flushed: Lsn,
        used: usize,
        ckpt: Option<(Lsn, Lsn)>,
        pending: Option<Lsn>,
    }

    impl Model {
        fn new() -> Self {
            Model { tail: 1, next: 1, ..Model::default() }
        }

        fn append(&mut self, prev: Lsn, payload: LogPayload) -> Lsn {
            let lsn = Lsn(self.next);
            self.next += 1;
            self.used += payload.size_bytes();
            match payload {
                LogPayload::BeginCheckpoint => self.pending = Some(lsn),
                LogPayload::EndCheckpoint { .. } => {
                    self.ckpt = Some((self.pending.take().unwrap_or(lsn), lsn));
                }
                _ => {}
            }
            self.records.push(LogRecord { lsn, prev, payload });
            lsn
        }

        fn get(&self, lsn: Lsn) -> Option<&LogRecord> {
            self.records.iter().find(|r| r.lsn == lsn && !lsn.is_null())
        }

        fn truncate_to(&mut self, lsn: Lsn) {
            if lsn.0 <= self.tail {
                return;
            }
            for r in self.records.iter().filter(|r| r.lsn < lsn) {
                self.used -= r.payload.size_bytes();
            }
            self.records.retain(|r| r.lsn >= lsn);
            self.tail = lsn.0;
            if self.ckpt.is_some_and(|(begin, _)| begin < lsn) {
                self.ckpt = None;
            }
            if self.pending.is_some_and(|b| b < lsn) {
                self.pending = None;
            }
        }

        fn lose_unflushed(&mut self) {
            for r in self.records.iter().filter(|r| r.lsn > self.flushed) {
                self.used -= r.payload.size_bytes();
            }
            self.records.retain(|r| r.lsn <= self.flushed);
            self.next = self.flushed.0.max(self.tail - 1) + 1;
            if self.ckpt.is_some_and(|(_, end)| end > self.flushed) {
                self.ckpt = None;
            }
            if self.pending.is_some_and(|b| b > self.flushed) {
                self.pending = None;
            }
        }
    }

    #[derive(Debug)]
    enum Op {
        Append(Lsn, LogPayload),
        Flush(u64),
        Truncate(u64),
        Lose,
    }

    fn image(rng: &mut StdRng) -> Vec<u8> {
        let len = match rng.gen_range(0..8u32) {
            0 => 0,
            1 => rng.gen_range(100..2000),
            _ => rng.gen_range(1..60),
        };
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    fn int(rng: &mut StdRng) -> u64 {
        if rng.gen_bool(0.2) {
            rng.gen::<u64>()
        } else {
            rng.gen_range(0..1000)
        }
    }

    fn page(rng: &mut StdRng) -> PageId {
        PageId::new(int(rng) as usize, int(rng))
    }

    fn lsn(rng: &mut StdRng, next: u64) -> Lsn {
        match rng.gen_range(0..8u32) {
            0 => Lsn::NULL,
            1 => Lsn(rng.gen::<u64>()),
            _ => Lsn(rng.gen_range(0..next + 1)),
        }
    }

    /// Any payload; a CLR nests another payload, up to `depth` deep.
    fn payload(rng: &mut StdRng, next: u64, depth: u32) -> LogPayload {
        let tx = TxId(int(rng));
        let slot = SlotId(rng.gen_range(0..=u16::MAX));
        match rng.gen_range(0..15u32) {
            0 => LogPayload::Begin { tx },
            1 => LogPayload::Update {
                tx,
                page: page(rng),
                slot,
                before: image(rng),
                after: image(rng),
            },
            2 => LogPayload::Insert { tx, page: page(rng), slot, tuple: image(rng) },
            3 => LogPayload::Delete { tx, page: page(rng), slot, before: image(rng) },
            4 => LogPayload::Undelete { tx, page: page(rng), slot, tuple: image(rng) },
            5 => LogPayload::IndexInsert { tx, index: rng.gen(), key: int(rng), value: int(rng) },
            6 => LogPayload::IndexDelete { tx, index: rng.gen(), key: int(rng), value: int(rng) },
            7 => {
                // Now and then an image larger than a whole segment.
                let after = if rng.gen_bool(0.3) {
                    vec![rng.gen::<u8>(); SEGMENT_BYTES + rng.gen_range(1..4096usize)]
                } else {
                    image(rng)
                };
                LogPayload::PageWrite { tx, page: page(rng), offset: rng.gen(), after }
            }
            8 => LogPayload::RootChange { tx, index: rng.gen(), new_root: page(rng) },
            9 if depth > 0 => LogPayload::Clr {
                tx,
                undone: lsn(rng, next),
                undo_next: lsn(rng, next),
                action: Box::new(payload(rng, next, depth - 1)),
            },
            10 => LogPayload::Commit { tx },
            11 => LogPayload::Abort { tx },
            12 => LogPayload::BeginCheckpoint,
            13 => {
                let (na, nd) = if rng.gen_bool(0.3) {
                    (rng.gen_range(100..400), rng.gen_range(100..400))
                } else {
                    (rng.gen_range(0..4), rng.gen_range(0..4))
                };
                LogPayload::EndCheckpoint {
                    active: (0..na).map(|_| (TxId(int(rng)), lsn(rng, next))).collect(),
                    dirty: (0..nd).map(|_| (page(rng), lsn(rng, next))).collect(),
                }
            }
            _ => LogPayload::Clr {
                tx,
                undone: lsn(rng, next),
                undo_next: lsn(rng, next),
                action: Box::new(upd(tx.0)),
            },
        }
    }

    /// A random op sequence; `next` tracks the LSN the next append gets
    /// so that flush and truncation targets stay within the log (flush at
    /// most to the head, truncate at most to one past it).
    fn ops(rng: &mut StdRng) -> Vec<Op> {
        let mut next = 1u64;
        let mut tail = 1u64;
        let mut flushed = 0u64;
        (0..rng.gen_range(1..160))
            .map(|_| match rng.gen_range(0..20u32) {
                0..=12 => {
                    let op = Op::Append(lsn(rng, next), payload(rng, next, 3));
                    next += 1;
                    op
                }
                13..=15 => {
                    let to = rng.gen_range(0..next);
                    flushed = flushed.max(to);
                    Op::Flush(to)
                }
                16..=18 => {
                    let to = rng.gen_range(0..next + 1);
                    tail = tail.max(to);
                    Op::Truncate(to)
                }
                _ => {
                    next = flushed.max(tail - 1) + 1;
                    Op::Lose
                }
            })
            .collect()
    }

    fn assert_same(wal: &Wal, model: &Model, from: Lsn) {
        assert_eq!(wal.head(), Lsn(model.next - 1));
        assert_eq!(wal.tail(), Lsn(model.tail));
        assert_eq!(wal.flushed(), model.flushed);
        assert_eq!(wal.used_bytes(), model.used);
        assert_eq!(wal.last_checkpoint_pair(), model.ckpt);
        // Segments wholly below the tail have been freed.
        let second = wal.sealed.get(1).map_or(wal.head.first, |s| s.first);
        assert!(wal.sealed.is_empty() || second > model.tail, "a truncated segment was kept");
        for l in 0..model.next + 2 {
            let got = wal.get(Lsn(l));
            assert_eq!(got.as_ref(), model.get(Lsn(l)), "get({l})");
            assert_eq!(wal.prev(Lsn(l)), got.map(|r| r.prev), "prev({l})");
        }
        let want: Vec<&LogRecord> =
            model.records.iter().filter(|r| r.lsn >= from.max(Lsn(model.tail))).collect();
        let got: Vec<LogRecord> = wal.iter_from(from).collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), want, "iter_from({from:?})");
    }

    #[test]
    fn wal_matches_vec_model() {
        forall(64, 1, ops, |ops| {
            let mut wal = Wal::new(1 << 30);
            let mut model = Model::new();
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Append(prev, payload) => {
                        assert_eq!(wal.append(prev, payload.clone()), model.append(prev, payload));
                    }
                    Op::Flush(to) => {
                        let advanced = Lsn(to) > model.flushed;
                        model.flushed = model.flushed.max(Lsn(to));
                        assert_eq!(wal.flush_to(Lsn(to)), advanced);
                    }
                    Op::Truncate(to) => {
                        wal.truncate_to(Lsn(to));
                        model.truncate_to(Lsn(to));
                    }
                    Op::Lose => {
                        wal.lose_unflushed();
                        model.lose_unflushed();
                    }
                }
                assert_same(&wal, &model, Lsn(step as u64 % model.next.max(1)));
            }
        });
    }

    #[test]
    fn tatp_like_stream_stays_compact() {
        // Begin, a small update, Commit: the shape of a cached TATP run.
        let mut wal = Wal::new(usize::MAX);
        let mut records = 0usize;
        for t in 0..60_000u64 {
            let tx = TxId(t + 1);
            let begin = wal.append(Lsn::NULL, LogPayload::Begin { tx });
            let image = |b: u8| vec![b; 8 + (t % 40) as usize];
            let update = LogPayload::Update {
                tx,
                page: PageId::new(1, t % 5000),
                slot: SlotId((t % 60) as u16),
                before: image(1),
                after: image(2),
            };
            let u = wal.append(begin, update);
            wal.append(u, LogPayload::Commit { tx });
            records += 3;
        }
        // Host bytes: at most the modelled log space, plus a fixed
        // per-record overhead (an index entry and its growth slack), plus
        // one partly filled segment.
        let per_record = 2 * std::mem::size_of::<IndexEntry>();
        let budget = wal.used_bytes() + per_record * records + SEGMENT_BYTES;
        assert!(wal.resident_bytes() <= budget, "{} > {budget}", wal.resident_bytes());
        assert!(wal.sealed.len() > 2, "the stream spans several segments");
        // Reclaiming up to the head releases every segment but the
        // current one.
        wal.truncate_to(wal.head());
        assert!(wal.sealed.is_empty());
        assert!(wal.head.bytes.capacity() <= SEGMENT_BYTES);
        assert!(wal.get(wal.head()).is_some());
    }
}
