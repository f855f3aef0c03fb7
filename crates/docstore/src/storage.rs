//! Document slot storage for a collection, plus the on-disk storage
//! primitives the durability subsystem builds on: a CRC32 checksum and
//! an injectable [`StorageFaults`] layer that simulates the disk-level
//! failure modes (crash mid-write, torn write, short read, transient
//! EIO) a process kill or flaky volume produces.

use doclite_bson::{codec::encoded_size, Document};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, the zlib/`crc32fast` polynomial), table-driven.
/// Used for WAL frame checksums and the `DLDUMP2` per-document trailers.
///
/// `CRC_TABLES[0]` is the classic one-byte-at-a-time table; `[k][b]` is
/// the checksum state after byte `b` and then `k` zero bytes, which lets
/// [`Crc32::update`] fold eight input bytes per step ("slice-by-8")
/// instead of chaining eight dependent table lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC-32 hasher (feed chunks, then [`Crc32::finish`]).
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds bytes into the checksum. How the input is split across
    /// calls never changes the result.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Fsyncs a directory, making renames and file creations inside it
/// durable. A rename without this can be undone by a power loss even
/// after the renamed file's own contents were synced.
pub fn fsync_dir(dir: &std::path::Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Injectable disk-fault state, mirroring the API shape of the sharding
/// crate's network `Faults`: explicit deterministic knobs behind one
/// relaxed-atomic fast-path guard, shared via `Arc` between the test
/// harness and the file layer under test.
///
/// Fault semantics:
///
/// * **crash-after-N-bytes** — the next writes go through until `N`
///   total bytes have passed, then the "process dies": the write that
///   crosses the budget is cut short at the boundary (a torn write) and
///   every later write fails. Models `kill -9` mid-append.
/// * **torn write** — the next single write persists only its first
///   half, then the layer crashes. Models a power cut mid-sector.
/// * **short read** — reads are truncated to half the requested length
///   once, surfacing as an `UnexpectedEof` to the reader above.
/// * **transient EIO** — the next `N` writes fail with `io::ErrorKind::
///   Other` but leave the file intact; a retry succeeds. Models a
///   flaky volume.
#[derive(Debug, Default)]
pub struct StorageFaults {
    /// Fast-path guard: true iff any fault knob is engaged.
    active: AtomicBool,
    /// Remaining write budget in bytes before a simulated crash
    /// (`u64::MAX` = disabled).
    crash_budget: AtomicU64,
    /// Whether the crash budget is armed (distinguishes "no crash
    /// configured" from "budget exhausted").
    crash_armed: AtomicBool,
    /// The next write is torn in half, then the layer crashes.
    tear_next: AtomicBool,
    /// Reads return half the requested bytes this many more times.
    short_reads: AtomicU64,
    /// Writes fail with a transient EIO this many more times.
    eio_budget: AtomicU64,
    /// Set once a simulated crash fired: all subsequent writes fail.
    crashed: AtomicBool,
    /// Calls of [`StorageFaults::write_all`] so far, faulted or not.
    writes: AtomicU64,
}

impl StorageFaults {
    /// No faults, shareable.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn refresh_active(&self) {
        let engaged = self.crash_armed.load(Ordering::Relaxed)
            || self.tear_next.load(Ordering::Relaxed)
            || self.short_reads.load(Ordering::Relaxed) > 0
            || self.eio_budget.load(Ordering::Relaxed) > 0
            || self.crashed.load(Ordering::Relaxed);
        self.active.store(engaged, Ordering::Relaxed);
    }

    /// True iff any fault is configured — the healthy-path fast check.
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Arms a crash after `n` more bytes are written.
    pub fn crash_after_bytes(&self, n: u64) {
        self.crash_budget.store(n, Ordering::Relaxed);
        self.crash_armed.store(true, Ordering::Relaxed);
        self.refresh_active();
    }

    /// Tears the next write in half, then crashes.
    pub fn tear_next_write(&self) {
        self.tear_next.store(true, Ordering::Relaxed);
        self.refresh_active();
    }

    /// Truncates the next `n` reads to half their requested length.
    pub fn short_read_next(&self, n: u64) {
        self.short_reads.store(n, Ordering::Relaxed);
        self.refresh_active();
    }

    /// Fails the next `n` writes with a transient EIO (file untouched).
    pub fn transient_eio(&self, n: u64) {
        self.eio_budget.store(n, Ordering::Relaxed);
        self.refresh_active();
    }

    /// True once a simulated crash has fired (all writes fail until
    /// [`StorageFaults::clear`]).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// How many writes the layer above has issued through
    /// [`StorageFaults::write_all`] — one per WAL group commit, which is
    /// what the tests that count it pin.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Clears every fault, including a fired crash ("the process was
    /// restarted").
    pub fn clear(&self) {
        self.crash_budget.store(u64::MAX, Ordering::Relaxed);
        self.crash_armed.store(false, Ordering::Relaxed);
        self.tear_next.store(false, Ordering::Relaxed);
        self.short_reads.store(0, Ordering::Relaxed);
        self.eio_budget.store(0, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
        self.refresh_active();
    }

    fn crash_error() -> io::Error {
        io::Error::other("simulated storage crash")
    }

    /// Writes `buf` to `w` under the configured faults. On a crash or
    /// torn-write fault the surviving prefix is written (and flushed)
    /// before the error returns, so the file holds exactly what a real
    /// interrupted process would have persisted.
    pub fn write_all(&self, w: &mut impl Write, buf: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        if !self.active() {
            return w.write_all(buf);
        }
        if self.crashed.load(Ordering::Relaxed) {
            return Err(Self::crash_error());
        }
        if self.eio_budget.load(Ordering::Relaxed) > 0 {
            self.eio_budget.fetch_sub(1, Ordering::Relaxed);
            self.refresh_active();
            return Err(io::Error::other("simulated transient EIO"));
        }
        if self.tear_next.swap(false, Ordering::Relaxed) {
            w.write_all(&buf[..buf.len() / 2])?;
            w.flush()?;
            self.crashed.store(true, Ordering::Relaxed);
            self.refresh_active();
            return Err(Self::crash_error());
        }
        if self.crash_armed.load(Ordering::Relaxed) {
            let budget = self.crash_budget.load(Ordering::Relaxed);
            if (buf.len() as u64) > budget {
                w.write_all(&buf[..budget as usize])?;
                w.flush()?;
                self.crash_budget.store(0, Ordering::Relaxed);
                self.crashed.store(true, Ordering::Relaxed);
                self.refresh_active();
                return Err(Self::crash_error());
            }
            self.crash_budget.store(budget - buf.len() as u64, Ordering::Relaxed);
        }
        w.write_all(buf)
    }

    /// Reads into `buf` under the configured faults: a short-read fault
    /// fills only half the buffer and reports that length.
    pub fn read(&self, r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
        if self.active() && self.short_reads.load(Ordering::Relaxed) > 0 && buf.len() > 1 {
            self.short_reads.fetch_sub(1, Ordering::Relaxed);
            self.refresh_active();
            let half = buf.len() / 2;
            return r.read(&mut buf[..half]);
        }
        r.read(buf)
    }
}

/// Internal document identifier: a slot number in the collection's record
/// store. Stable for the life of the document (updates keep the slot).
pub type DocId = u64;

/// A slab of document slots with free-list reuse and running
/// encoded-size accounting (feeding chunk-size and load metrics).
///
/// Slots hold [`Document`]s, which are copy-on-write, so readers can
/// snapshot a document set with cheap refcount bumps (a `clone` each)
/// and release the collection lock before scanning. A held document
/// never changes under its holder: a whole-slot
/// [`replace`](Slab::replace) puts a new document in the slot, and an
/// in-place [`edit`](Slab::edit) goes through the document's mutators,
/// which copy a field vector first when anyone else still holds it — so
/// a snapshot stays consistent no matter what writers do afterwards.
#[derive(Debug, Default)]
pub struct Slab {
    slots: Vec<Option<Document>>,
    /// Encoded size of each slot's document (stale for an empty slot),
    /// so an edit can move `data_size` by a delta and check the document
    /// cap without re-measuring the whole document.
    sizes: Vec<usize>,
    free: Vec<DocId>,
    live: usize,
    data_size: usize,
}

impl Slab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a document, returning its id.
    pub fn insert(&mut self, doc: Document) -> DocId {
        let size = encoded_size(&doc);
        self.data_size += size;
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(doc);
            self.sizes[id as usize] = size;
            id
        } else {
            self.slots.push(Some(doc));
            self.sizes.push(size);
            (self.slots.len() - 1) as DocId
        }
    }

    /// Reads a document by id. Cloning it is a refcount bump, and the
    /// clone stays valid after the collection lock is released.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    /// Snapshots all live documents in slot order. O(slots) refcount
    /// bumps, no field is copied; the caller can drop the collection
    /// lock and scan the snapshot at leisure.
    pub fn snapshot(&self) -> Vec<Document> {
        self.slots.iter().filter_map(Clone::clone).collect()
    }

    /// Replaces a whole document, returning the old one.
    pub fn replace(&mut self, id: DocId, doc: Document) -> Option<Document> {
        let slot = self.slots.get_mut(id as usize)?;
        let old = slot.take()?;
        let size = encoded_size(&doc);
        self.data_size = self.data_size - self.sizes[id as usize] + size;
        self.sizes[id as usize] = size;
        *slot = Some(doc);
        Some(old)
    }

    /// Edits the document in slot `id` where it lies — the update
    /// path's one mutation entry. `edit` is handed the document and its
    /// encoded size and returns by how many bytes it moved that size;
    /// when it fails it must leave the document as it found it. Nothing
    /// is copied unless a reader still holds the slot's document, and that
    /// reader keeps the document it took.
    pub fn edit<T, E>(
        &mut self,
        id: DocId,
        edit: impl FnOnce(&mut Document, usize) -> Result<(isize, T), E>,
    ) -> Option<Result<T, E>> {
        let doc = self.slots.get_mut(id as usize)?.as_mut()?;
        let size = &mut self.sizes[id as usize];
        let outcome = edit(doc, *size).map(|(delta, out)| {
            *size = size.checked_add_signed(delta).expect("an edit shrinks a document by at most its size");
            self.data_size = self
                .data_size
                .checked_add_signed(delta)
                .expect("the slab holds at least the edited document's bytes");
            out
        });
        debug_assert_eq!(*size, encoded_size(doc), "the edit's size delta is exact");
        Some(outcome)
    }

    /// Removes a document by id.
    pub fn remove(&mut self, id: DocId) -> Option<Document> {
        let slot = self.slots.get_mut(id as usize)?;
        let old = slot.take()?;
        self.data_size -= self.sizes[id as usize];
        self.live -= 1;
        self.free.push(id);
        Some(old)
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live documents.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sum of encoded sizes of live documents, in bytes.
    pub fn data_size(&self) -> usize {
        self.data_size
    }

    /// Iterates live `(id, document)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|d| (i as DocId, d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::{doc, Value};

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let id = s.insert(doc! {"a" => 1i64});
        assert_eq!(s.len(), 1);
        assert!(s.get(id).is_some());
        assert!(s.remove(id).is_some());
        assert_eq!(s.len(), 0);
        assert!(s.get(id).is_none());
        assert!(s.remove(id).is_none());
    }

    #[test]
    fn slots_are_reused() {
        let mut s = Slab::new();
        let a = s.insert(doc! {"a" => 1i64});
        s.remove(a);
        let b = s.insert(doc! {"b" => 2i64});
        assert_eq!(a, b);
    }

    #[test]
    fn data_size_tracks_inserts_replaces_removes() {
        let mut s = Slab::new();
        assert_eq!(s.data_size(), 0);
        let small = doc! {"a" => 1i32};
        let large = doc! {"a" => "a much longer string value for sizing"};
        let id = s.insert(small.clone());
        let after_insert = s.data_size();
        assert!(after_insert > 0);
        s.replace(id, large.clone());
        assert!(s.data_size() > after_insert);
        s.replace(id, small);
        assert_eq!(s.data_size(), after_insert);
        s.remove(id);
        assert_eq!(s.data_size(), 0);
    }

    #[test]
    fn snapshot_is_immune_to_later_slab_mutation() {
        let mut s = Slab::new();
        let a = s.insert(doc! {"i" => 0i64});
        let b = s.insert(doc! {"i" => 1i64});
        let snap = s.snapshot();
        s.remove(a);
        s.replace(b, doc! {"i" => 9i64});
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].get("i"), Some(&Value::Int64(0)));
        assert_eq!(snap[1].get("i"), Some(&Value::Int64(1)));
        assert_eq!(s.get(b).unwrap().get("i"), Some(&Value::Int64(9)));
    }

    #[test]
    fn edit_is_in_place_copy_on_write_and_moves_the_size_by_its_delta() {
        let mut s = Slab::new();
        // Room for the field `set_c` adds, so an in-place edit keeps
        // every field where it was.
        let mut spacious = Document::with_capacity(2);
        spacious.set("a", 1i64);
        let id = s.insert(spacious);
        let other = s.insert(doc! {"b" => "x"});
        let recomputed = |s: &Slab| s.iter().map(|(_, d)| encoded_size(d)).sum::<usize>();
        let set_c = |doc: &mut Document, size: usize| -> Result<(isize, ()), &'static str> {
            assert_eq!(size, encoded_size(doc), "handed the document's size");
            doc.set("c", "a longer string value");
            Ok((encoded_size(doc) as isize - size as isize, ()))
        };
        let unset_c = |doc: &mut Document, size: usize| -> Result<(isize, ()), &'static str> {
            doc.remove("c");
            Ok((encoded_size(doc) as isize - size as isize, ()))
        };

        // Nobody else holds the document: it is edited where it lies.
        let a_at = |s: &Slab| s.get(id).unwrap().get("a").unwrap() as *const Value;
        let at = a_at(&s);
        assert_eq!(s.edit(id, set_c), Some(Ok(())));
        assert_eq!(a_at(&s), at);
        assert_eq!(s.data_size(), recomputed(&s));

        // A reader holds it: the reader keeps what it took.
        let held = s.get(id).unwrap().clone();
        assert_eq!(s.edit(id, unset_c), Some(Ok(())));
        assert_ne!(a_at(&s), at, "the edit copied the held fields");
        assert!(held.get("c").is_some());
        assert!(s.get(id).unwrap().get("c").is_none());
        assert_eq!(s.data_size(), recomputed(&s));

        // A refused edit moves nothing; an empty slot has nothing to edit.
        assert_eq!(s.edit(other, |_, _| Err::<(isize, ()), _>("refused")), Some(Err("refused")));
        assert_eq!(s.data_size(), recomputed(&s));
        s.remove(other);
        assert_eq!(s.edit(other, set_c), None);
        assert_eq!(s.edit(99, set_c), None);
        assert_eq!(s.data_size(), recomputed(&s));
    }

    #[test]
    fn a_held_document_outlives_removal() {
        let mut s = Slab::new();
        let id = s.insert(doc! {"k" => 7i64});
        let h = s.get(id).unwrap().clone();
        let removed = s.remove(id).unwrap();
        assert_eq!(h, removed);
        assert!(s.get(id).is_none());
    }

    #[test]
    fn snapshot_keeps_the_old_embedded_value_across_an_in_place_edit() {
        let mut s = Slab::new();
        let dim = doc! {"city" => "Midway", "zip" => 35_709i64};
        let id = s.insert(doc! {"k" => 1i64, "dim" => dim});
        let snap = s.snapshot();
        let edited = s.edit(id, |doc: &mut Document, size| -> Result<(isize, ()), ()> {
            assert!(doc.set_path("dim.city", Value::from("Fairview")));
            Ok((encoded_size(doc) as isize - size as isize, ()))
        });
        assert_eq!(edited, Some(Ok(())));
        assert_eq!(snap[0].get_path("dim.city"), Some(Value::from("Midway")));
        assert_eq!(s.get(id).unwrap().get_path("dim.city"), Some(Value::from("Fairview")));
        assert_eq!(snap[0].get_path("dim.zip"), s.get(id).unwrap().get_path("dim.zip"));
    }

    #[test]
    fn iter_skips_holes() {
        let mut s = Slab::new();
        let a = s.insert(doc! {"i" => 0i64});
        let _b = s.insert(doc! {"i" => 1i64});
        let _c = s.insert(doc! {"i" => 2i64});
        s.remove(a);
        let ids: Vec<DocId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"56789");
        assert_eq!(inc.finish(), 0xCBF4_3926);
    }

    /// The one-byte-at-a-time CRC-32 the sliced [`Crc32::update`] must
    /// agree with, written without any table.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference_at_every_length_alignment_and_split() {
        // A fixed xorshift stream: every run checks the same bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let pool: Vec<u8> = (0..64 + 8 + 4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for len in 0..=64 {
            for align in 0..8 {
                let input = &pool[align..align + len];
                let want = crc32_bytewise(input);
                assert_eq!(crc32(input), want, "len {len} at offset {align}");
                for split in 0..=len {
                    let mut h = Crc32::new();
                    h.update(&input[..split]);
                    h.update(&input[split..]);
                    assert_eq!(h.finish(), want, "len {len} at offset {align} split at {split}");
                }
            }
        }
        // A long input fed in ragged pieces (lengths 0, 1, 2, … cycling
        // through every residue of 8).
        let long = &pool[3..];
        let mut h = Crc32::new();
        let (mut at, mut step) = (0, 0);
        while at < long.len() {
            let end = (at + step % 23).min(long.len());
            h.update(&long[at..end]);
            at = end;
            step += 1;
        }
        assert_eq!(h.finish(), crc32_bytewise(long));
        assert_eq!(crc32(long), crc32_bytewise(long));
    }

    #[test]
    fn crash_after_bytes_cuts_the_crossing_write_and_kills_later_ones() {
        let f = StorageFaults::new();
        f.crash_after_bytes(10);
        let mut sink = Vec::new();
        f.write_all(&mut sink, &[1u8; 6]).unwrap();
        assert!(f.write_all(&mut sink, &[2u8; 6]).is_err());
        assert_eq!(sink.len(), 10, "crossing write torn at the byte budget");
        assert!(f.crashed());
        assert!(f.write_all(&mut sink, &[3u8; 1]).is_err(), "dead after crash");
        f.clear();
        f.write_all(&mut sink, &[4u8; 4]).unwrap();
        assert_eq!(sink.len(), 14);
    }

    #[test]
    fn torn_write_persists_half_then_crashes() {
        let f = StorageFaults::new();
        f.tear_next_write();
        let mut sink = Vec::new();
        assert!(f.write_all(&mut sink, &[7u8; 8]).is_err());
        assert_eq!(sink.len(), 4);
        assert!(f.crashed());
    }

    #[test]
    fn transient_eio_fails_without_touching_the_file() {
        let f = StorageFaults::new();
        f.transient_eio(2);
        let mut sink = Vec::new();
        assert!(f.write_all(&mut sink, b"abc").is_err());
        assert!(f.write_all(&mut sink, b"abc").is_err());
        assert!(sink.is_empty());
        f.write_all(&mut sink, b"abc").unwrap();
        assert_eq!(sink, b"abc");
        assert!(!f.crashed(), "EIO is transient, not a crash");
    }

    #[test]
    fn short_read_truncates_once() {
        let f = StorageFaults::new();
        f.short_read_next(1);
        let data = [9u8; 8];
        let mut buf = [0u8; 8];
        let n = f.read(&mut &data[..], &mut buf).unwrap();
        assert_eq!(n, 4);
        let n = f.read(&mut &data[..], &mut buf).unwrap();
        assert_eq!(n, 8);
    }
}
