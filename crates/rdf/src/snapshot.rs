//! Versioned, checksummed store snapshots: the cold-start path.
//!
//! A production server cannot re-parse N-Triples and re-freeze every
//! predicate on restart. A snapshot persists the whole read-path state —
//! the dictionary and, per predicate, the two frozen tries that *are* the
//! relation ([`TriePair`]) — so a reload is bulk `memcpy`-shaped at worst
//! and *zero-copy* at best: the file can be `mmap`ed
//! ([`StoreSnapshot::open`] with [`LoadMode::Mmap`]) and every trie arena
//! served straight off the page cache, no arena byte ever copied into the
//! process. Each relation is in the image exactly once.
//!
//! ## File format (version 5, little-endian)
//!
//! ```text
//! [0..8)   magic  b"EHSNAP05"
//! [8..12)  format version (u32) = 5
//! [12..44) directory: per section (length u64, XXH64 checksum u64), two
//!          sections
//! then the two sections, each starting on a 4-byte file offset (the gap
//! bytes before a section are zero and validated at load; no padding
//! after the last section)
//! ```
//!
//! The header section holds the dictionary (term count, then each term as
//! `(kind u8, len u32, utf-8 bytes)` in key order) and the predicate
//! registry (`count`, then each predicate key in registration order).
//!
//! The trie section holds, in registry order, one `so` trie record and
//! then one `os` trie record per predicate — nothing else. The order is
//! implied by position and every relation is binary, so a record carries
//! no predicate, order flag or arity:
//!
//! ```text
//! num_tuples u32 | level 0 (offset u32, count u32) | level 1 (offset u32,
//! count u32) | arena_len u32 | arena_len arena words (u32)
//! ```
//!
//! Every field is a `u32`, so with the section 4-aligned in the file
//! every arena's first word lands on a 4-byte file offset with no pad at
//! all, and a mapped load reinterprets the page-cache bytes as `&[u32]`
//! in place.
//!
//! ## What the reader checks
//!
//! Checksums guard against corruption; a checksum-valid image is then
//! held to three structural checks per relation before anything serves
//! from it:
//!
//! 1. **structure** — every level offset, block, child base and set
//!    encoding of both tries (`FrozenTrie` validation; no empty set below
//!    a root);
//! 2. **ids** — every id of the `so` trie is below the dictionary length;
//! 3. **transpose** — `os` is exactly the transpose of `so` (which also
//!    carries check 2 over to `os`).
//!
//! Checksum verification stays eager on the mapped path too (it is cheap,
//! sequential, and reads the bytes `madvise` is about to want anyway);
//! only the arena *copy* is skipped.
//!
//! ## Compatibility policy
//!
//! There is one format. `EHSNAP05` is the only image this build writes or
//! reads, and a store has exactly one encoding in it, so every readable
//! image is also mappable and save → load → save is a byte fixed point.
//! The four retired magics (`EHSNAP01`–`EHSNAP04`) are recognised only
//! to say so — [`SnapshotError::BadVersion`] — and anything else unknown,
//! truncated, mis-sized, or failing a check is likewise a typed
//! [`SnapshotError`], never a panic. Snapshots are an *optimisation*, not
//! the system of record: on any read error, rebuild from the source
//! N-Triples and save again.

use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eh_trie::{ArenaBytes, FrozenTrie};

use crate::mmap::MappedRegion;
use crate::store::{is_transpose, TriePair, TripleStore};
use crate::term::Term;

/// The 8-byte magic that opens every snapshot this build reads or writes.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"EHSNAP05";
/// The format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 5;
/// The magics of the retired formats, with the version each names.
/// Nothing decodes them; they are matched so an old image fails as
/// [`SnapshotError::BadVersion`] rather than as "not a snapshot".
const RETIRED_MAGICS: [([u8; 8], u32); 4] =
    [(*b"EHSNAP01", 1), (*b"EHSNAP02", 2), (*b"EHSNAP03", 3), (*b"EHSNAP04", 4)];
/// Fixed header size before the section directory. 12 bytes and 16-byte
/// directory entries together put the first section on a 4-byte offset
/// with no padding.
const HEADER_BYTES: usize = 12;
/// Per-section directory entry: length + checksum.
const DIR_ENTRY_BYTES: usize = 16;
/// The header section and the trie section.
const SECTIONS: usize = 2;
/// Where the first section starts.
const DIR_END: usize = HEADER_BYTES + DIR_ENTRY_BYTES * SECTIONS;
/// Every relation is binary: a trie record has exactly two levels.
const ARITY: u32 = 2;

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with a snapshot magic.
    BadMagic,
    /// The file is a snapshot of a version this build does not read: a
    /// retired format (1–4) or a version field that is not
    /// [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The file ends before the declared payload does.
    Truncated,
    /// A payload checksum (XXH64) does not match its directory entry.
    ChecksumMismatch,
    /// The payload decoded but its structure is inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// How a snapshot's trie arenas entered the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Arenas were decoded into freshly allocated memory.
    Copy,
    /// Arenas are windows of a shared `mmap` of the snapshot file — the
    /// page cache is the buffer pool, and other processes mapping the
    /// same file share the physical pages.
    Mmap,
}

impl fmt::Display for LoadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoadMode::Copy => "copy",
            LoadMode::Mmap => "mmap",
        })
    }
}

/// How a load was actually served, for observability: a caller that
/// *asked* for mmap needs to see whether it got it, and if not, why.
#[derive(Debug, Clone, Copy)]
pub struct LoadInfo {
    /// The mode the arenas are served in.
    pub mode: LoadMode,
    /// Bytes of the snapshot file held mapped (0 on a copy load).
    pub mapped_bytes: u64,
    /// When a requested mmap load fell back to copy: the reason (the
    /// platform has no mmap, or the map itself failed). `None` on a plain
    /// copy load or a successful mapped one.
    pub fallback: Option<&'static str>,
}

impl LoadInfo {
    /// The plain copy-path load every non-mmap entry point reports.
    fn copied() -> LoadInfo {
        LoadInfo { mode: LoadMode::Copy, mapped_bytes: 0, fallback: None }
    }
}

/// A loaded snapshot: the reassembled store, whose base tries are the
/// image's (see [`StoreSnapshot::read`]).
#[derive(Debug)]
pub struct StoreSnapshot {
    /// The store, committed and fully queryable (and mutable — updates
    /// after a snapshot load work exactly as on a cold-built store).
    pub store: TripleStore,
    /// How this load was served (copy vs mmap, and why if it fell back).
    pub load: LoadInfo,
}

impl StoreSnapshot {
    /// Serialize `store`'s base relations to `w`. Returns the total bytes
    /// written. Staged deltas are not part of an image: fold them first.
    pub fn write(store: &TripleStore, w: impl Write) -> Result<u64, SnapshotError> {
        write_parts(&encode_sections(store), w)
    }

    /// Serialize to a file path (buffered), atomically: the bytes go to
    /// a temp sibling which is `rename`d over `path` only once complete.
    /// This is load-bearing for mmap serving, not mere crash hygiene —
    /// another process (or this one) may hold `path` mapped, and an
    /// in-place rewrite would mutate the pages under its live tries.
    /// A rename leaves the old inode (and every mapping of it) intact;
    /// the old bytes are reclaimed when the last mapping drops. The temp
    /// name is unique per call (pid + a process-wide counter), so
    /// concurrent saves to one path never share an inode; whichever
    /// rename lands last wins, whole.
    pub fn write_to_path(
        store: &TripleStore,
        path: impl AsRef<Path>,
    ) -> Result<u64, SnapshotError> {
        let path = path.as_ref();
        let tmp = match (path.parent(), path.file_name()) {
            (Some(dir), Some(name)) => {
                static SAVES: AtomicU64 = AtomicU64::new(0);
                let mut t = name.to_os_string();
                let nth = SAVES.fetch_add(1, Ordering::Relaxed);
                t.push(format!(".tmp.{}.{nth}", std::process::id()));
                dir.join(t)
            }
            _ => {
                return Err(SnapshotError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "snapshot path has no file name",
                )))
            }
        };
        let result =
            StoreSnapshot::write(store, BufWriter::new(File::create(&tmp)?)).and_then(|n| {
                std::fs::rename(&tmp, path)?;
                Ok(n)
            });
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    /// Read and verify a snapshot already in memory (or behind any
    /// reader), sequentially. All failure modes are `Err`, never panics —
    /// corrupt input must not take a serving process down.
    pub fn read(mut r: impl Read) -> Result<StoreSnapshot, SnapshotError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        decode_image(&bytes, None)
    }

    /// Open the snapshot file at `path`. Verification is never weakened —
    /// both section checksums and every structural invariant run eagerly
    /// in both modes:
    ///
    /// * [`LoadMode::Copy`] slurps the file in one size-hinted read and
    ///   decodes every arena into owned memory.
    /// * [`LoadMode::Mmap`] maps the file and serves every trie arena as
    ///   a window of the mapping; only the arena copy is skipped. Every
    ///   readable image is mappable, so the only reasons to **fall back
    ///   to the copy path** are the platform's: it has no `mmap`, or the
    ///   map itself failed. The reason is recorded in
    ///   [`LoadInfo::fallback`].
    ///
    /// A missing file is [`SnapshotError::Io`] of kind `NotFound` in both
    /// modes, never a fallback; a corrupt, truncated or retired image is
    /// the same typed error in both.
    pub fn open(path: impl AsRef<Path>, mode: LoadMode) -> Result<StoreSnapshot, SnapshotError> {
        let path = path.as_ref();
        let fallback = match mode {
            LoadMode::Copy => None,
            LoadMode::Mmap => match MappedRegion::map_file(path) {
                Ok(region) => {
                    let region = Arc::new(region);
                    return decode_image(region.bytes(), Some(&region));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
                    Some("mmap unsupported on this platform")
                }
                Err(_) => Some("mmap syscall failed"),
            },
        };
        let mut snap = decode_image(&std::fs::read(path)?, None)?;
        snap.load.fallback = fallback;
        Ok(snap)
    }
}

// ---------------------------------------------------------------- payload

/// Assemble the two encoded sections into a complete file image:
/// header, directory, then each section at the next 4-aligned offset
/// with zero gap bytes between. Returns the total bytes written.
fn write_parts(sections: &[Vec<u8>; SECTIONS], mut w: impl Write) -> Result<u64, SnapshotError> {
    w.write_all(&SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    for s in sections {
        w.write_all(&(s.len() as u64).to_le_bytes())?;
        w.write_all(&xxh64(s).to_le_bytes())?;
    }
    // The directory end is 4-aligned by construction (12-byte header,
    // 16-byte entries), so aligning within the body aligns in the file.
    let mut at = 0u64;
    for s in sections {
        let aligned = (at + 3) & !3;
        w.write_all(&[0u8; 3][..(aligned - at) as usize])?;
        w.write_all(s)?;
        at = aligned + s.len() as u64;
    }
    w.flush()?;
    Ok(DIR_END as u64 + at)
}

/// Encode the store as its header and trie sections (see the module
/// docs).
fn encode_sections(store: &TripleStore) -> [Vec<u8>; SECTIONS] {
    let mut head = Vec::new();
    let dict = store.dict();
    put_u32(&mut head, dict.len() as u32);
    for (_, term) in dict.iter() {
        let (kind, text) = match term {
            Term::Iri(s) => (0u8, s.as_str()),
            Term::Literal(s) => (1u8, s.as_str()),
        };
        head.push(kind);
        put_u32(&mut head, text.len() as u32);
        head.extend_from_slice(text.as_bytes());
    }
    put_u32(&mut head, store.preds().len() as u32);
    for &pred in store.preds() {
        put_u32(&mut head, pred);
    }
    let mut tries = Vec::new();
    for rel in store.rels() {
        put_trie(&mut tries, &rel.so);
        put_trie(&mut tries, &rel.os);
    }
    [head, tries]
}

/// One trie record (see the module docs).
fn put_trie(out: &mut Vec<u8>, trie: &FrozenTrie) {
    let (arity, num_tuples, levels, arena) = trie.raw_parts();
    debug_assert_eq!(arity, ARITY);
    put_u32(out, num_tuples);
    for &(off, count) in levels {
        put_u32(out, off);
        put_u32(out, count);
    }
    put_u32(out, arena.len() as u32);
    for &w in arena {
        put_u32(out, w);
    }
}

/// The one header/directory walk behind every read entry point. With
/// `region` set, `bytes` is that mapping and trie arenas stay in it;
/// without, they are decoded into owned memory.
fn decode_image(
    bytes: &[u8],
    region: Option<&Arc<MappedRegion>>,
) -> Result<StoreSnapshot, SnapshotError> {
    let Some(magic) = bytes.get(..8) else {
        // Every magic shares its first seven bytes.
        return Err(if SNAPSHOT_MAGIC.starts_with(bytes) {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    };
    if magic != SNAPSHOT_MAGIC {
        return Err(match RETIRED_MAGICS.iter().find(|(m, _)| magic == m) {
            Some(&(_, version)) => SnapshotError::BadVersion(version),
            None => SnapshotError::BadMagic,
        });
    }
    if bytes.len() < HEADER_BYTES {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("fixed slice"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if bytes.len() < DIR_END {
        return Err(SnapshotError::Truncated);
    }
    // Walk the directory, placing each section at the next 4-aligned
    // body offset. Gap bytes are outside every checksum, so they are
    // validated zero here — otherwise a flipped gap byte would read
    // back clean. Checked arithmetic throughout: the lengths are
    // attacker-controlled until their checksums pass.
    let body = &bytes[DIR_END..];
    let mut sections = Vec::with_capacity(SECTIONS);
    let mut at = 0u64;
    for i in 0..SECTIONS {
        let entry = HEADER_BYTES + DIR_ENTRY_BYTES * i;
        let len = u64::from_le_bytes(bytes[entry..entry + 8].try_into().expect("fixed slice"));
        let checksum =
            u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().expect("fixed slice"));
        let aligned = at.checked_add(3).ok_or(SnapshotError::Truncated)? & !3;
        let end = aligned.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > body.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        let (gap_at, s_at, s_end) = (at as usize, aligned as usize, end as usize);
        if body[gap_at..s_at].iter().any(|&b| b != 0) {
            return Err(SnapshotError::Malformed("nonzero section alignment padding"));
        }
        let section = &body[s_at..s_end];
        if xxh64(section) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        // The section's absolute file offset, for mapped-arena windows.
        sections.push((section, DIR_END + s_at));
        at = end;
    }
    if at != body.len() as u64 {
        return Err(SnapshotError::Malformed("trailing bytes after payload"));
    }
    let (terms, preds) = decode_head_section(sections[0].0)?;
    let (tries, tries_off) = sections[1];
    let mapped = region.map(|region| (region, tries_off));
    let rels = decode_trie_section(tries, preds.len(), terms.len(), mapped)?;
    let load = match region {
        Some(region) => {
            LoadInfo { mode: LoadMode::Mmap, mapped_bytes: region.len() as u64, fallback: None }
        }
        None => LoadInfo::copied(),
    };
    let store = TripleStore::from_parts(terms, preds, rels).map_err(SnapshotError::Malformed)?;
    Ok(StoreSnapshot { store, load })
}

/// Decode the header section: dictionary terms in key order plus the
/// predicate registry.
fn decode_head_section(bytes: &[u8]) -> Result<(Vec<Term>, Vec<u32>), SnapshotError> {
    let mut c = Cursor { bytes, pos: 0 };
    let n_terms = c.u32()? as usize;
    let mut terms = Vec::with_capacity(n_terms.min(c.remaining()));
    for _ in 0..n_terms {
        let kind = c.u8()?;
        let text = c.string()?;
        terms.push(match kind {
            0 => Term::Iri(text),
            1 => Term::Literal(text),
            _ => return Err(SnapshotError::Malformed("unknown term kind")),
        });
    }
    let n_preds = c.u32()? as usize;
    let mut preds = Vec::with_capacity(n_preds.min(c.remaining()));
    let mut seen = HashSet::new();
    for _ in 0..n_preds {
        let pred = c.u32()?;
        if !seen.insert(pred) {
            return Err(SnapshotError::Malformed("duplicate predicate"));
        }
        if pred as usize >= terms.len() {
            return Err(SnapshotError::Malformed("predicate outside dictionary"));
        }
        preds.push(pred);
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Malformed("unconsumed section bytes"));
    }
    Ok((terms, preds))
}

/// Decode the trie section — `n_preds` relations of two trie records
/// each — running checks 1–3 (module docs) on every relation. With
/// `mapped` — the mapping `bytes` is a window of, plus the section's
/// absolute file offset in it — trie arenas are served in place instead
/// of copied.
fn decode_trie_section(
    bytes: &[u8],
    n_preds: usize,
    n_terms: usize,
    mapped: Option<(&Arc<MappedRegion>, usize)>,
) -> Result<Vec<TriePair>, SnapshotError> {
    let mut c = Cursor { bytes, pos: 0 };
    let mut rels = Vec::with_capacity(n_preds.min(c.remaining()));
    for _ in 0..n_preds {
        let so = decode_trie(&mut c, mapped)?;
        let os = decode_trie(&mut c, mapped)?;
        // An out-of-dictionary id surviving into a query result would
        // panic in `Dictionary::decode` much later, on a serving thread —
        // exactly the class of failure the never-panic guarantee exists
        // for. Bitset maxima are O(1), so this is O(blocks).
        if so.max_symbol().is_some_and(|m| m as usize >= n_terms) {
            return Err(SnapshotError::Malformed("trie id outside dictionary"));
        }
        // The two orders must describe the same relation, or the same
        // query would answer differently depending on which access order
        // the planner picks.
        if !is_transpose(&so, &os) {
            return Err(SnapshotError::Malformed("os trie is not the transpose of so"));
        }
        rels.push(TriePair::new(Arc::new(so), Arc::new(os)));
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Malformed("unconsumed section bytes"));
    }
    Ok(rels)
}

/// Decode and structurally validate one trie record (check 1).
fn decode_trie(
    c: &mut Cursor<'_>,
    mapped: Option<(&Arc<MappedRegion>, usize)>,
) -> Result<FrozenTrie, SnapshotError> {
    let num_tuples = c.u32()?;
    let mut levels = Vec::with_capacity(ARITY as usize);
    for _ in 0..ARITY {
        levels.push((c.u32()?, c.u32()?));
    }
    let arena_len = c.u32()? as usize;
    match mapped {
        None => {
            let arena = c.words(arena_len)?;
            FrozenTrie::from_raw_parts(ARITY, num_tuples, levels, arena)
        }
        Some((region, section_off)) => {
            let at = section_off.checked_add(c.pos()).ok_or(SnapshotError::Truncated)?;
            let n_bytes = arena_len.checked_mul(4).ok_or(SnapshotError::Truncated)?;
            // Advance past (and bounds-check) the arena words without
            // materialising them.
            c.take(n_bytes)?;
            // Fault the arena pages in the background while decode
            // continues: first-query latency should not eat the fault
            // storm.
            region.advise_willneed(at, n_bytes);
            FrozenTrie::from_shared_region(
                ARITY,
                num_tuples,
                levels,
                Arc::clone(region) as Arc<dyn ArenaBytes>,
                at,
                arena_len,
            )
        }
    }
    .map_err(SnapshotError::Malformed)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked payload reader: every accessor returns `Err` rather
/// than panicking past the end, and length-prefixed reads validate the
/// length against the remaining bytes *before* allocating.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current byte offset from the start of the payload — the mapped
    /// decode path turns this into an absolute file offset.
    fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("fixed slice")))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?.to_vec();
        String::from_utf8(bytes).map_err(|_| SnapshotError::Malformed("invalid utf-8 text"))
    }

    fn words(&mut self, n: usize) -> Result<Vec<u32>, SnapshotError> {
        let bytes = self.take(n.checked_mul(4).ok_or(SnapshotError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("fixed slice")))
            .collect())
    }
}

// ------------------------------------------------------------------ xxh64

const XXP1: u64 = 0x9E37_79B1_85EB_CA87;
const XXP2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXP3: u64 = 0x1656_67B1_9E37_79F9;
const XXP4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXP5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xx_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXP2)).rotate_left(31).wrapping_mul(XXP1)
}

#[inline]
fn xx_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("fixed slice"))
}

/// XXH64 (seed 0), implemented here because the workspace vendors no
/// external crates. Chosen over CRC-32 deliberately: the checksum runs
/// over the whole payload on the cold-start critical path, and the four
/// independent multiply lanes stream several bytes per cycle where a
/// table-driven CRC plods one — with 64 bits of equally good corruption
/// detection. (This checksum guards against *corruption*; it is not a
/// cryptographic integrity mechanism.)
///
/// Public because the write-ahead log (`eh-wal`) frames its records with
/// the same checksum — one hash function guards every byte this engine
/// persists.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut h: u64;
    let mut tail = bytes;
    if bytes.len() >= 32 {
        let stripes = bytes.chunks_exact(32);
        tail = stripes.remainder();
        let mut v1 = XXP1.wrapping_add(XXP2);
        let mut v2 = XXP2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(XXP1);
        for s in stripes {
            v1 = xx_round(v1, xx_u64(&s[0..8]));
            v2 = xx_round(v2, xx_u64(&s[8..16]));
            v3 = xx_round(v3, xx_u64(&s[16..24]));
            v4 = xx_round(v4, xx_u64(&s[24..32]));
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = (h ^ xx_round(0, v)).wrapping_mul(XXP1).wrapping_add(XXP4);
        }
    } else {
        h = XXP5;
    }
    h = h.wrapping_add(len);
    while tail.len() >= 8 {
        h = (h ^ xx_round(0, xx_u64(tail))).rotate_left(27).wrapping_mul(XXP1).wrapping_add(XXP4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let k = u32::from_le_bytes(tail[..4].try_into().expect("fixed slice")) as u64;
        h = (h ^ k.wrapping_mul(XXP1)).rotate_left(23).wrapping_mul(XXP2).wrapping_add(XXP3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(XXP5)).rotate_left(11).wrapping_mul(XXP1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXP2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXP3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;
    use eh_trie::LayoutPolicy;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn sample_store() -> TripleStore {
        TripleStore::from_triples(vec![
            t("s1", "p", "o1"),
            t("s1", "p", "o2"),
            t("s2", "p", "o1"),
            t("s1", "q", "o2"),
            Triple::new(Term::iri("s2"), Term::iri("q"), Term::literal("lit \"x\"\n")),
        ])
    }

    fn wide_triples() -> Vec<Triple> {
        let mut v = Vec::new();
        for i in 0..32u32 {
            v.push(t(&format!("s{i}"), "p", &format!("o{}", i % 5)));
            v.push(t(&format!("s{i}"), "q", "hub"));
        }
        v
    }

    fn trie_of(pairs: &[(u32, u32)]) -> Arc<FrozenTrie> {
        Arc::new(FrozenTrie::from_sorted_pairs(pairs, LayoutPolicy::Auto))
    }

    /// `store` reassembled with its first relation replaced by `edit`'s —
    /// none of the decoder's validation runs, so this is what the writer
    /// would emit for a store no honest build can produce.
    fn forged(store: &TripleStore, edit: impl FnOnce(&mut TriePair)) -> TripleStore {
        let terms = store.dict().iter().map(|(_, term)| term.clone()).collect();
        let mut rels = store.rels().to_vec();
        edit(&mut rels[0]);
        TripleStore::from_parts(terms, store.preds().to_vec(), rels).unwrap()
    }

    fn snapshot_bytes(store: &TripleStore) -> Vec<u8> {
        let mut buf = Vec::new();
        StoreSnapshot::write(store, &mut buf).unwrap();
        buf
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("eh-snap-{tag}-{}.snap", std::process::id()))
    }

    /// Both orders of every predicate hold the same tuples in `a` and `b`
    /// (content equality — storage backing may differ).
    fn assert_same_relations(a: &TripleStore, b: &TripleStore) {
        assert_eq!(a.preds(), b.preds());
        for (ra, rb) in a.rels().iter().zip(b.rels()) {
            assert_eq!(*ra.so, *rb.so);
            assert_eq!(*ra.os, *rb.os);
        }
    }

    /// Every trie of the store, both orders.
    fn all_tries(store: &TripleStore) -> Vec<Arc<FrozenTrie>> {
        store.rels().iter().flat_map(|r| [Arc::clone(&r.so), Arc::clone(&r.os)]).collect()
    }

    #[test]
    fn xxh64_reference_vectors() {
        // Canonical XXH64 (seed 0) vectors, cross-checked against the
        // reference implementation.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"The quick brown fox jumps over the lazy dog"), 0x0B24_2D36_1FDA_71BC);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let store = sample_store();
        let snap = StoreSnapshot::read(&snapshot_bytes(&store)[..]).unwrap();
        // Dictionary: identical keys and terms.
        assert_eq!(snap.store.dict().len(), store.dict().len());
        for (k, term) in store.dict().iter() {
            assert_eq!(snap.store.dict().decode(k), term);
        }
        // Relations: identical tries in both orders, identical stats.
        assert_same_relations(&store, &snap.store);
        assert_eq!(snap.store.stats(), store.stats());
        for iri in ["p", "q"] {
            let (a, b) = (store.pred_card(iri).unwrap(), snap.store.pred_card(iri).unwrap());
            assert_eq!(
                (a.len(), a.distinct_subjects(), a.distinct_objects()),
                (b.len(), b.distinct_subjects(), b.distinct_objects())
            );
        }
        assert_eq!(
            store.encoded_triples().collect::<Vec<_>>(),
            snap.store.encoded_triples().collect::<Vec<_>>()
        );
        assert!(snap.store.__invariant_check());
    }

    #[test]
    fn image_holds_each_relation_once() {
        // The trie section is its trie records and nothing else: two per
        // registered predicate, each a 24-byte header plus its arena.
        let record = |trie: &FrozenTrie| 24 + 4 * trie.raw_parts().3.len();
        let mut store = TripleStore::from_triples(wide_triples());
        // A predicate registered by a batch that cancelled out still owns
        // its (empty) records.
        store.stage_add_triples(vec![t("x", "r", "y")]);
        store.stage_remove_triples(vec![t("x", "r", "y")]);
        assert!(!store.has_deltas());
        assert_eq!(store.stats().predicates, 3);
        let [_, tries] = encode_sections(&store);
        assert_eq!(store.rels().len(), store.stats().predicates);
        let expect: usize = store.rels().iter().map(|r| record(&r.so) + record(&r.os)).sum();
        assert_eq!(tries.len(), expect);
        let snap = StoreSnapshot::read(&snapshot_bytes(&store)[..]).unwrap();
        assert_same_relations(&store, &snap.store);
    }

    #[test]
    fn loaded_store_stays_mutable() {
        let store = sample_store();
        let mut loaded = StoreSnapshot::read(&snapshot_bytes(&store)[..]).unwrap().store;
        let report = loaded.stage_add_triples(vec![t("s9", "p", "o9"), t("s9", "r", "o9")]);
        assert_eq!(report.added, 2);
        assert_eq!(loaded.num_triples(), store.num_triples() + 2);
        let report = loaded.stage_remove_triples(vec![t("s1", "p", "o1")]);
        assert_eq!(report.removed, 1);
        loaded.compact_all();
        assert_eq!(loaded.num_triples(), store.num_triples() + 1);
        assert!(loaded.__invariant_check());
    }

    #[test]
    fn empty_store_roundtrips() {
        let snap = StoreSnapshot::read(&snapshot_bytes(&TripleStore::new())[..]).unwrap();
        assert_eq!(snap.store.dict().len(), 0);
        assert_eq!(snap.store.stats().predicates, 0);
    }

    #[test]
    fn bad_magic_version_truncation_and_checksum() {
        let store = sample_store();
        let good = snapshot_bytes(&store);

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(StoreSnapshot::read(&bad[..]), Err(SnapshotError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99;
        assert!(matches!(StoreSnapshot::read(&bad[..]), Err(SnapshotError::BadVersion(99))));

        for cut in [0, 7, 12, 19, 24, 43, good.len() / 2, good.len() - 1] {
            assert!(
                matches!(StoreSnapshot::read(&good[..cut]), Err(SnapshotError::Truncated)),
                "cut at {cut}"
            );
        }

        // Flipping a byte inside any section must trip that section's
        // checksum.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(StoreSnapshot::read(&bad[..]), Err(SnapshotError::ChecksumMismatch)));

        let mut extended = good.clone();
        extended.push(0);
        assert!(StoreSnapshot::read(&extended[..]).is_err());
    }

    #[test]
    fn corrupt_section_directories_are_typed_errors() {
        let good = snapshot_bytes(&TripleStore::from_triples(wide_triples()));

        // A directory length pointing past the file, for either section.
        for entry in [12, 28] {
            let mut bad = good.clone();
            bad[entry..entry + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            assert!(matches!(StoreSnapshot::read(&bad[..]), Err(SnapshotError::Truncated)));
        }

        // A directory checksum that no longer matches its section.
        for entry in [20, 36] {
            let mut bad = good.clone();
            bad[entry] ^= 0xFF;
            assert!(matches!(StoreSnapshot::read(&bad[..]), Err(SnapshotError::ChecksumMismatch)));
        }
    }

    #[test]
    fn single_byte_mutations_never_panic() {
        // The corruption property, exhaustively for small snapshots: every
        // single-byte mutation either still reads (a single flip never
        // collides the checksum, but stay permissive) or returns a typed
        // error — it must never panic. The workspace-level proptest widens
        // this to random multi-byte mutations over random stores.
        let cases = [
            vec![t("a", "p", "b")],
            vec![t("a", "p", "b"), t("c", "p", "d"), t("e", "p", "f"), t("a", "q", "f")],
        ]
        .map(|triples| snapshot_bytes(&TripleStore::from_triples(triples)));
        for good in cases {
            for i in 0..good.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = good.clone();
                    bad[i] ^= flip;
                    let _ = StoreSnapshot::read(&bad[..]);
                }
            }
        }
    }

    #[test]
    fn checksum_valid_out_of_dictionary_ids_are_rejected() {
        // A snapshot can be internally consistent (good magic, version,
        // checksum, `os` the transpose of `so`) and still carry ids the
        // dictionary cannot decode; reading one must be a typed error,
        // never a later decode panic.
        let store = TripleStore::from_triples(vec![t("a", "p", "b")]);
        let rogue = forged(&store, |rel| {
            rel.so = trie_of(&[(7, 8)]);
            rel.os = trie_of(&[(8, 7)]);
        });
        assert!(
            matches!(
                StoreSnapshot::read(&snapshot_bytes(&rogue)[..]),
                Err(SnapshotError::Malformed(m)) if m.contains("dictionary")
            ),
            "out-of-dictionary trie value must be rejected"
        );
    }

    #[test]
    fn an_os_trie_that_is_not_the_transpose_is_malformed_on_both_read_paths() {
        // Each order valid on its own, checksums valid, ids in range —
        // but the two orders describe different relations, so the same
        // query would answer differently depending on the access order
        // the planner picks.
        let store = TripleStore::from_triples(vec![
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("d", "p", "b"),
            t("d", "p", "a"),
        ]);
        let os: Vec<(u32, u32)> = store.rels()[0].os.pairs().collect();
        let mut altered = os.clone();
        let last = os.len() - 1;
        altered[last].1 = os[0].1; // (c, a) -> (c, d): (d, c) is not in `so`
        let dropped = os[1..].to_vec();
        let path = temp_path("not-transposed");
        for (label, os) in [("altered", altered), ("dropped", dropped)] {
            let bad = forged(&store, |rel| rel.os = trie_of(&os));
            let bytes = snapshot_bytes(&bad);
            std::fs::write(&path, &bytes).unwrap();
            for result in
                [StoreSnapshot::read(&bytes[..]), StoreSnapshot::open(&path, LoadMode::Mmap)]
            {
                assert!(
                    matches!(result, Err(SnapshotError::Malformed(m)) if m.contains("transpose")),
                    "{label}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_registry_entries_are_rejected() {
        // `by_pred` would answer from one relation while whole-store
        // iteration sees both.
        let store = sample_store();
        let terms = store.dict().iter().map(|(_, term)| term.clone()).collect();
        let p = store.preds()[0];
        let rel = store.rels()[0].clone();
        let twin = TripleStore::from_parts(terms, vec![p, p], vec![rel.clone(), rel]).unwrap();
        assert!(matches!(
            StoreSnapshot::read(&snapshot_bytes(&twin)[..]),
            Err(SnapshotError::Malformed(m)) if m.contains("duplicate")
        ));
    }

    mod corruption_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The corruption-hardening property (randomised): arbitrary
            /// multi-byte mutations of a small valid snapshot either read
            /// back (only possible when the flips are all no-ops) or
            /// return a typed error — truncation, bad magic/version,
            /// checksum mismatch, or malformed structure — never a panic.
            #[test]
            fn random_mutations_return_err_not_panic(
                flips in proptest::collection::vec((0usize..2048, 1u8..=255), 1..16),
                cut in 0usize..4096,
            ) {
                let store = TripleStore::from_triples(vec![
                    t("a", "p", "b"),
                    t("a", "p", "c"),
                    t("b", "q", "c"),
                ]);
                let good = snapshot_bytes(&store);
                let mut bad = good.clone();
                for &(pos, mask) in &flips {
                    let pos = pos % bad.len();
                    bad[pos] ^= mask;
                }
                if cut < bad.len() * 2 {
                    // Half the cut range truncates, half leaves the file
                    // whole, so both shapes are exercised.
                    bad.truncate(cut.min(bad.len()));
                }
                match StoreSnapshot::read(&bad[..]) {
                    Ok(snap) => {
                        // Only reachable when every flip cancelled out.
                        prop_assert_eq!(bad, good);
                        prop_assert_eq!(snap.store.num_triples(), store.num_triples());
                    }
                    Err(e) => {
                        // The error renders; corruption is diagnosable.
                        prop_assert!(!e.to_string().is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn mmap_load_is_zero_copy_and_identical() {
        let store = TripleStore::from_triples(wide_triples());
        let path = temp_path("mmap-identical");
        let total = StoreSnapshot::write_to_path(&store, &path).unwrap();
        assert_eq!(total, std::fs::metadata(&path).unwrap().len());
        let copied = StoreSnapshot::open(&path, LoadMode::Copy).unwrap();
        assert!(all_tries(&copied.store).iter().all(|t| !t.is_shared()));
        let mapped = StoreSnapshot::open(&path, LoadMode::Mmap).unwrap();
        assert_eq!(mapped.load.mode, LoadMode::Mmap);
        assert_eq!(mapped.load.mapped_bytes, total);
        assert!(mapped.load.fallback.is_none());
        assert!(
            all_tries(&mapped.store).iter().all(|t| t.is_shared()),
            "every base trie serves from the mapping, not a copy"
        );
        assert_same_relations(&mapped.store, &copied.store);
        assert_same_relations(&mapped.store, &store);
        // A mapped load stays as mutable as a copy load.
        let mut s = mapped.store;
        assert_eq!(s.stage_add_triples(vec![t("new", "p", "o")]).added, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_images_fail_as_bad_version() {
        // The v1 (magic, version, payload length, checksum: 28 bytes) and
        // v2–v4 (magic, version, two u32 header fields: 20 bytes) headers,
        // forged by hand — nothing in this build can write them. The
        // magic alone decides; nothing behind it is decoded.
        let mut v1 = b"EHSNAP01".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes());
        v1.extend_from_slice(&xxh64(b"").to_le_bytes());
        let sectioned = |version: u32| {
            let mut image = format!("EHSNAP0{version}").into_bytes();
            image.extend_from_slice(&version.to_le_bytes());
            image.extend_from_slice(&1u32.to_le_bytes());
            image.extend_from_slice(&2u32.to_le_bytes());
            image
        };
        let (v2, v3, v4) = (sectioned(2), sectioned(3), sectioned(4));
        assert_eq!((v1.len(), v2.len(), v3.len(), v4.len()), (28, 20, 20, 20));
        let path = temp_path("retired");
        for (image, version) in [(v1, 1), (v2, 2), (v3, 3), (v4, 4)] {
            std::fs::write(&path, &image).unwrap();
            for result in [
                StoreSnapshot::read(&image[..]),
                StoreSnapshot::open(&path, LoadMode::Copy),
                StoreSnapshot::open(&path, LoadMode::Mmap),
            ] {
                assert!(
                    matches!(result, Err(SnapshotError::BadVersion(v)) if v == version),
                    "v{version}"
                );
            }
        }
        let message = SnapshotError::BadVersion(4).to_string();
        assert!(message.contains("version 4") && message.contains("reads 5"), "{message}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_single_byte_mutations_never_panic() {
        // The never-panic property, through the mapped entry point: every
        // single-byte flip of a small image either loads (impossible
        // here — a flip never cancels) or returns a typed error.
        // Corruption in a mapped arena must be caught by the eager
        // checksum/validation at load, never by a later fault.
        let store = TripleStore::from_triples(vec![
            t("a", "p", "b"),
            t("c", "p", "d"),
            t("e", "p", "f"),
            t("a", "q", "f"),
        ]);
        let good = snapshot_bytes(&store);
        let path = temp_path("mmap-mutations");
        for i in 0..good.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= flip;
                std::fs::write(&path, &bad).unwrap();
                match StoreSnapshot::open(&path, LoadMode::Mmap) {
                    Ok(snap) => {
                        // Stay permissive, as on the copy path: a load
                        // that does succeed must be coherent.
                        assert_eq!(snap.store.num_triples(), store.num_triples());
                    }
                    Err(e) => assert!(!e.to_string().is_empty()),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_over_mapped_path_leaves_live_mapping_intact() {
        // The atomic-rename guarantee: re-SAVEing over a path that is
        // currently mapped must not write through the live mapping —
        // the old inode survives until the mapping drops.
        let before = TripleStore::from_triples(vec![t("a", "p", "b"), t("c", "p", "d")]);
        let path = temp_path("mmap-atomic");
        StoreSnapshot::write_to_path(&before, &path).unwrap();
        let mapped = StoreSnapshot::open(&path, LoadMode::Mmap).unwrap();
        assert_eq!(mapped.load.mode, LoadMode::Mmap);
        let arenas = |store: &TripleStore| -> Vec<Vec<u32>> {
            all_tries(store).iter().map(|t| t.raw_parts().3.to_vec()).collect()
        };
        let arenas_before = arenas(&mapped.store);
        // Overwrite the path with a different store.
        let after = TripleStore::from_triples(vec![t("x", "q", "y")]);
        StoreSnapshot::write_to_path(&after, &path).unwrap();
        // The live mapping still serves the old bytes, bit for bit...
        assert_eq!(arenas(&mapped.store), arenas_before);
        assert_same_relations(&mapped.store, &before);
        // ...a fresh load sees the new store...
        let reread = StoreSnapshot::open(&path, LoadMode::Mmap).unwrap();
        assert_eq!(reread.store.num_triples(), after.num_triples());
        // ...and no temp litter survives the rename.
        let dir = path.parent().unwrap();
        let litter: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".snap.tmp."))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_reports_total_bytes() {
        let store = sample_store();
        let mut buf = Vec::new();
        let n = StoreSnapshot::write(&store, &mut buf).unwrap();
        assert_eq!(n, buf.len() as u64);
        assert!(n > 24);
    }

    #[test]
    fn path_roundtrip() {
        let store = sample_store();
        let path = std::env::temp_dir().join(format!("eh-snap-test-{}.snap", std::process::id()));
        StoreSnapshot::write_to_path(&store, &path).unwrap();
        let snap = StoreSnapshot::open(&path, LoadMode::Copy).unwrap();
        assert_eq!(snap.store.num_triples(), store.num_triples());
        std::fs::remove_file(&path).ok();
        // A missing file is an I/O error in both modes, not a fallback.
        for mode in [LoadMode::Copy, LoadMode::Mmap] {
            let err = StoreSnapshot::open(&path, mode).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
                "{mode}: {err}"
            );
        }
    }
}
