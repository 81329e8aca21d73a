//! `.trace2` — the zero-copy binary columnar trace format.
//!
//! This is the only on-disk form of a [`Dataset`]: the trace cache, the
//! benchmark's SCALE file and the `trace_explorer` example all save and
//! load through it. Every column is a contiguous little-endian array, so
//! loading is one `fs::read` into a single `Vec<u8>` followed by
//! fixed-stride `from_le_bytes` scans over borrowed slices (no unsafe, no
//! external crates, no per-record allocation beyond the output structs
//! themselves). The dominant invocation section decodes sequentially,
//! each row straight into the dataset's [`Probes`] store, allocated once
//! at its final size: the load's peak is the file buffer plus the dataset.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! header   : magic "DTRACE2\n" (8) | version u32 | section_count u32
//! table    : section_count × { id u32 | reserved u32 | offset u64 | len u64 | checksum u64 }
//! payloads : concatenated section bodies, in table order
//! ```
//!
//! Sections (all six are required, each exactly once):
//!
//! | id | section     | body                                                            |
//! |----|-------------|-----------------------------------------------------------------|
//! | 1  | meta        | duration_s f64, starved_pairs u64, name_len u32, name bytes     |
//! | 2  | hosts       | n u32; id u32×n; asn u16×n; flags u8×n; name_off u32×(n+1); blob|
//! | 3  | aspaths     | n u32; off u32×(n+1) (u16 units); asns u16×off\[n\]             |
//! | 4  | invocations | n u32; src u32×n; dst u32×n; t_s f64×n; first_index u8×n;       |
//! |    |             | mask u16×n; rtt f64×3n; episode u32×n; path_idx u32×n           |
//! | 5  | transfers   | n u32; src u32×n; dst u32×n; t_s f64×n; rtt f64×n;              |
//! |    |             | loss f64×n; bandwidth f64×n                                     |
//! | 6  | ratelimited | n u32; id u32×n                                                 |
//!
//! Each invocation row is one [`ProbeRow`]: the probes of one traceroute
//! invocation, which share `src`, `dst`, `t_s`, `episode` and `path_idx`,
//! with three RTT cells (slot `k` holds probe index `first_index + k`;
//! `first_index` is 0 in every trace a campaign writes). Invocation
//! `mask` (the in-memory [`ProbeRow::mask`]): bit `k` = slot `k` holds a
//! probe, bit `3 + k` = its RTT is present, bit `6 + k` = it is
//! loss-eligible, bit 9 = episode present. Bits 10–15 are reserved, and a
//! row whose mask sets one, holds no slot, marks an RTT or eligibility on
//! an empty slot, or whose slots run past probe index 255 is a
//! [`Trace2Error::BadValue`] at its mask. Absent rtt/episode cells are
//! written as zero and ignored on read, so `Option` round-trips exactly
//! and every column keeps a fixed stride. Rows are read back through
//! [`Probes::push_row`], so the store is packed canonically whatever the
//! writer did.
//!
//! The decoder checks structure only: section extents, counts, offsets,
//! flag bits and UTF-8 names, each fault a [`Trace2Error::BadValue`] or
//! one of the other structural variants. The values themselves (unique
//! hosts, listed endpoints, sample times inside the trace, positive RTTs,
//! loss rates in `[0, 1]`, AS-path indices inside the pool, …) are
//! [`Dataset::new`]'s rules: the decoded columns go through it, and a
//! broken rule is a [`Trace2Error::Dataset`] naming the field and row.
//!
//! `f64` columns store raw IEEE-754 bits, so the decoded [`Dataset`] is
//! *bit-identical* to the one that was saved, with no float formatting or
//! parsing on either side.
//!
//! ## Versioning & integrity
//!
//! Any layout change bumps `VERSION`; readers reject unknown versions,
//! unknown section ids, duplicate or missing sections, and out-of-bounds
//! section extents with a typed [`Trace2Error`] — never a panic, never a
//! silent mis-parse (the trace cache quarantines on any of them). Each
//! section carries a checksum (FNV-1a folded over 8-byte words plus the
//! tail and length — see [`checksum`]) verified before decode, so
//! truncation and bit rot fail loudly rather than load as data.
//!
//! Error contexts are plain offsets and ids (`Copy`, no `String`s): the
//! load path allocates nothing on failure paths either.

use std::path::Path;

use detour_measure::{Dataset, DatasetError, HostMeta, ProbeRow, Probes, TransferSample};
use detour_netsim::HostId;

/// The 8-byte magic at offset 0.
pub const MAGIC: [u8; 8] = *b"DTRACE2\n";

/// Current format version. Bump on *any* layout change. Version 1 stored
/// one row per probe; version 2 stores one row per invocation.
pub const VERSION: u32 = 2;

/// Number of sections a file carries.
const SECTIONS: usize = 6;

/// Header length: magic + version + section count.
const HEADER_LEN: usize = 16;

/// Bytes per section-table entry.
const TABLE_ENTRY_LEN: usize = 32;

/// Section ids, in file order.
const SEC_META: u32 = 1;
const SEC_HOSTS: u32 = 2;
const SEC_ASPATHS: u32 = 3;
const SEC_INVOCATIONS: u32 = 4;
const SEC_TRANSFERS: u32 = 5;
const SEC_RATELIMITED: u32 = 6;

/// What went wrong loading a `.trace2` file. Every variant carries only
/// `Copy` context — section ids and byte offsets — so constructing an
/// error allocates nothing and the hot path stays clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace2Error {
    /// Shorter than the fixed header.
    TooShort {
        /// Actual file length.
        len: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// A version this reader does not understand.
    UnsupportedVersion(u32),
    /// The declared section table does not fit in the file.
    TableTruncated {
        /// Declared section count.
        sections: u32,
    },
    /// A section id this version does not define.
    UnknownSection {
        /// The offending id.
        id: u32,
    },
    /// The same section id appears twice.
    DuplicateSection {
        /// The duplicated id.
        id: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent id.
        id: u32,
    },
    /// A section's `(offset, len)` extent falls outside the file.
    SectionOutOfBounds {
        /// Section id.
        id: u32,
        /// Declared byte offset.
        offset: u64,
        /// Declared byte length.
        len: u64,
    },
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// Section id.
        id: u32,
        /// Checksum recorded in the table.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// A section body is shorter than its own counts claim.
    SectionTruncated {
        /// Section id.
        id: u32,
        /// Byte offset *within the section* where the read fell off.
        offset: usize,
    },
    /// A section body is longer than its counts account for.
    TrailingBytes {
        /// Section id.
        id: u32,
        /// Offset within the section where decoding stopped.
        offset: usize,
    },
    /// A reserved table field that must be zero holds a nonzero value.
    ReservedNonZero {
        /// Section id of the offending table entry.
        id: u32,
    },
    /// A value that has no valid decoding (reserved flag bits set, name
    /// offsets out of order, non-UTF-8 name bytes, …).
    BadValue {
        /// Section id.
        id: u32,
        /// Byte offset within the section of the offending value.
        offset: usize,
    },
    /// The file decodes, but its columns break a [`Dataset::new`] rule.
    Dataset(DatasetError),
}

impl std::fmt::Display for Trace2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Trace2Error::TooShort { len } => {
                write!(f, "trace2 file too short ({len} bytes)")
            }
            Trace2Error::BadMagic => write!(f, "trace2 magic mismatch"),
            Trace2Error::UnsupportedVersion(v) => {
                write!(f, "unsupported trace2 version {v} (this reader understands v{VERSION})")
            }
            Trace2Error::TableTruncated { sections } => {
                write!(f, "trace2 section table truncated ({sections} sections declared)")
            }
            Trace2Error::UnknownSection { id } => write!(f, "unknown trace2 section id {id}"),
            Trace2Error::DuplicateSection { id } => write!(f, "duplicate trace2 section id {id}"),
            Trace2Error::MissingSection { id } => write!(f, "missing trace2 section id {id}"),
            Trace2Error::SectionOutOfBounds { id, offset, len } => write!(
                f,
                "trace2 section {id} extent {offset}+{len} falls outside the file"
            ),
            Trace2Error::ChecksumMismatch {
                id,
                stored,
                computed,
            } => write!(
                f,
                "trace2 section {id} checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            Trace2Error::ReservedNonZero { id } => {
                write!(f, "trace2 section {id} table entry has nonzero reserved bytes")
            }
            Trace2Error::SectionTruncated { id, offset } => {
                write!(f, "trace2 section {id} truncated at byte {offset}")
            }
            Trace2Error::TrailingBytes { id, offset } => {
                write!(f, "trace2 section {id} has trailing bytes after offset {offset}")
            }
            Trace2Error::BadValue { id, offset } => {
                write!(f, "trace2 section {id} holds an invalid value at byte {offset}")
            }
            Trace2Error::Dataset(e) => write!(f, "trace2 file holds an invalid dataset: {e}"),
        }
    }
}

impl std::error::Error for Trace2Error {}

/// Section checksum: FNV-1a 64 folded over little-endian 8-byte words,
/// then the byte tail, then the total length. Word-at-a-time keeps the
/// verify pass an order of magnitude cheaper than byte-wise FNV on the
/// multi-megabyte invocation section while still catching every single-bit
/// flip and truncation the corruption corpus throws at it.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h ^= v;
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming `.trace2` writer: sections are encoded straight into one
/// output buffer (header and table space reserved up front, table
/// backfilled on [`Writer::finish`]), so serialization makes a single
/// pass over the dataset with no intermediate per-record allocation.
struct Writer {
    out: Vec<u8>,
    /// `(id, payload_start)` of the section currently open.
    open: Option<(u32, usize)>,
    /// Finished `(id, offset, len, checksum)` rows.
    table: Vec<(u32, u64, u64, u64)>,
}

impl Writer {
    fn new(sections: usize, size_hint: usize) -> Writer {
        let preamble = HEADER_LEN + sections * TABLE_ENTRY_LEN;
        let mut out = Vec::with_capacity(preamble + size_hint);
        out.resize(preamble, 0);
        Writer {
            out,
            open: None,
            table: Vec::with_capacity(sections),
        }
    }

    fn begin(&mut self, id: u32) {
        debug_assert!(self.open.is_none(), "section {id} opened inside another");
        self.open = Some((id, self.out.len()));
    }

    fn end(&mut self) {
        let (id, start) = self.open.take().expect("no open section");
        let payload = &self.out[start..];
        self.table
            .push((id, start as u64, payload.len() as u64, checksum(payload)));
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }

    fn finish(mut self) -> Vec<u8> {
        debug_assert!(self.open.is_none(), "finish with a section still open");
        self.out[..8].copy_from_slice(&MAGIC);
        self.out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        self.out[12..16].copy_from_slice(&(self.table.len() as u32).to_le_bytes());
        for (i, &(id, off, len, sum)) in self.table.iter().enumerate() {
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            self.out[at..at + 4].copy_from_slice(&id.to_le_bytes());
            self.out[at + 4..at + 8].copy_from_slice(&0u32.to_le_bytes());
            self.out[at + 8..at + 16].copy_from_slice(&off.to_le_bytes());
            self.out[at + 16..at + 24].copy_from_slice(&len.to_le_bytes());
            self.out[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
        }
        self.out
    }
}

/// Serializes a dataset to the binary format.
pub fn to_bytes(ds: &Dataset) -> Vec<u8> {
    let rows = ds.probes.rows();
    let nt = ds.transfers.len();
    // Strides: invocations 51 B/row, transfers 40 B/row, plus small
    // sections.
    let hint = rows.len() * 51 + nt * 40 + ds.hosts.len() * 64 + ds.as_paths.len() * 16 + 256;
    let mut w = Writer::new(SECTIONS, hint);

    w.begin(SEC_META);
    w.f64(ds.duration_s);
    w.u64(ds.starved_pairs as u64);
    w.u32(ds.name.len() as u32);
    w.bytes(ds.name.as_bytes());
    w.end();

    w.begin(SEC_HOSTS);
    w.u32(ds.hosts.len() as u32);
    for h in &ds.hosts {
        w.u32(h.id.0);
    }
    for h in &ds.hosts {
        w.u16(h.asn);
    }
    for h in &ds.hosts {
        w.u8(h.truly_rate_limited as u8);
    }
    let mut off = 0u32;
    w.u32(off);
    for h in &ds.hosts {
        off += h.name.len() as u32;
        w.u32(off);
    }
    for h in &ds.hosts {
        w.bytes(h.name.as_bytes());
    }
    w.end();

    w.begin(SEC_ASPATHS);
    w.u32(ds.as_paths.len() as u32);
    let mut off = 0u32;
    w.u32(off);
    for p in &ds.as_paths {
        off += p.len() as u32;
        w.u32(off);
    }
    for p in &ds.as_paths {
        for &a in p {
            w.u16(a);
        }
    }
    w.end();

    w.begin(SEC_INVOCATIONS);
    w.u32(rows.len() as u32);
    for r in rows {
        w.u32(r.src.0);
    }
    for r in rows {
        w.u32(r.dst.0);
    }
    for r in rows {
        w.f64(r.t_s);
    }
    for r in rows {
        w.u8(r.first_index());
    }
    for r in rows {
        w.u16(r.mask());
    }
    for r in rows {
        for k in 0..3 {
            w.f64(r.rtt(k).unwrap_or(0.0));
        }
    }
    for r in rows {
        w.u32(r.episode().unwrap_or(0));
    }
    for r in rows {
        w.u32(r.path_idx);
    }
    w.end();

    w.begin(SEC_TRANSFERS);
    w.u32(nt as u32);
    for t in &ds.transfers {
        w.u32(t.src.0);
    }
    for t in &ds.transfers {
        w.u32(t.dst.0);
    }
    for t in &ds.transfers {
        w.f64(t.t_s);
    }
    for t in &ds.transfers {
        w.f64(t.rtt_ms);
    }
    for t in &ds.transfers {
        w.f64(t.loss_rate);
    }
    for t in &ds.transfers {
        w.f64(t.bandwidth_kbps);
    }
    w.end();

    w.begin(SEC_RATELIMITED);
    w.u32(ds.detected_rate_limited.len() as u32);
    for h in &ds.detected_rate_limited {
        w.u32(h.0);
    }
    w.end();

    w.finish()
}

/// Writes a dataset to `path` in the binary format.
pub fn save(ds: &Dataset, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(ds))
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over one section's bytes. Every read returns a
/// borrowed slice of the file buffer (zero copies until the final typed
/// column materializes) or a typed error carrying the in-section offset.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    id: u32,
}

impl<'a> Cur<'a> {
    fn new(id: u32, buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0, id }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Trace2Error> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(Trace2Error::SectionTruncated {
                id: self.id,
                offset: self.pos,
            })?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(Trace2Error::SectionTruncated {
                id: self.id,
                offset: self.pos,
            })?;
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, Trace2Error> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, Trace2Error> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, Trace2Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A column of `n` fixed-`stride` elements, as one borrowed slice.
    fn column(&mut self, n: usize, stride: usize) -> Result<&'a [u8], Trace2Error> {
        let bytes = n.checked_mul(stride).ok_or(Trace2Error::SectionTruncated {
            id: self.id,
            offset: self.pos,
        })?;
        self.take(bytes)
    }

    /// The section must be fully consumed: counts and length must agree.
    fn done(self) -> Result<(), Trace2Error> {
        if self.pos != self.buf.len() {
            return Err(Trace2Error::TrailingBytes {
                id: self.id,
                offset: self.pos,
            });
        }
        Ok(())
    }
}

/// Reads element `i` of a `u16` column slice (length pre-validated).
#[inline]
fn col_u16(col: &[u8], i: usize) -> u16 {
    u16::from_le_bytes(col[i * 2..i * 2 + 2].try_into().expect("2 bytes"))
}

/// Reads element `i` of a `u32` column slice (length pre-validated).
#[inline]
fn col_u32(col: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
}

/// Reads element `i` of an `f64` column slice (length pre-validated).
#[inline]
fn col_f64(col: &[u8], i: usize) -> f64 {
    f64::from_bits(u64::from_le_bytes(
        col[i * 8..i * 8 + 8].try_into().expect("8 bytes"),
    ))
}

/// The validated section table: payload slices by fixed position.
fn section_table(buf: &[u8]) -> Result<[&[u8]; SECTIONS], Trace2Error> {
    if buf.len() < HEADER_LEN {
        return Err(Trace2Error::TooShort { len: buf.len() });
    }
    if buf[..8] != MAGIC {
        return Err(Trace2Error::BadMagic);
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(Trace2Error::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
    let table_len = (count as usize)
        .checked_mul(TABLE_ENTRY_LEN)
        .and_then(|n| n.checked_add(HEADER_LEN))
        .filter(|&end| end <= buf.len())
        .ok_or(Trace2Error::TableTruncated { sections: count })?;
    let mut sections: [Option<&[u8]>; SECTIONS] = [None; SECTIONS];
    for entry in buf[HEADER_LEN..table_len].chunks_exact(TABLE_ENTRY_LEN) {
        let id = u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"));
        if entry[4..8] != [0, 0, 0, 0] {
            return Err(Trace2Error::ReservedNonZero { id });
        }
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
        let stored = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
        let slot = match id {
            SEC_META..=SEC_RATELIMITED => (id - 1) as usize,
            _ => return Err(Trace2Error::UnknownSection { id }),
        };
        if sections[slot].is_some() {
            return Err(Trace2Error::DuplicateSection { id });
        }
        let payload = usize::try_from(offset)
            .ok()
            .zip(usize::try_from(len).ok())
            .and_then(|(o, l)| o.checked_add(l).map(|end| (o, end)))
            .and_then(|(o, end)| buf.get(o..end))
            .ok_or(Trace2Error::SectionOutOfBounds { id, offset, len })?;
        let computed = checksum(payload);
        if computed != stored {
            return Err(Trace2Error::ChecksumMismatch {
                id,
                stored,
                computed,
            });
        }
        sections[slot] = Some(payload);
    }
    let mut out: [&[u8]; SECTIONS] = [&[]; SECTIONS];
    for (i, s) in sections.into_iter().enumerate() {
        out[i] = s.ok_or(Trace2Error::MissingSection { id: i as u32 + 1 })?;
    }
    Ok(out)
}

/// Decodes the invocation section straight into a store allocated once
/// at its row count, after every column's extent is checked.
fn decode_invocations(sec: &[u8]) -> Result<Probes, Trace2Error> {
    let mut cur = Cur::new(SEC_INVOCATIONS, sec);
    let n = cur.u32()? as usize;
    let src = cur.column(n, 4)?;
    let dst = cur.column(n, 4)?;
    let t_s = cur.column(n, 8)?;
    let first_index = cur.column(n, 1)?;
    let mask_at = cur.pos;
    let mask = cur.column(n, 2)?;
    let rtt = cur.column(n, 24)?;
    let episode = cur.column(n, 4)?;
    let path_idx = cur.column(n, 4)?;
    cur.done()?;
    let mut probes = Probes::with_capacity(n);
    for (i, &first_index) in first_index.iter().enumerate() {
        let row = ProbeRow::from_cells(
            (HostId(col_u32(src, i)), HostId(col_u32(dst, i))),
            col_f64(t_s, i),
            col_u32(path_idx, i),
            col_u32(episode, i),
            first_index,
            col_u16(mask, i),
            std::array::from_fn(|k| col_f64(rtt, 3 * i + k)),
        )
        .ok_or(Trace2Error::BadValue {
            id: SEC_INVOCATIONS,
            offset: mask_at + 2 * i,
        })?;
        probes.push_row(row);
    }
    Ok(probes)
}

/// Decodes a `(count, offsets, blob)` section pair into per-item slices,
/// validating that offsets are monotone and end exactly at the blob size.
fn decode_offsets(cur: &mut Cur<'_>, n: usize) -> Result<Vec<u32>, Trace2Error> {
    let at = cur.pos;
    let raw = cur.column(n + 1, 4)?;
    let mut offs = Vec::with_capacity(n + 1);
    let mut prev = 0u32;
    for i in 0..=n {
        let o = col_u32(raw, i);
        if (i == 0 && o != 0) || o < prev {
            return Err(Trace2Error::BadValue {
                id: cur.id,
                offset: at + i * 4,
            });
        }
        prev = o;
        offs.push(o);
    }
    Ok(offs)
}

/// Parses the binary format from one borrowed buffer.
pub fn from_bytes(buf: &[u8]) -> Result<Dataset, Trace2Error> {
    let [meta, hosts, aspaths, invocations, transfers, ratelimited] = section_table(buf)?;

    // meta
    let mut cur = Cur::new(SEC_META, meta);
    let duration_s = cur.f64()?;
    let starved = usize::try_from(cur.u64()?).map_err(|_| Trace2Error::BadValue {
        id: SEC_META,
        offset: 8,
    })?;
    let name_len = cur.u32()? as usize;
    let name_at = cur.pos;
    let name_bytes = cur.take(name_len)?;
    cur.done()?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|e| Trace2Error::BadValue {
            id: SEC_META,
            offset: name_at + e.valid_up_to(),
        })?
        .to_string();

    // hosts
    let mut cur = Cur::new(SEC_HOSTS, hosts);
    let n = cur.u32()? as usize;
    let ids = cur.column(n, 4)?;
    let asns = cur.column(n, 2)?;
    let flags_at = cur.pos;
    let flags = cur.column(n, 1)?;
    let offs = decode_offsets(&mut cur, n)?;
    let blob_at = cur.pos;
    let blob = cur.take(*offs.last().unwrap_or(&0) as usize)?;
    cur.done()?;
    let mut host_meta = Vec::with_capacity(n);
    for i in 0..n {
        match flags[i] {
            0 | 1 => {}
            _ => {
                return Err(Trace2Error::BadValue {
                    id: SEC_HOSTS,
                    offset: flags_at + i,
                })
            }
        }
        let (a, b) = (offs[i] as usize, offs[i + 1] as usize);
        let name = std::str::from_utf8(&blob[a..b]).map_err(|e| Trace2Error::BadValue {
            id: SEC_HOSTS,
            offset: blob_at + a + e.valid_up_to(),
        })?;
        host_meta.push(HostMeta {
            id: HostId(col_u32(ids, i)),
            asn: col_u16(asns, i),
            truly_rate_limited: flags[i] != 0,
            name: name.to_string(),
        });
    }

    // aspaths
    let mut cur = Cur::new(SEC_ASPATHS, aspaths);
    let n = cur.u32()? as usize;
    let offs = decode_offsets(&mut cur, n)?;
    let asns = cur.column(*offs.last().unwrap_or(&0) as usize, 2)?;
    cur.done()?;
    let mut as_paths = Vec::with_capacity(n);
    for i in 0..n {
        let (a, b) = (offs[i] as usize, offs[i + 1] as usize);
        as_paths.push((a..b).map(|k| col_u16(asns, k)).collect::<Vec<u16>>());
    }

    let probes = decode_invocations(invocations)?;

    // transfers
    let mut cur = Cur::new(SEC_TRANSFERS, transfers);
    let n = cur.u32()? as usize;
    let src = cur.column(n, 4)?;
    let dst = cur.column(n, 4)?;
    let t_s = cur.column(n, 8)?;
    let rtt = cur.column(n, 8)?;
    let loss = cur.column(n, 8)?;
    let bw = cur.column(n, 8)?;
    cur.done()?;
    let transfers: Vec<TransferSample> = (0..n)
        .map(|i| TransferSample {
            src: HostId(col_u32(src, i)),
            dst: HostId(col_u32(dst, i)),
            t_s: col_f64(t_s, i),
            rtt_ms: col_f64(rtt, i),
            loss_rate: col_f64(loss, i),
            bandwidth_kbps: col_f64(bw, i),
        })
        .collect();

    // ratelimited
    let mut cur = Cur::new(SEC_RATELIMITED, ratelimited);
    let n = cur.u32()? as usize;
    let ids = cur.column(n, 4)?;
    cur.done()?;
    let detected_rate_limited: Vec<HostId> = (0..n).map(|i| HostId(col_u32(ids, i))).collect();

    let mut ds = Dataset::new(name, host_meta, probes, transfers, as_paths, duration_s)
        .map_err(Trace2Error::Dataset)?;
    ds.detected_rate_limited = detected_rate_limited;
    ds.starved_pairs = starved;
    Ok(ds)
}

/// Errors arising when loading a `.trace2` file from disk.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes could not be decoded.
    Parse(Trace2Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "trace2 io error: {e}"),
            LoadError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> LoadError {
        LoadError::Io(e)
    }
}

impl From<Trace2Error> for LoadError {
    fn from(e: Trace2Error) -> LoadError {
        LoadError::Parse(e)
    }
}

/// Reads a dataset from a `.trace2` file: one `fs::read` into a single
/// buffer, then zero-copy decode over it.
pub fn load(path: &Path) -> Result<Dataset, LoadError> {
    Ok(from_bytes(&std::fs::read(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::builder("TEST")
            .host_meta(HostMeta {
                id: HostId(3),
                name: "host0.as9.Seattle".into(),
                asn: 9,
                truly_rate_limited: false,
            })
            .host_meta(HostMeta {
                id: HostId(5),
                name: "host0.as11.Miami".into(),
                asn: 11,
                truly_rate_limited: true,
            })
            .probe(3, 5, 12.5, Some(88.25))
            .probe_with(3, 5, 12.5, Some(90.0), |p| p.probe_index = 1)
            .probe_with(3, 5, 12.6, None, |p| {
                p.probe_index = 1;
                p.loss_eligible = false;
                p.episode = Some(4);
            })
            .transfer(5, 3, 99.0, 120.5, 0.0125, 88.4)
            .as_paths(vec![vec![9, 2, 11], vec![]])
            .duration(86_400.0)
            .build()
            .unwrap();
        ds.detected_rate_limited = vec![HostId(5)];
        ds.starved_pairs = 3;
        ds
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample_dataset();
        let back = from_bytes(&to_bytes(&ds)).expect("parses");
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::builder("").as_paths(vec![]).build().unwrap();
        assert_eq!(from_bytes(&to_bytes(&ds)).unwrap(), ds);
    }

    #[test]
    fn float_bits_survive_exactly() {
        let mut ds = sample_dataset();
        // Values with no short exact decimal form: the format must carry
        // the raw bits, not a rounded value.
        let first = |d: &Dataset| d.probes.iter().next().expect("a probe");
        ds.probes = ds
            .probes
            .iter()
            .enumerate()
            .map(|(i, p)| match i {
                0 => detour_measure::ProbeSample {
                    rtt_ms: Some(0.1 + 0.2),
                    ..p
                },
                _ => p,
            })
            .collect();
        ds.transfers[0].loss_rate = f64::MIN_POSITIVE;
        ds.duration_s = 1000.0 / 3.0;
        let back = from_bytes(&to_bytes(&ds)).unwrap();
        assert_eq!(
            first(&back).rtt_ms.map(f64::to_bits),
            first(&ds).rtt_ms.map(f64::to_bits)
        );
        assert_eq!(
            back.transfers[0].loss_rate.to_bits(),
            ds.transfers[0].loss_rate.to_bits()
        );
        assert_eq!(back.duration_s.to_bits(), ds.duration_s.to_bits());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut b = to_bytes(&sample_dataset());
        b[0] ^= 0x40;
        assert_eq!(from_bytes(&b), Err(Trace2Error::BadMagic));
    }

    #[test]
    fn other_versions_are_rejected() {
        // Version 1 (one row per probe) and any future version.
        for v in [1, VERSION + 1] {
            let mut b = to_bytes(&sample_dataset());
            b[8..12].copy_from_slice(&v.to_le_bytes());
            assert_eq!(from_bytes(&b), Err(Trace2Error::UnsupportedVersion(v)));
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let b = to_bytes(&sample_dataset());
        for cut in [0, 4, HEADER_LEN, b.len() / 2, b.len() - 1] {
            assert!(from_bytes(&b[..cut]).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        // A single flipped payload byte must flip the section checksum;
        // flipped header/table bytes must land in a typed error (reserved
        // fields are validated, so no flip anywhere parses silently).
        let ds = sample_dataset();
        let good = to_bytes(&ds);
        for at in 0..good.len() {
            let mut b = good.clone();
            b[at] ^= 0x01;
            if let Ok(got) = from_bytes(&b) {
                panic!(
                    "flip at byte {at} parsed silently ({})",
                    if got == ds { "identical" } else { "DIFFERENT" }
                );
            }
        }
    }

    /// `bytes` with bits set in one byte of the invocation section —
    /// `edit` maps the row count to the byte's offset in the section and
    /// the bits — and the checksum re-fixed, so that the value validation,
    /// not the checksum, fires.
    fn edit_invocations(bytes: &[u8], edit: impl Fn(usize) -> (usize, u8)) -> Vec<u8> {
        let mut b = bytes.to_vec();
        // Entry 3 (0-based) of the table is the invocation section.
        let entry = HEADER_LEN + 3 * TABLE_ENTRY_LEN;
        assert_eq!(
            u32::from_le_bytes(b[entry..entry + 4].try_into().unwrap()),
            SEC_INVOCATIONS
        );
        let sec_off = u64::from_le_bytes(b[entry + 8..entry + 16].try_into().unwrap()) as usize;
        let sec_len = u64::from_le_bytes(b[entry + 16..entry + 24].try_into().unwrap()) as usize;
        let n = u32::from_le_bytes(b[sec_off..sec_off + 4].try_into().unwrap()) as usize;
        let (at, bits) = edit(n);
        b[sec_off + at] |= bits;
        let sum = checksum(&b[sec_off..sec_off + sec_len]);
        b[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
        b
    }

    #[test]
    fn invalid_invocation_masks_are_rejected() {
        let ds = sample_dataset();
        assert_eq!(ds.probes.rows().len(), 2, "probes 0 and 1, then probe 1");
        let good = to_bytes(&ds);
        // The mask column sits after count + src + dst + t_s + first_index.
        let mask_at = |n: usize| 4 + n * 4 + n * 4 + n * 8 + n;
        let n = 2;
        // A reserved bit (15), and an RTT marked on row 0's empty slot 2.
        for (byte, bits) in [(1, 0x80), (0, 1 << 5)] {
            let b = edit_invocations(&good, |n| (mask_at(n) + byte, bits));
            assert_eq!(
                from_bytes(&b),
                Err(Trace2Error::BadValue {
                    id: SEC_INVOCATIONS,
                    offset: mask_at(n),
                })
            );
        }
        // A first index of 1 moves the row's probes to indices 1 and 2:
        // it decodes, and the row's second probe breaks no rule yet.
        let b = edit_invocations(&good, |n| (4 + n * 16, 1));
        let shifted = from_bytes(&b).expect("indices 1 and 2 are valid");
        let indices: Vec<u8> = shifted.probes.iter().map(|p| p.probe_index).collect();
        assert_eq!(indices, [1, 2, 1]);
        // Past index 2, the dataset rules name the probe.
        let b = edit_invocations(&good, |n| (4 + n * 16, 2));
        assert_eq!(
            from_bytes(&b),
            Err(Trace2Error::Dataset(DatasetError {
                field: detour_measure::DatasetField::ProbeIndex,
                row: 1,
            }))
        );
    }

    #[test]
    fn missing_and_duplicate_sections_are_rejected() {
        let b = to_bytes(&sample_dataset());
        // Drop the last table entry (ratelimited) by shrinking the count.
        let mut missing = b.clone();
        missing[12..16].copy_from_slice(&(SECTIONS as u32 - 1).to_le_bytes());
        assert_eq!(
            from_bytes(&missing),
            Err(Trace2Error::MissingSection {
                id: SEC_RATELIMITED
            })
        );
        // Duplicate: rewrite entry 1's id over entry 0's slot.
        let mut dup = b.clone();
        let e0 = HEADER_LEN;
        let e1 = HEADER_LEN + TABLE_ENTRY_LEN;
        let copy: Vec<u8> = dup[e1..e1 + TABLE_ENTRY_LEN].to_vec();
        dup[e0..e0 + TABLE_ENTRY_LEN].copy_from_slice(&copy);
        assert_eq!(
            from_bytes(&dup),
            Err(Trace2Error::DuplicateSection { id: SEC_HOSTS })
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("detour-trace2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace2");
        let ds = sample_dataset();
        save(&ds, &path).unwrap();
        assert_eq!(load(&path).unwrap(), ds);
        std::fs::remove_dir_all(&dir).ok();
    }
}
