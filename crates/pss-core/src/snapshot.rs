//! Durable snapshots and journal-replay recovery.
//!
//! ## The format
//!
//! A snapshot is a hand-rolled, versioned, length-framed binary image (no
//! serde — nothing in this environment provides it, and the codec's failure
//! modes must be *typed*, not whatever a derive emits):
//!
//! ```text
//! ┌────────────┬─────────┬────────┬───────────┬─────────────────┬──────────┐
//! │ magic (8B) │ version │  kind  │ #sections │ sections…       │ trailer  │
//! │ "PSSSNAP\0"│  u16 LE │ u16 LE │  u32 LE   │                 │  u64 LE  │
//! └────────────┴─────────┴────────┴───────────┴─────────────────┴──────────┘
//! section :=  ┌────────┬─────────┬───────────────┬─────────────┐
//!             │ tag u32│ len u64 │ payload (len) │ CRC-32 u32  │
//!             └────────┴─────────┴───────────────┴─────────────┘
//! ```
//!
//! Every payload carries its own CRC-32 ([`wordram::crc`]), so any single
//! corrupted byte inside a section is detected, and the trailer records the
//! total image length (XOR a salt, so a torn tail is unlikely to alias a
//! payload word), so truncation is detected *before* any field is parsed.
//! [`Snapshottable::from_snapshot`] returns a typed [`SnapshotError`] on
//! every malformed input — it never panics (`pss-lint`'s `no-panic-paths`
//! rule holds over this module) and never silently loads.
//!
//! ## Recovery
//!
//! A snapshot captures a backend *and its journal watermark* (the epoch of
//! its [`ChangeJournal`] at save time). [`recover`] composes
//! [`Snapshottable::from_snapshot`] with [`ChangeJournal::catch_up`] against
//! a durable journal: [`Replay::Deltas`] patches the restored backend
//! forward through its public update ops (each replayed op re-journals, so
//! the restored epoch tracks the original's), [`Replay::TooOld`] — the ring
//! wrapped past the watermark, or a structural rebuild intervened — surfaces
//! as the typed [`RecoverError::NeedsResync`] instead of silently serving
//! stale state.

use crate::journal::{ChangeJournal, Delta, Replay};
use crate::{fault, PssBackend, Store};
use wordram::crc::crc32;
use wordram::narrow;

/// Magic prefix of every snapshot image.
pub const MAGIC: &[u8; 8] = b"PSSSNAP\0";

/// Format version written by this codec (readers reject anything else).
pub const FORMAT_VERSION: u16 = 1;

/// Salt XORed into the total-length trailer so a torn tail whose last eight
/// bytes happen to be payload data is unlikely to alias a valid length.
const TRAILER_SALT: u64 = 0x5053_535F_5452_4C52; // "PSS_TRLR"

/// Registry of backend-kind discriminants, one per [`Snapshottable`] impl in
/// the workspace. The kind is baked into the header so a snapshot of one
/// structure can never be mis-parsed as another
/// ([`SnapshotError::WrongBackend`]).
pub mod kind {
    /// The shared slot [`crate::Store`].
    pub const STORE: u16 = 1;
    /// The HALT sampler (`dpss::DpssSampler`).
    pub const HALT: u16 = 2;
    /// The de-amortized HALT sampler (`dpss::DeamortizedDpss`).
    pub const HALT_DEAM: u16 = 3;
    /// The exact-rational naive baseline (`baselines::NaiveExact`).
    pub const NAIVE_EXACT: u16 = 4;
    /// The floating-point naive baseline (`baselines::NaiveFloat`).
    pub const NAIVE_FLOAT: u16 = 5;
    /// The ODSS-style bucket sampler (`baselines::OdssStyle`).
    pub const ODSS_STYLE: u16 = 6;
    /// The ODSS-under-DPSS penalty foil (`baselines::OdssUnderDpss`).
    pub const ODSS_UNDER_DPSS: u16 = 7;
}

/// Section tag of the [`Store`] payload inside a [`kind::STORE`] snapshot.
const TAG_STORE: u32 = 1;

/// Why a snapshot image failed to load. Every malformed input maps to one of
/// these — the codec never panics and never partially applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The image ended before a field it promised (or a section walk ran off
    /// the end).
    Truncated,
    /// The magic prefix is wrong — not a snapshot at all.
    BadMagic,
    /// The format version is not one this codec reads.
    UnsupportedVersion(u16),
    /// The image is a snapshot of a different backend kind.
    WrongBackend {
        /// The kind the caller asked to load.
        expected: u16,
        /// The kind recorded in the image header.
        found: u16,
    },
    /// The total-length trailer disagrees with the image size (torn tail).
    LengthMismatch,
    /// A section payload failed its CRC-32 (the tag of the bad section).
    BadSectionCrc(u32),
    /// A section the backend requires is absent (its tag).
    MissingSection(u32),
    /// Bytes remain after the last framed element (of the image or of a
    /// fully-decoded section payload).
    TrailingBytes,
    /// The frame parsed but the payload violates a structural invariant.
    Invalid(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::WrongBackend { expected, found } => {
                write!(f, "snapshot of backend kind {found}, expected {expected}")
            }
            SnapshotError::LengthMismatch => write!(f, "snapshot length trailer mismatch"),
            SnapshotError::BadSectionCrc(tag) => write!(f, "section {tag} failed its CRC"),
            SnapshotError::MissingSection(tag) => write!(f, "section {tag} missing"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after framed data"),
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A structure with a durable serialized form.
///
/// `write_snapshot` appends a self-contained framed image;
/// `from_snapshot` parses exactly one image and reconstructs the structure
/// **bit-identically**: restored state must answer every query on a pinned
/// derived stream exactly as the original would, issue the same future
/// handles, and re-serialize to the same bytes (process-local identity such
/// as `fresh_backend_id` instance keys is deliberately excluded from the
/// image).
pub trait Snapshottable: Sized {
    /// Appends this structure's framed snapshot image to `out`.
    fn write_snapshot(&self, out: &mut Vec<u8>);

    /// Reconstructs the structure from one framed snapshot image. Returns a
    /// typed error on any malformed input; never panics.
    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError>;

    /// Convenience: the snapshot image as a fresh vector.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_snapshot(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Payload primitives.
// ---------------------------------------------------------------------------

/// Little-endian payload encoder for one snapshot section.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty payload.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (snapshots are width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no length prefix — for fixed-width record
    /// streams whose count the caller has already written (the matching
    /// read is [`Dec::get_raw`] with the same computed length).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Pre-reserves capacity for `n` more bytes (a bulk encoder sizing one
    /// big record stream up front instead of doubling through it).
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }

    /// The encoded payload.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked little-endian payload decoder. Every read returns
/// [`SnapshotError::Truncated`] past the end — no decoding path panics.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over a raw payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let out = self.bytes.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().map_err(|_| SnapshotError::Truncated)?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().map_err(|_| SnapshotError::Truncated)?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().map_err(|_| SnapshotError::Truncated)?))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        let b = self.take(16)?;
        Ok(u128::from_le_bytes(b.try_into().map_err(|_| SnapshotError::Truncated)?))
    }

    /// Reads a `u64` that must fit this platform's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Invalid("count exceeds the platform word"))
    }

    /// Reads a bool byte; anything but 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Reads exactly `n` raw bytes (the [`Enc::put_raw`] counterpart): one
    /// bounds check for a whole fixed-width record stream, in place of one
    /// per field. A bulk decoder that gets the slice back has *proven* the
    /// records exist, so sizing a `Vec` from the derived count afterwards
    /// is not trusting the image.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    /// Asserts full consumption of the payload; a decoder that stops early
    /// is reading a payload with [`SnapshotError::TrailingBytes`].
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Builder of one framed snapshot image: header, CRC-framed sections,
/// total-length trailer.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: u16,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts an image for the given backend [`kind`].
    pub fn new(kind: u16) -> Self {
        SnapshotWriter { kind, sections: Vec::new() }
    }

    /// Appends one section (tag + encoded payload).
    pub fn section(&mut self, tag: u32, payload: Enc) {
        self.sections.push((tag, payload.buf));
    }

    /// Frames header, sections, and trailer onto `out`.
    pub fn finish(self, out: &mut Vec<u8>) {
        let base = out.len();
        // One up-front reservation: header + per-section framing + trailer.
        let framed: usize = self.sections.iter().map(|(_, p)| p.len() + 4 + 8 + 4).sum();
        out.reserve(MAGIC.len() + 2 + 2 + 4 + framed + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&narrow::u32_of_usize(self.sections.len()).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let total = (out.len() - base + 8) as u64;
        out.extend_from_slice(&(total ^ TRAILER_SALT).to_le_bytes());
        // Deterministic byte-level corruption, armed only under the
        // fault-injection feature (a no-op otherwise).
        fault::corrupt_region(fault::Site::SnapshotEncode, out, base);
    }
}

/// Validated view of one framed snapshot image. Construction checks the
/// trailer, magic, version, kind, and every section CRC up front; the
/// sections are then served as bounds-checked [`Dec`] payloads.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and fully validates one image of the expected backend kind.
    pub fn new(bytes: &'a [u8], expected_kind: u16) -> Result<Self, SnapshotError> {
        fault::fail_point(fault::Site::SnapshotDecode)
            .map_err(|_| SnapshotError::Invalid("injected decode fault"))?;
        // Header (8 + 2 + 2 + 4) plus trailer (8) is the smallest image.
        let min = MAGIC.len() + 2 + 2 + 4 + 8;
        if bytes.len() < min {
            return Err(SnapshotError::Truncated);
        }
        let body_len = bytes.len() - 8;
        let trailer_bytes = bytes.get(body_len..).ok_or(SnapshotError::Truncated)?;
        let trailer =
            u64::from_le_bytes(trailer_bytes.try_into().map_err(|_| SnapshotError::Truncated)?);
        if trailer ^ TRAILER_SALT != bytes.len() as u64 {
            return Err(SnapshotError::LengthMismatch);
        }
        let body = bytes.get(..body_len).ok_or(SnapshotError::Truncated)?;
        let mut dec = Dec::new(body);
        if dec.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = dec.get_u16()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let found = dec.get_u16()?;
        if found != expected_kind {
            return Err(SnapshotError::WrongBackend { expected: expected_kind, found });
        }
        let count = dec.get_u32()?;
        let mut sections = Vec::new();
        for _ in 0..count {
            let tag = dec.get_u32()?;
            let len = dec.get_usize()?;
            let payload = dec.take(len)?;
            let crc = dec.get_u32()?;
            if crc32(payload) != crc {
                return Err(SnapshotError::BadSectionCrc(tag));
            }
            sections.push((tag, payload));
        }
        dec.finish()?;
        Ok(SnapshotReader { sections })
    }

    /// The payload of the section with `tag`, as a fresh decoder.
    pub fn section(&self, tag: u32) -> Result<Dec<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| Dec::new(p))
            .ok_or(SnapshotError::MissingSection(tag))
    }
}

// ---------------------------------------------------------------------------
// Store payload + Snapshottable impl.
// ---------------------------------------------------------------------------

impl Store {
    /// Encodes the store verbatim — weights (stale dead-slot values
    /// included, so a save→load→save round trip is byte-identical), liveness
    /// flags, and the free list in recycling order (handle issuance after
    /// load matches the original exactly).
    pub fn write_snapshot_payload(&self, enc: &mut Enc) {
        enc.put_usize(self.weights.len());
        for &w in &self.weights {
            enc.put_u64(w);
        }
        for &l in &self.live {
            enc.put_bool(l);
        }
        enc.put_usize(self.free.len());
        for &f in &self.free {
            enc.put_u32(f);
        }
    }

    /// Decodes and validates a store payload: free-list entries must be
    /// in-range, unique, and exactly the dead slots. Live count and exact
    /// total are recomputed, never trusted from the image.
    pub fn from_snapshot_payload(dec: &mut Dec<'_>) -> Result<Store, SnapshotError> {
        let slots = dec.get_usize()?;
        // No pre-reservation from the untrusted count: the vectors grow only
        // as framed bytes actually exist, so a corrupt count dies as
        // `Truncated`, not as an absurd allocation.
        let mut weights = Vec::new();
        for _ in 0..slots {
            weights.push(dec.get_u64()?);
        }
        let mut live = Vec::new();
        for _ in 0..slots {
            live.push(dec.get_bool()?);
        }
        let n_free = dec.get_usize()?;
        let mut free = Vec::new();
        let mut in_free = vec![false; slots];
        for _ in 0..n_free {
            let idx = dec.get_u32()?;
            let i = idx as usize;
            if live.get(i).copied().unwrap_or(true) {
                return Err(SnapshotError::Invalid("free-list entry is live or out of range"));
            }
            let seen = in_free.get_mut(i).ok_or(SnapshotError::Invalid("free index range"))?;
            if *seen {
                return Err(SnapshotError::Invalid("free-list entry repeated"));
            }
            *seen = true;
            free.push(idx);
        }
        let n = live.iter().filter(|&&l| l).count();
        if n_free != slots - n {
            return Err(SnapshotError::Invalid("dead slots and free list disagree"));
        }
        let total =
            live.iter().zip(&weights).filter(|&(&l, _)| l).map(|(_, &w)| w as u128).sum::<u128>();
        Ok(Store { weights, live, free, n, total })
    }
}

impl Snapshottable for Store {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(kind::STORE);
        let mut enc = Enc::new();
        self.write_snapshot_payload(&mut enc);
        w.section(TAG_STORE, enc);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let reader = SnapshotReader::new(bytes, kind::STORE)?;
        let mut dec = reader.section(TAG_STORE)?;
        let store = Store::from_snapshot_payload(&mut dec)?;
        dec.finish()?;
        Ok(store)
    }
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// Why [`recover`] could not produce a current backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The snapshot image itself failed to load.
    Snapshot(SnapshotError),
    /// The journal no longer reaches back to the snapshot's watermark (ring
    /// wrap, or a structural rebuild after the save): the caller must resync
    /// from a full current snapshot instead of patching — a partial patch
    /// would silently serve stale state.
    NeedsResync {
        /// The journal epoch the snapshot was taken at.
        watermark: u64,
        /// The durable journal's current epoch.
        journal_epoch: u64,
    },
    /// A replayed delta did not apply the way the journal recorded it — the
    /// snapshot and the journal disagree about history.
    ReplayMismatch {
        /// Index of the offending delta within the replay suffix.
        index: usize,
        /// What went wrong.
        detail: &'static str,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Snapshot(e) => write!(f, "snapshot load failed: {e}"),
            RecoverError::NeedsResync { watermark, journal_epoch } => write!(
                f,
                "journal (epoch {journal_epoch}) no longer reaches watermark {watermark}: full resync required"
            ),
            RecoverError::ReplayMismatch { index, detail } => {
                write!(f, "replay delta {index} did not apply: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<SnapshotError> for RecoverError {
    fn from(e: SnapshotError) -> Self {
        RecoverError::Snapshot(e)
    }
}

/// Restores a backend from `snapshot` and patches it forward through
/// `journal` (the durable log that outlived the crash).
///
/// The watermark is read from the restored backend's own journal — a
/// [`Snapshottable`] backend with a journal persists its epoch and resumes
/// it on load — so the caller only supplies the bytes and the log. Replay
/// drives the backend's *public* update ops, which re-journal each delta:
/// after recovery the backend's epoch matches what the original would have
/// reached applying the same ops.
pub fn recover<B: Snapshottable + PssBackend>(
    snapshot: &[u8],
    journal: &ChangeJournal,
) -> Result<B, RecoverError> {
    let mut backend = B::from_snapshot(snapshot)?;
    let watermark = backend.journal().map_or(0, ChangeJournal::epoch);
    match journal.catch_up(watermark) {
        Replay::UpToDate => Ok(backend),
        Replay::TooOld => {
            Err(RecoverError::NeedsResync { watermark, journal_epoch: journal.epoch() })
        }
        Replay::Deltas(deltas) => {
            let mut deltas = deltas.enumerate().peekable();
            while let Some((index, delta)) = deltas.next() {
                // Warm the *next* delta's record while applying this one:
                // replay handles are random-access over the restored slab,
                // and the hint is advisory (stale handles are fine).
                if let Some((_, next)) = deltas.peek() {
                    match **next {
                        Delta::Deleted { handle } | Delta::Reweighted { handle, .. } => {
                            backend.prefetch_handle(handle);
                        }
                        Delta::Inserted { .. } | Delta::ScaledAll { .. } | Delta::Rebuilt => {}
                    }
                }
                match *delta {
                    Delta::Inserted { handle, weight } => {
                        if backend.insert(weight) != handle {
                            return Err(RecoverError::ReplayMismatch {
                                index,
                                detail: "insert issued a different handle",
                            });
                        }
                    }
                    Delta::Deleted { handle } => {
                        if !backend.delete(handle) {
                            return Err(RecoverError::ReplayMismatch {
                                index,
                                detail: "journaled delete hit a stale handle",
                            });
                        }
                    }
                    Delta::Reweighted { handle, old: _, new } => {
                        if backend.set_weight(handle, new) != Some(handle) {
                            return Err(RecoverError::ReplayMismatch {
                                index,
                                detail: "reweight was not handle-stable",
                            });
                        }
                    }
                    Delta::ScaledAll { num, den } => {
                        if !backend.scale_all_weights(num, den) {
                            return Err(RecoverError::ReplayMismatch {
                                index,
                                detail: "backend lacks native scale_all",
                            });
                        }
                    }
                    Delta::Rebuilt => {
                        // `record_rebuilt` clears the ring, so no retained
                        // entry is ever `Rebuilt`; an image claiming one is
                        // corrupt history, not a replayable delta.
                        return Err(RecoverError::ReplayMismatch {
                            index,
                            detail: "structural rebuild inside a replay window",
                        });
                    }
                }
            }
            Ok(backend)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> Store {
        let mut s = Store::default();
        let a = s.insert(5);
        s.insert(0);
        s.insert(1 << 40);
        let d = s.insert(7);
        s.delete(a);
        s.delete(d);
        s.insert(9); // recycles d's slot
        s
    }

    #[test]
    fn store_roundtrip_is_byte_identical() {
        let s = sample_store();
        let img = s.snapshot();
        let restored = Store::from_snapshot(&img).expect("valid image");
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.total(), s.total());
        assert_eq!(restored.snapshot(), img, "save→load→save must be byte-identical");
        // Determinism across two saves of the same state.
        assert_eq!(s.snapshot(), img);
    }

    #[test]
    fn restored_store_recycles_like_the_original() {
        let mut s = sample_store();
        let mut r = Store::from_snapshot(&s.snapshot()).expect("valid image");
        // Future handle issuance must match: same free list, same order.
        for w in [3u64, 4, 5] {
            assert_eq!(s.insert(w), r.insert(w));
        }
        assert_eq!(s.total(), r.total());
    }

    #[test]
    fn wrong_kind_and_bad_magic_are_typed() {
        let img = sample_store().snapshot();
        let mut w = SnapshotWriter::new(kind::HALT);
        w.section(TAG_STORE, Enc::new());
        let mut other = Vec::new();
        w.finish(&mut other);
        assert_eq!(
            Store::from_snapshot(&other),
            Err(SnapshotError::WrongBackend { expected: kind::STORE, found: kind::HALT })
        );
        let mut bad = img.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Store::from_snapshot(&bad), Err(SnapshotError::BadMagic));
        assert_eq!(Store::from_snapshot(&[]), Err(SnapshotError::Truncated));
    }

    #[test]
    fn truncation_and_flips_never_load() {
        let img = sample_store().snapshot();
        for cut in 0..img.len() {
            let err = Store::from_snapshot(&img[..cut]).expect_err("truncated image loaded");
            // Any typed error is acceptable; the point is no panic, no load.
            let _ = format!("{err}");
        }
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x41;
            let err = Store::from_snapshot(&bad).expect_err("corrupt image loaded");
            let _ = format!("{err}");
        }
    }

    #[test]
    fn missing_section_and_trailing_bytes() {
        // An image with no sections at all.
        let mut out = Vec::new();
        SnapshotWriter::new(kind::STORE).finish(&mut out);
        assert_eq!(Store::from_snapshot(&out), Err(SnapshotError::MissingSection(TAG_STORE)));
        // A section with trailing payload bytes after the store.
        let s = sample_store();
        let mut enc = Enc::new();
        s.write_snapshot_payload(&mut enc);
        enc.put_u8(0xEE);
        let mut w = SnapshotWriter::new(kind::STORE);
        w.section(TAG_STORE, enc);
        let mut img = Vec::new();
        w.finish(&mut img);
        assert_eq!(Store::from_snapshot(&img), Err(SnapshotError::TrailingBytes));
    }

    #[test]
    fn invalid_free_lists_are_rejected() {
        let s = sample_store();
        let base = {
            let mut enc = Enc::new();
            s.write_snapshot_payload(&mut enc);
            enc
        };
        let reframe = |enc: Enc| {
            let mut w = SnapshotWriter::new(kind::STORE);
            w.section(TAG_STORE, enc);
            let mut img = Vec::new();
            w.finish(&mut img);
            img
        };
        // A free list pointing at a live slot.
        let mut enc = Enc::new();
        enc.put_usize(2);
        enc.put_u64(1);
        enc.put_u64(2);
        enc.put_bool(true);
        enc.put_bool(true);
        enc.put_usize(1);
        enc.put_u32(0);
        assert!(matches!(
            Store::from_snapshot(&reframe(enc)),
            Err(SnapshotError::Invalid("free-list entry is live or out of range"))
        ));
        // A dead slot absent from the free list.
        let mut enc = Enc::new();
        enc.put_usize(2);
        enc.put_u64(1);
        enc.put_u64(2);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_usize(0);
        assert!(matches!(
            Store::from_snapshot(&reframe(enc)),
            Err(SnapshotError::Invalid("dead slots and free list disagree"))
        ));
        // The unmodified payload still loads.
        assert!(Store::from_snapshot(&reframe(base)).is_ok());
    }

    #[test]
    fn enc_dec_primitives_roundtrip() {
        let mut enc = Enc::new();
        enc.put_u8(7);
        enc.put_u16(300);
        enc.put_u32(70_000);
        enc.put_u64(1 << 50);
        enc.put_u128(1 << 100);
        enc.put_usize(42);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_bytes(b"abc");
        let mut dec = Dec::new(enc.bytes());
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u16().unwrap(), 300);
        assert_eq!(dec.get_u32().unwrap(), 70_000);
        assert_eq!(dec.get_u64().unwrap(), 1 << 50);
        assert_eq!(dec.get_u128().unwrap(), 1 << 100);
        assert_eq!(dec.get_usize().unwrap(), 42);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_bytes().unwrap(), b"abc");
        assert!(dec.finish().is_ok());

        let mut dec = Dec::new(&[2]);
        assert_eq!(dec.get_bool(), Err(SnapshotError::Invalid("bool byte out of range")));
        let mut dec = Dec::new(&[1, 2]);
        assert_eq!(dec.get_u32(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn recover_patches_the_store_forward() {
        // The Store keeps no journal, so its watermark is 0 and the caller's
        // journal drives the whole replay — a minimal recover() exercise.
        let mut s = sample_store();
        let img = s.snapshot();
        let mut journal = ChangeJournal::new();
        let h = s.insert(11);
        journal.record(Delta::Inserted { handle: h, weight: 11 });
        s.delete(h);
        journal.record(Delta::Deleted { handle: h });
        let (target, _) = s.iter_live().next().expect("live item");
        let old = s.weight_at(target.raw() as usize).expect("live weight");
        s.set_weight(target, 123);
        journal.record(Delta::Reweighted { handle: target, old, new: 123 });
        let r: StoreBackend = recover(&img, &journal).expect("replay succeeds");
        assert_eq!(r.0.total(), s.total());
        assert_eq!(r.0.len(), s.len());
    }

    #[test]
    fn recover_surfaces_needs_resync() {
        let s = sample_store();
        let img = s.snapshot();
        let mut journal = ChangeJournal::with_capacity(2);
        let mut dummy = Store::default();
        for i in 0..5u64 {
            let h = dummy.insert(i);
            journal.record(Delta::Inserted { handle: h, weight: i });
        }
        // Capacity 2 wrapped past watermark 0.
        let err = recover::<StoreBackend>(&img, &journal).expect_err("wrapped ring");
        assert_eq!(err, RecoverError::NeedsResync { watermark: 0, journal_epoch: 5 });
    }

    /// Minimal `PssBackend` over a bare `Store` for the recover() unit tests
    /// (the real backends live in `baselines`/`dpss`).
    #[derive(Debug)]
    struct StoreBackend(Store);

    impl crate::SpaceUsage for StoreBackend {
        fn space_words(&self) -> usize {
            self.0.space_words()
        }
    }

    impl PssBackend for StoreBackend {
        fn insert(&mut self, weight: u64) -> crate::Handle {
            self.0.insert(weight)
        }
        fn delete(&mut self, handle: crate::Handle) -> bool {
            self.0.delete(handle)
        }
        fn query_into(
            &self,
            _ctx: &mut crate::QueryCtx,
            _alpha: &bignum::Ratio,
            _beta: &bignum::Ratio,
            _out: &mut Vec<crate::Handle>,
        ) {
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn total_weight(&self) -> u128 {
            self.0.total()
        }
        fn name(&self) -> &'static str {
            "store-backend"
        }
        fn set_weight(&mut self, handle: crate::Handle, w: u64) -> Option<crate::Handle> {
            self.0.set_weight(handle, w).map(|_| handle)
        }
        fn scale_all_weights(&mut self, num: u32, den: u32) -> bool {
            self.0.scale_all(num, den);
            true
        }
    }

    impl Snapshottable for StoreBackend {
        fn write_snapshot(&self, out: &mut Vec<u8>) {
            self.0.write_snapshot(out);
        }
        fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
            Store::from_snapshot(bytes).map(StoreBackend)
        }
    }
}
