//! Checkpoint manifests and per-session commit points.
//!
//! A manifest is the "lightweight metadata-only" record of one checkpoint
//! (§5.5). It has one encoding, the hand-written binary `DPRM` format below
//! (magic, format word, fixed-width little-endian fields, length-prefixed
//! collections); a blob that does not decode as it is a storage error.

use dpr_core::{DprError, Result, SessionId, Version};
use dpr_storage::BlobStore;
use std::collections::BTreeMap;

/// Where a session's prefix stood when a version was sealed.
///
/// Under relaxed CPR (§5.4), the recovered prefix for a session is "all
/// operations with serial below `serial`, *except* those listed in
/// `exceptions`" — the PENDING operations that had been issued but not yet
/// resolved when the version boundary passed (Fig. 7's missing op 11).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitPoint {
    /// Exclusive upper bound of committed serial numbers.
    pub serial: u64,
    /// Serial numbers below `serial` that are NOT included (unresolved
    /// PENDING operations at the boundary).
    pub exceptions: Vec<u64>,
}

/// Durable description of one checkpoint, stored in the blob store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Version this checkpoint commits.
    pub version: Version,
    /// Record address one past the last record included.
    pub until_address: u64,
    /// Version ranges `(lo, hi]` that have been rolled back and must never
    /// be recovered.
    pub purged: Vec<(Version, Version)>,
    /// Per-session commit points at this version boundary.
    pub commit_points: BTreeMap<SessionId, CommitPoint>,
    /// Number of chain identities of the hash index (`2^b`: records whose
    /// keys share the top `b` hash bits form one `prev` chain). Recovery
    /// gives the rebuilt index at least as many, because a larger count only
    /// splits these chains while a smaller one would join chains no `prev`
    /// link connects.
    pub index_buckets: u64,
    /// Durable segment map `(start_address, device_offset, len)` covering
    /// `[0, until_address)` — what [`crate::RecordLog::recover`]
    /// rebuilds the device mapping from, which is not linear after a
    /// post-crash rebase or GC truncation.
    pub segments: Vec<(u64, u64, u64)>,
}

/// Magic prefix of the binary manifest encoding ("DPRM" + format word).
/// Format 6 is the only layout there is, and it also names the layout of
/// the log the manifest points into: the 16-byte record header
/// ([`crate::record`]). Format 5 was these bytes with a tagged snapshot-blob
/// field after `until_address`, and 4 a manifest of format 5's bytes over a
/// log of 32-byte headers. No build of this repository wrote 1–5 to
/// anything that is still at rest, and any other word is refused.
const MANIFEST_MAGIC: u32 = 0x4450_524D;
const MANIFEST_FORMAT: u16 = 6;

thread_local! {
    /// Reusable encode buffer: checkpoints complete on the worker tick
    /// thread at a steady cadence, and a buffer per write showed up as the
    /// largest *background* allocation source in allocation profiles (see
    /// `dpr-bench --bin allocstacks`).
    static ENCODE_SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian reader over a manifest blob.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| DprError::Storage("manifest decode: truncated".into()))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl CheckpointManifest {
    /// Blob name for a version's manifest.
    #[must_use]
    pub fn blob_name(version: Version) -> String {
        format!("chkpt-{:020}", version.0)
    }

    /// Serialize into `out` using the compact binary format. Fixed-width
    /// little-endian fields; all collections are length-prefixed.
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, MANIFEST_MAGIC);
        put_u16(out, MANIFEST_FORMAT);
        put_u64(out, self.version.0);
        put_u64(out, self.until_address);
        put_u32(out, self.purged.len() as u32);
        for (lo, hi) in &self.purged {
            put_u64(out, lo.0);
            put_u64(out, hi.0);
        }
        put_u32(out, self.commit_points.len() as u32);
        for (session, cp) in &self.commit_points {
            put_u64(out, session.0);
            put_u64(out, cp.serial);
            put_u32(out, cp.exceptions.len() as u32);
            for &e in &cp.exceptions {
                put_u64(out, e);
            }
        }
        put_u64(out, self.index_buckets);
        put_u32(out, self.segments.len() as u32);
        for &(start, dev, len) in &self.segments {
            put_u64(out, start);
            put_u64(out, dev);
            put_u64(out, len);
        }
    }

    fn decode(data: &[u8]) -> Result<Self> {
        let mut r = Reader { data, pos: 0 };
        if r.u32()? != MANIFEST_MAGIC {
            return Err(DprError::Storage("manifest decode: bad magic".into()));
        }
        let format = r.u16()?;
        if format != MANIFEST_FORMAT {
            return Err(DprError::Storage(format!(
                "manifest decode: unknown format {format}"
            )));
        }
        let version = Version(r.u64()?);
        let until_address = r.u64()?;
        let npurged = r.u32()? as usize;
        let mut purged = Vec::with_capacity(npurged.min(1024));
        for _ in 0..npurged {
            purged.push((Version(r.u64()?), Version(r.u64()?)));
        }
        let npoints = r.u32()? as usize;
        let mut commit_points = BTreeMap::new();
        for _ in 0..npoints {
            let session = SessionId(r.u64()?);
            let serial = r.u64()?;
            let nexc = r.u32()? as usize;
            let mut exceptions = Vec::with_capacity(nexc.min(1024));
            for _ in 0..nexc {
                exceptions.push(r.u64()?);
            }
            commit_points.insert(session, CommitPoint { serial, exceptions });
        }
        let index_buckets = r.u64()?;
        let nsegs = r.u32()? as usize;
        let mut segments = Vec::with_capacity(nsegs.min(1024));
        for _ in 0..nsegs {
            segments.push((r.u64()?, r.u64()?, r.u64()?));
        }
        Ok(CheckpointManifest {
            version,
            until_address,
            purged,
            commit_points,
            index_buckets,
            segments,
        })
    }

    /// Persist the manifest.
    pub fn write_to(&self, blobs: &dyn BlobStore) -> Result<()> {
        ENCODE_SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            self.encode_into(&mut buf);
            blobs.put(&Self::blob_name(self.version), &buf)
        })
    }

    /// Load the manifest for `version`, if present.
    ///
    /// # Errors
    /// [`DprError::Storage`] when the blob is not a `DPRM` manifest of a
    /// known format, or is cut short.
    pub fn read_from(blobs: &dyn BlobStore, version: Version) -> Result<Option<Self>> {
        blobs
            .get(&Self::blob_name(version))?
            .map(|data| Self::decode(&data))
            .transpose()
    }

    /// The versions of the manifests in `blobs`, oldest first.
    fn versions(blobs: &dyn BlobStore) -> Result<Vec<Version>> {
        let parse = |name: String| match name.trim_start_matches("chkpt-").parse() {
            Ok(v) => Ok(Version(v)),
            Err(_) => Err(DprError::Storage(format!("bad manifest name {name}"))),
        };
        blobs.list("chkpt-")?.into_iter().map(parse).collect()
    }

    /// The latest manifest at or below `at_most` (used by `Restore`).
    pub fn latest(blobs: &dyn BlobStore, at_most: Option<Version>) -> Result<Option<Self>> {
        let below = |&v: &Version| at_most.is_none_or(|m| v <= m);
        let version = Self::versions(blobs)?.into_iter().rfind(below);
        version.map_or(Ok(None), |v| Self::read_from(blobs, v))
    }

    /// Delete the manifests above `version`, the checkpoints a recovery to
    /// it rolls back, and return the highest deleted (`Version::ZERO` for
    /// none).
    pub fn delete_above(blobs: &dyn BlobStore, version: Version) -> Result<Version> {
        let mut highest = Version::ZERO;
        for v in Self::versions(blobs)?.into_iter().filter(|&v| v > version) {
            blobs.delete(&Self::blob_name(v))?;
            highest = v;
        }
        Ok(highest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_storage::MemBlobStore;

    fn manifest(v: u64) -> CheckpointManifest {
        CheckpointManifest {
            version: Version(v),
            until_address: v * 100,
            purged: vec![(Version(1), Version(2))],
            commit_points: BTreeMap::from([(
                SessionId(1),
                CommitPoint {
                    serial: 10,
                    exceptions: vec![7],
                },
            )]),
            index_buckets: 1 << 10,
            segments: vec![(0, 0, v * 100)],
        }
    }

    #[test]
    fn write_read_round_trip() {
        let blobs = MemBlobStore::new();
        let m = manifest(3);
        m.write_to(&blobs).unwrap();
        let back = CheckpointManifest::read_from(&blobs, Version(3))
            .unwrap()
            .unwrap();
        assert_eq!(back, m);
        assert!(CheckpointManifest::read_from(&blobs, Version(4))
            .unwrap()
            .is_none());
    }

    #[test]
    fn latest_finds_newest_at_or_below_bound() {
        let blobs = MemBlobStore::new();
        for v in [1, 3, 7] {
            manifest(v).write_to(&blobs).unwrap();
        }
        assert_eq!(
            CheckpointManifest::latest(&blobs, None)
                .unwrap()
                .unwrap()
                .version,
            Version(7)
        );
        assert_eq!(
            CheckpointManifest::latest(&blobs, Some(Version(5)))
                .unwrap()
                .unwrap()
                .version,
            Version(3)
        );
        assert!(CheckpointManifest::latest(&blobs, Some(Version::ZERO))
            .unwrap()
            .is_none());
    }

    #[test]
    fn cut_short_corrupted_or_foreign_blobs_are_storage_errors() {
        let m = manifest(5);
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        assert_eq!(CheckpointManifest::decode(&buf).unwrap(), m);
        let rejected =
            |bytes: &[u8]| matches!(CheckpointManifest::decode(bytes), Err(DprError::Storage(_)));
        for len in 0..buf.len() {
            assert!(rejected(&buf[..len]), "prefix of {len} bytes");
        }
        // Magic and format word are refused; past them a flipped byte may
        // still decode (to another manifest) but never panics, and a forged
        // count runs into the end of the blob instead of allocating for it.
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0xFF;
            assert!(rejected(&bad) || at >= 6, "byte {at} flipped");
        }
        // The layouts older builds numbered 1 to 5 (5: with a snapshot-blob
        // field; 4: over a log of 32-byte record headers), and a word from
        // the future.
        assert_eq!(MANIFEST_FORMAT, 6);
        for word in [0u16, 1, 2, 3, 4, 5, MANIFEST_FORMAT + 1] {
            let mut old = buf.clone();
            old[4..6].copy_from_slice(&word.to_le_bytes());
            assert!(rejected(&old), "format word {word}");
        }
        // The JSON text older builds wrote has no magic.
        let blobs = MemBlobStore::new();
        let json = br#"{"version":5,"until_address":500,"purged":[],"commit_points":{}}"#;
        blobs
            .put(&CheckpointManifest::blob_name(Version(5)), json)
            .unwrap();
        assert!(matches!(
            CheckpointManifest::read_from(&blobs, Version(5)),
            Err(DprError::Storage(_))
        ));
        assert!(matches!(
            CheckpointManifest::latest(&blobs, None),
            Err(DprError::Storage(_))
        ));
    }

    #[test]
    fn blob_names_sort_numerically() {
        // Zero padding makes lexicographic order equal numeric order.
        assert!(
            CheckpointManifest::blob_name(Version(2)) < CheckpointManifest::blob_name(Version(10))
        );
    }
}
