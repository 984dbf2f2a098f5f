//! Named atomic blobs for checkpoint manifests and snapshots.

use crate::latency::LatencyModel;
use bytes::Bytes;
use dpr_core::{DprError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A store of named blobs with atomic, all-or-nothing writes.
///
/// Checkpoint manifests must appear either complete or not at all after a
/// crash; both implementations guarantee that (the file store via
/// write-to-temp-then-rename).
pub trait BlobStore: Send + Sync {
    /// Atomically write `data` under `name`, replacing any existing blob.
    fn put(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Read the blob named `name`.
    fn get(&self, name: &str) -> Result<Option<Bytes>>;

    /// Delete the blob named `name` (idempotent).
    fn delete(&self, name: &str) -> Result<()>;

    /// List blob names with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;
}

/// In-memory blob store with optional injected flush latency per put.
#[derive(Default)]
pub struct MemBlobStore {
    blobs: RwLock<BTreeMap<String, Bytes>>,
    latency: Option<LatencyModel>,
}

impl MemBlobStore {
    /// Zero-latency store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Store charging `latency` per put (manifests ride the same device as
    /// the data in a real deployment).
    #[must_use]
    pub fn with_latency(latency: LatencyModel) -> Self {
        MemBlobStore {
            blobs: RwLock::new(BTreeMap::new()),
            latency: Some(latency),
        }
    }
}

/// A copy of every blob as it stands: an image a test can recover from
/// again and again, since a recovery deletes the manifests it rolls back.
impl Clone for MemBlobStore {
    fn clone(&self) -> Self {
        let blobs = RwLock::new(self.blobs.read().clone());
        MemBlobStore { blobs, ..*self }
    }
}

impl BlobStore for MemBlobStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        if let Some(l) = &self.latency {
            l.charge_flush(data.len() as u64);
        }
        self.blobs
            .write()
            .insert(name.to_owned(), Bytes::copy_from_slice(data));
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Bytes>> {
        Ok(self.blobs.read().get(name).cloned())
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.blobs.write().remove(name);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .blobs
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }
}

/// Directory-backed blob store with atomic rename writes.
pub struct FileBlobStore {
    dir: PathBuf,
}

impl FileBlobStore {
    /// Open (creating) a blob directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FileBlobStore {
            dir: dir.as_ref().to_owned(),
        })
    }

    fn path_for(&self, name: &str) -> Result<PathBuf> {
        if name.contains('/') || name.contains("..") {
            return Err(DprError::Invalid(format!("bad blob name {name:?}")));
        }
        Ok(self.dir.join(name))
    }
}

impl BlobStore for FileBlobStore {
    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        let final_path = self.path_for(name)?;
        let tmp = self.dir.join(format!(".tmp.{name}.{}", std::process::id()));
        std::fs::write(&tmp, data)?;
        // fsync the temp file before the rename so the rename publishes
        // complete contents.
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &final_path)?;
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Bytes>> {
        let p = self.path_for(name)?;
        match std::fs::read(&p) {
            Ok(d) => Ok(Some(Bytes::from(d))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn delete(&self, name: &str) -> Result<()> {
        let p = self.path_for(name)?;
        match std::fs::remove_file(&p) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(prefix) && !name.starts_with(".tmp.") {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn BlobStore) {
        assert_eq!(store.get("a").unwrap(), None);
        store.put("a", b"one").unwrap();
        store.put("b", b"two").unwrap();
        assert_eq!(store.get("a").unwrap().unwrap().as_ref(), b"one");
        store.put("a", b"replaced").unwrap();
        assert_eq!(store.get("a").unwrap().unwrap().as_ref(), b"replaced");
        assert_eq!(
            store.list("").unwrap(),
            vec!["a".to_owned(), "b".to_owned()]
        );
        assert_eq!(store.list("b").unwrap(), vec!["b".to_owned()]);
        store.delete("a").unwrap();
        store.delete("a").unwrap(); // idempotent
        assert_eq!(store.get("a").unwrap(), None);
    }

    #[test]
    fn mem_blob_store_semantics() {
        exercise(&MemBlobStore::new());
    }

    #[test]
    fn file_blob_store_semantics() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("dpr-blob-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileBlobStore::open(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_blob_store_rejects_path_traversal() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("dpr-blob-trav-{}", std::process::id()));
        let store = FileBlobStore::open(&dir).unwrap();
        assert!(store.put("../evil", b"x").is_err());
        assert!(store.get("a/b").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
