//! Named atomic blobs for checkpoint manifests and snapshots.

use crate::latency::LatencyModel;
use bytes::Bytes;
use dpr_core::Result;
use std::collections::BTreeMap;
use std::sync::RwLock;

/// A store of named blobs with atomic, all-or-nothing writes.
///
/// Checkpoint manifests must appear either complete or not at all after a
/// crash; an implementation guarantees that.
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
        let blobs = RwLock::new(self.blobs.read().unwrap().clone());
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
            .unwrap()
            .insert(name.to_owned(), Bytes::copy_from_slice(data));
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Option<Bytes>> {
        Ok(self.blobs.read().unwrap().get(name).cloned())
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.blobs.write().unwrap().remove(name);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .blobs
            .read()
            .unwrap()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_blob_store_semantics() {
        let store = MemBlobStore::new();
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
}
