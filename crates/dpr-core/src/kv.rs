//! Key and value types used by every store in the workspace.
//!
//! The paper's evaluation uses 8-byte keys and 8-byte values (§7.1), so the
//! hot path encodes small keys/values inline; both types still support
//! arbitrary byte strings for generality.

use bytes::Bytes;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A key in the global keyspace.
///
/// Keys hash with a strong-enough 64-bit mix (SplitMix64 over FxHash-style
/// folding) so that hash-partitioning across shards and hash-index bucket
/// selection are both well distributed even for sequential integer keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(pub Bytes);

impl Key {
    /// Build a key from a `u64`, the common YCSB case.
    #[must_use]
    pub fn from_u64(k: u64) -> Key {
        Key(Bytes::copy_from_slice(&k.to_be_bytes()))
    }

    /// Interpret the key as a `u64` if it is exactly 8 bytes.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        if self.0.len() == 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.0);
            Some(u64::from_be_bytes(b))
        } else {
            None
        }
    }

    /// Stable 64-bit hash of the key, used for both shard routing and the
    /// hash index. Not `DefaultHasher` so the value is stable across runs and
    /// processes (checkpoints embed nothing derived from it, but tests and
    /// partitioning want determinism).
    #[must_use]
    pub fn hash64(&self) -> u64 {
        Key::hash_bytes(&self.0)
    }

    /// [`Key::hash64`] of the key whose bytes are `key`, for a caller that
    /// has them in place and no `Key`.
    #[must_use]
    pub fn hash_bytes(key: &[u8]) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for chunk in key.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            h ^= u64::from_le_bytes(b);
            // SplitMix64 finalizer.
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
        }
        h
    }

    /// Byte length of the key.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the key is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<u64> for Key {
    fn from(k: u64) -> Self {
        Key::from_u64(k)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_u64() {
            Some(k) => write!(f, "k{k}"),
            None => write!(f, "k{:02x?}", &self.0[..self.0.len().min(8)]),
        }
    }
}

/// A value stored against a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value(pub Bytes);

impl Value {
    /// Build a value from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Value {
        Value(Bytes::copy_from_slice(&v.to_be_bytes()))
    }

    /// Interpret as `u64` if exactly 8 bytes.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        if self.0.len() == 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.0);
            Some(u64::from_be_bytes(b))
        } else {
            None
        }
    }

    /// Byte length of the value.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn u64_round_trip() {
        let k = Key::from_u64(42);
        assert_eq!(k.as_u64(), Some(42));
        let v = Value::from_u64(7);
        assert_eq!(v.as_u64(), Some(7));
    }

    #[test]
    fn non_u64_keys_work() {
        let k = Key::from("hello-world");
        assert_eq!(k.as_u64(), None);
        assert_eq!(k.len(), 11);
    }

    #[test]
    fn hash_is_stable_and_spread() {
        // Sequential keys must not collide in the low bits (bucket index).
        let mut low_bits = HashSet::new();
        for i in 0..1024u64 {
            let h = Key::from_u64(i).hash64();
            low_bits.insert(h & 0x3FF);
        }
        // Expect the 1024 sequential keys to cover most of the 1024 buckets.
        assert!(
            low_bits.len() > 600,
            "only {} distinct buckets",
            low_bits.len()
        );
        // Stability across constructions.
        assert_eq!(Key::from_u64(99).hash64(), Key::from_u64(99).hash64());
    }

    #[test]
    fn hash_differs_across_keys() {
        assert_ne!(Key::from_u64(1).hash64(), Key::from_u64(2).hash64());
        assert_ne!(Key::from("a").hash64(), Key::from("b").hash64());
    }
}
