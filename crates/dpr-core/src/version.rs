//! Version, world-line, token and identifier types.
//!
//! These are deliberately small `Copy` newtypes so they can be embedded in
//! wire headers, record headers, and atomics without indirection.

use std::fmt;

/// Identifies one shard (`StateObject`) in the cluster.
///
/// In the paper's running example (Fig. 2) these are the objects `A`, `B`,
/// `C`. Shard ids are dense small integers assigned by the cluster manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A commit version number on one shard.
///
/// Versions are the granularity of dependency tracking (§3.1): every
/// completed operation belongs to exactly one version of the shard that
/// executed it, and a `Commit()` call seals the current version. Version 0 is
/// reserved for "nothing committed"; the first operations execute in
/// version 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The reserved "nothing yet" version.
    pub const ZERO: Version = Version(0);

    /// First real version in which operations may execute.
    pub const FIRST: Version = Version(1);

    /// The next version.
    #[must_use]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// The previous version, saturating at zero.
    #[must_use]
    pub fn prev(self) -> Version {
        Version(self.0.saturating_sub(1))
    }

    /// Maximum of two versions.
    #[must_use]
    pub fn max(self, other: Version) -> Version {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Version {
    fn from(v: u64) -> Self {
        Version(v)
    }
}

/// A world-line identifier (§4.2).
///
/// The cluster manager assigns a serial id to each failure; world-lines only
/// spawn due to failures, so the pair (failure count) uniquely identifies the
/// trajectory the system state is evolving along. Clients append their
/// world-line to every request and shards execute a request only if the
/// world-lines match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WorldLine(pub u64);

impl WorldLine {
    /// The initial world-line every cluster starts on.
    pub const INITIAL: WorldLine = WorldLine(0);

    /// The world-line spawned by the next failure.
    #[must_use]
    pub fn next(self) -> WorldLine {
        WorldLine(self.0 + 1)
    }
}

impl fmt::Display for WorldLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wl{}", self.0)
    }
}

/// A recovery token: one committed version of one shard (§3, "`A-2` is the
/// second committed token of A").
///
/// `Restore(token)` returns the shard to the state captured by the token. A
/// set of tokens, one per shard, forms a DPR-cut when closed under the
/// dependency relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token {
    /// Which shard this token belongs to.
    pub shard: ShardId,
    /// The committed version it captures.
    pub version: Version,
}

impl Token {
    /// Construct a token.
    #[must_use]
    pub fn new(shard: ShardId, version: Version) -> Token {
        Token { shard, version }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.shard, self.version.0)
    }
}

/// Globally unique client-session identifier.
///
/// Sessions are the logical unit for determining dependencies (§2). D-FASTER
/// sessions are "identified by a globally unique id" (§5.2); when a session
/// operates on a worker, the worker creates a corresponding local session
/// with the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_next() {
        assert!(Version::ZERO < Version::FIRST);
        assert_eq!(Version(3).next(), Version(4));
        assert_eq!(Version(3).prev(), Version(2));
        assert_eq!(Version::ZERO.prev(), Version::ZERO);
        assert_eq!(Version(2).max(Version(5)), Version(5));
        assert_eq!(Version(7).max(Version(5)), Version(7));
    }

    #[test]
    fn world_line_advances_monotonically() {
        let wl = WorldLine::INITIAL;
        assert_eq!(wl.next(), WorldLine(1));
        assert!(wl < wl.next());
    }

    #[test]
    fn token_display_matches_paper_notation() {
        let t = Token::new(ShardId(0), Version(2));
        assert_eq!(t.to_string(), "S0-2");
    }

    #[test]
    fn token_equality_requires_both_fields() {
        let a = Token::new(ShardId(1), Version(2));
        assert_ne!(a, Token::new(ShardId(1), Version(3)));
        assert_ne!(a, Token::new(ShardId(2), Version(2)));
        assert_eq!(a, Token::new(ShardId(1), Version(2)));
    }
}
