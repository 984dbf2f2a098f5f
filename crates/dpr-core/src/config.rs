//! Shared configuration enums.

/// Which DPR-cut-finding algorithm to run (§3.3–3.4, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DprFinderMode {
    /// Persist the full precedence graph; a coordinator computes maximal
    /// transitive closures. Exact but write-heavy.
    Exact,
    /// Persist only committed version numbers; the cut is everything at or
    /// below the cluster-wide minimum version, with `Vmax` fast-forwarding to
    /// bound the lag of slow shards. Cheap but imprecise.
    Approximate,
    /// Exact finder with an in-memory graph, backed by the approximate
    /// finder for fault tolerance: after a coordinator crash the approximate
    /// cut eventually advances past the lost subgraph (§3.4).
    Hybrid,
}

/// Recoverability levels compared in §7.6 (Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverabilityLevel {
    /// Not recoverable on failure; no checkpoint/log work at all.
    None,
    /// Operations return immediately, persistence happens in the background
    /// with no cross-shard guarantee (e.g. returning before fsync).
    Eventual,
    /// Operations return immediately; prefix commits are reported
    /// asynchronously by the DPR protocol.
    Dpr,
    /// Operations return only after they are persistent (write-through /
    /// group-commit-and-wait).
    Synchronous,
}

impl RecoverabilityLevel {
    /// Short label used by the benchmark harness output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecoverabilityLevel::None => "none",
            RecoverabilityLevel::Eventual => "eventual",
            RecoverabilityLevel::Dpr => "dpr",
            RecoverabilityLevel::Synchronous => "sync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        use RecoverabilityLevel::*;
        let labels = [
            None.label(),
            Eventual.label(),
            Dpr.label(),
            Synchronous.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
