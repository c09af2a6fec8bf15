//! Allocation-site identifiers.

use std::fmt;

/// A stable identifier for an allocation site.
///
/// In a real VM this would be a (method, bytecode index) pair; the synthetic
/// workloads assign one id per logical allocation statement. Site ids are
/// carried alongside the type id through the allocation path and stored in a
/// side table keyed by the object's current address, so profiles collected in
/// one run can be replayed in another run of the same workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The id used for allocations whose site is unknown (e.g. those made
    /// through `MutatorContext::alloc`). Advice tables fall back to their
    /// default placement for this id.
    pub const UNKNOWN: SiteId = SiteId(0);

    /// Returns `true` for the unknown site.
    pub fn is_unknown(self) -> bool {
        self.0 == 0
    }

    /// The raw numeric id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unknown() {
            write!(f, "site:?")
        } else {
            write!(f, "site:{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_site() {
        assert!(SiteId::UNKNOWN.is_unknown());
        assert!(!SiteId(3).is_unknown());
        assert_eq!(SiteId(3).raw(), 3);
        assert_eq!(SiteId(3).to_string(), "site:3");
        assert_eq!(SiteId::UNKNOWN.to_string(), "site:?");
    }
}
