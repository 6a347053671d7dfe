//! Multi-pool tenancy: one device, N pool contexts.
//!
//! A production CXL.cache accelerator is the home agent for *many*
//! processes' pools at once, not one — the device's HBM buffer, undo-log
//! region, and background-engine bandwidth are shared hardware, while
//! everything that defines crash consistency is **per tenant**: the VPM
//! extent, the epoch counter, the committed-epoch recovery point, and the
//! in-flight persist.
//!
//! The types here carve the device's vPM range into tenant regions and
//! route addresses to their owner:
//!
//! * [`TenantRegion`] — one tenant's contiguous slice of the data region
//!   plus its scheduler weight,
//! * [`TenantMap`] — the validated set of regions (disjoint, in bounds,
//!   at most [`MAX_TENANTS`]) with O(log n) owner lookup.
//!
//! Internally the device crosses tenants with its address-interleaved
//! shards: tenant `t`'s traffic on physical shard `s = addr % S` lands in
//! **lane** `t*S + s`, and each lane owns its own undo-log bank slice,
//! epoch-log map, and write-back queue. Lanes make isolation structural:
//! tenant A's `persist()` flushes only A's lanes, commits only A's header
//! slot, and recycles only A's log slots — B's in-flight epoch is never
//! touched. What the lanes *share* is capacity and time: the HBM and log
//! region are split across all lanes, and each physical shard's per-tick
//! budgets are divided across its tenant lanes by weight
//! (see [`DeviceScheduler`](crate::DeviceScheduler)).

use pax_pm::{LineAddr, PmError, Result, MAX_TENANTS};

/// Index of a tenant's pool context within a device (dense, 0-based).
pub type TenantId = usize;

/// One tenant's slice of the device's vPM range, plus its scheduler
/// weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRegion {
    /// First vPM line of the tenant's extent.
    pub vpm_base: u64,
    /// Lines in the tenant's extent (must be nonzero).
    pub vpm_lines: u64,
    /// Weighted-round-robin share of each shard's tick budgets
    /// (must be nonzero; every tenant with pending work is still
    /// guaranteed at least one unit per tick regardless of weight).
    pub weight: u32,
    /// Weighted share of the device's HBM capacity (must be nonzero):
    /// the buffer is sliced across tenants proportionally to their
    /// shares, the way [`TenantRegion::weight`] already splits tick
    /// budgets. Every lane is still floored at one full associativity
    /// set, so a small share bounds the slice, never zeroes it.
    pub hbm_share: u32,
}

impl TenantRegion {
    /// A region at `vpm_base` spanning `vpm_lines`, weight 1, HBM share 1.
    pub fn new(vpm_base: u64, vpm_lines: u64) -> Self {
        TenantRegion { vpm_base, vpm_lines, weight: 1, hbm_share: 1 }
    }

    /// Returns the region with a different scheduler weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Returns the region with a different HBM capacity share.
    pub fn with_hbm_share(mut self, share: u32) -> Self {
        self.hbm_share = share;
        self
    }

    /// First line past the extent.
    fn end(&self) -> u64 {
        self.vpm_base + self.vpm_lines
    }

    /// Whether `addr` falls inside the extent.
    pub fn contains(&self, addr: LineAddr) -> bool {
        addr.0 >= self.vpm_base && addr.0 < self.end()
    }
}

/// Splits `data_lines` of vPM into `n` contiguous equal extents (the
/// remainder goes to the last tenant), all at weight 1 — the layout
/// `PaxConfig::with_tenants` uses.
pub fn even_split(data_lines: u64, n: usize) -> Vec<TenantRegion> {
    let n = n.max(1) as u64;
    let per = data_lines / n;
    (0..n)
        .map(|t| {
            let base = t * per;
            let lines = if t == n - 1 { data_lines - base } else { per };
            TenantRegion::new(base, lines)
        })
        .collect()
}

/// The validated tenant layout of one device: disjoint regions in
/// declaration order (tenant `t` is `regions[t]`), with owner lookup.
#[derive(Debug, Clone)]
pub struct TenantMap {
    regions: Vec<TenantRegion>,
    /// `(vpm_base, tenant)` sorted by base, for binary-search lookup.
    by_base: Vec<(u64, TenantId)>,
}

impl TenantMap {
    /// Validates `regions` against a data region of `data_lines` lines.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] when there are no regions or more than
    /// [`MAX_TENANTS`], a region is zero-length, zero-weight, or out of
    /// bounds, or two regions overlap.
    pub fn new(regions: Vec<TenantRegion>, data_lines: u64) -> Result<Self> {
        if regions.is_empty() {
            return Err(PmError::Config("a device needs at least one tenant region".into()));
        }
        if regions.len() > MAX_TENANTS {
            return Err(PmError::Config(format!(
                "{} tenant regions exceed the pool header's {MAX_TENANTS} epoch slots",
                regions.len()
            )));
        }
        for (t, r) in regions.iter().enumerate() {
            if r.vpm_lines == 0 {
                return Err(PmError::Config(format!("tenant {t} region is zero-length")));
            }
            if r.weight == 0 {
                return Err(PmError::Config(format!("tenant {t} has zero scheduler weight")));
            }
            if r.hbm_share == 0 {
                return Err(PmError::Config(format!("tenant {t} has zero HBM share")));
            }
            if r.end() > data_lines {
                return Err(PmError::Config(format!(
                    "tenant {t} region [{}, {}) exceeds the {data_lines}-line data region",
                    r.vpm_base,
                    r.end()
                )));
            }
        }
        let mut by_base: Vec<(u64, TenantId)> =
            regions.iter().enumerate().map(|(t, r)| (r.vpm_base, t)).collect();
        by_base.sort_unstable();
        for w in by_base.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            if regions[a].end() > regions[b].vpm_base {
                return Err(PmError::Config(format!(
                    "tenant {a} region [{}, {}) overlaps tenant {b} region at line {}",
                    regions[a].vpm_base,
                    regions[a].end(),
                    regions[b].vpm_base
                )));
            }
        }
        Ok(TenantMap { regions, by_base })
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the map is empty (never true for a validated map).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Tenant `t`'s region.
    pub fn region(&self, t: TenantId) -> TenantRegion {
        self.regions[t]
    }

    /// Tenant `t`'s scheduler weight.
    pub fn weight(&self, t: TenantId) -> u32 {
        self.regions[t].weight
    }

    /// Tenant `t`'s HBM capacity share.
    pub fn hbm_share(&self, t: TenantId) -> u32 {
        self.regions[t].hbm_share
    }

    /// Sum of all tenants' HBM shares.
    pub fn total_hbm_shares(&self) -> u64 {
        self.regions.iter().map(|r| r.hbm_share as u64).sum()
    }

    /// The tenant owning vPM line `addr`, if any region contains it.
    pub fn tenant_of(&self, addr: LineAddr) -> Option<TenantId> {
        let i = self.by_base.partition_point(|&(base, _)| base <= addr.0);
        let (_, t) = *self.by_base.get(i.checked_sub(1)?)?;
        self.regions[t].contains(addr).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_the_region_exactly() {
        let regions = even_split(100, 3);
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[0], TenantRegion::new(0, 33));
        assert_eq!(regions[1], TenantRegion::new(33, 33));
        assert_eq!(regions[2], TenantRegion::new(66, 34), "remainder goes to the last tenant");
        let total: u64 = regions.iter().map(|r| r.vpm_lines).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tenant_of_routes_by_region() {
        let map = TenantMap::new(even_split(100, 4), 100).unwrap();
        assert_eq!(map.tenant_of(LineAddr(0)), Some(0));
        assert_eq!(map.tenant_of(LineAddr(24)), Some(0));
        assert_eq!(map.tenant_of(LineAddr(25)), Some(1));
        assert_eq!(map.tenant_of(LineAddr(99)), Some(3));
        assert_eq!(map.tenant_of(LineAddr(100)), None);
    }

    #[test]
    fn tenant_of_handles_gaps_and_unsorted_declaration() {
        // Declaration order defines tenant IDs; lookup doesn't need the
        // regions sorted or contiguous.
        let regions = vec![TenantRegion::new(50, 10), TenantRegion::new(0, 10)];
        let map = TenantMap::new(regions, 100).unwrap();
        assert_eq!(map.tenant_of(LineAddr(55)), Some(0));
        assert_eq!(map.tenant_of(LineAddr(5)), Some(1));
        assert_eq!(map.tenant_of(LineAddr(20)), None, "line in the gap has no owner");
    }

    #[test]
    fn rejects_zero_length_region() {
        let err = TenantMap::new(vec![TenantRegion::new(0, 0)], 100).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        assert!(err.to_string().contains("zero-length"));
    }

    #[test]
    fn rejects_overlapping_regions() {
        let regions = vec![TenantRegion::new(0, 60), TenantRegion::new(40, 40)];
        let err = TenantMap::new(regions, 100).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        assert!(err.to_string().contains("overlaps"));
    }

    #[test]
    fn rejects_out_of_bounds_region() {
        let err = TenantMap::new(vec![TenantRegion::new(90, 20)], 100).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_empty_zero_weight_and_too_many() {
        assert!(matches!(TenantMap::new(vec![], 100), Err(PmError::Config(_))));
        let zero_w = vec![TenantRegion::new(0, 10).with_weight(0)];
        assert!(matches!(TenantMap::new(zero_w, 100), Err(PmError::Config(_))));
        let many = even_split(4096, MAX_TENANTS + 1);
        assert!(matches!(TenantMap::new(many, 4096), Err(PmError::Config(_))));
    }

    #[test]
    fn rejects_zero_hbm_share() {
        let zero_s = vec![TenantRegion::new(0, 10).with_hbm_share(0)];
        let err = TenantMap::new(zero_s, 100).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        assert!(err.to_string().contains("HBM share"));
    }

    #[test]
    fn hbm_shares_accumulate_and_default_to_one() {
        let regions = vec![
            TenantRegion::new(0, 10).with_hbm_share(3),
            TenantRegion::new(10, 10), // default share 1
        ];
        let map = TenantMap::new(regions, 100).unwrap();
        assert_eq!(map.hbm_share(0), 3);
        assert_eq!(map.hbm_share(1), 1);
        assert_eq!(map.total_hbm_shares(), 4);
    }

    #[test]
    fn weights_accumulate() {
        let regions =
            vec![TenantRegion::new(0, 10).with_weight(3), TenantRegion::new(10, 10).with_weight(1)];
        let map = TenantMap::new(regions, 100).unwrap();
        assert_eq!(map.weight(0), 3);
        assert_eq!(map.weight(1), 1);
    }
}
