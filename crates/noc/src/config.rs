//! Interconnect configuration (Table I of the paper).

use aimc_sim::Frequency;

/// Configuration of the off-chip HBM channel and its controller.
///
/// The controller is modeled as a single pipelined server: every burst pays
/// the pipeline latency (`latency_cycles`, Table I: 100) once, and occupies
/// the controller for `row_overhead_cycles + ⌈bytes/width⌉` cycles. The row
/// overhead abstracts DRAM row activation/precharge on the fraction of bursts
/// that miss the row buffer — it is what makes fine-grained scattered traffic
/// (the naive residual placement of Sec. V-4) so much more expensive than
/// streaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbmConfig {
    /// Pipelined request latency in cycles (Table I: 100).
    pub latency_cycles: u64,
    /// Channel width in bytes per cycle (Table I: 64).
    pub width_bytes: usize,
    /// Per-burst controller occupancy overhead in cycles (row activation,
    /// command bus, scheduling). Not in Table I: a calibration constant of
    /// this model.
    pub row_overhead_cycles: u64,
    /// Total capacity in bytes (Table I: 1.5 GB).
    pub capacity_bytes: u64,
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig {
            latency_cycles: 100,
            width_bytes: 64,
            row_overhead_cycles: 24,
            capacity_bytes: 1536 * 1024 * 1024,
        }
    }
}

/// Configuration of the hierarchical AXI interconnect.
///
/// The topology is a tree of "quadrants" (Sec. II-3): level-1 nodes connect
/// `quadrant_factors[0]` clusters, level-2 nodes connect `quadrant_factors[1]`
/// level-1 quadrants, and so on; the last level is the *wrapper*, which
/// bridges to the HBM controller.
///
/// # Examples
/// ```
/// use aimc_noc::NocConfig;
/// let cfg = NocConfig::paper_512();
/// assert_eq!(cfg.n_clusters(), 512);
/// assert_eq!(cfg.n_levels(), 4); // L1, L2, L3, wrapper
/// assert_eq!(cfg.routers_at_level(1), 128);
/// assert_eq!(cfg.routers_at_level(4), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Children per node at each level, bottom-up. Table I (read right to
    /// left): `[4, 4, 4, 8]` — 4 clusters per L1, 4 L1 per L2, 4 L2 per L3,
    /// 8 L3 per wrapper.
    pub quadrant_factors: Vec<usize>,
    /// Link data width in bytes at each level (same length as
    /// `quadrant_factors`). Table I: 64 B everywhere.
    pub link_width_bytes: Vec<usize>,
    /// Router traversal latency in cycles at each level. Table I:
    /// `[4, 4, 4, 4]` (the 100-cycle entry is the HBM, see [`HbmConfig`]).
    pub router_latency_cycles: Vec<u64>,
    /// HBM channel and controller parameters.
    pub hbm: HbmConfig,
    /// Clock of the interconnect (Table I: 1 GHz).
    pub frequency: Frequency,
    /// Model AXI write responses / read requests as 1-beat reverse traffic.
    pub model_protocol_overhead: bool,
}

impl NocConfig {
    /// The paper's 512-cluster configuration (Table I).
    pub fn paper_512() -> Self {
        NocConfig {
            quadrant_factors: vec![4, 4, 4, 8],
            link_width_bytes: vec![64, 64, 64, 64],
            router_latency_cycles: vec![4, 4, 4, 4],
            hbm: HbmConfig::default(),
            frequency: Frequency::from_ghz(1),
            model_protocol_overhead: true,
        }
    }

    /// A small 2-level topology for unit tests: `clusters_per_l1 × l1_count`.
    pub fn small(clusters_per_l1: usize, l1_count: usize) -> Self {
        NocConfig {
            quadrant_factors: vec![clusters_per_l1, l1_count],
            link_width_bytes: vec![64, 64],
            router_latency_cycles: vec![4, 4],
            hbm: HbmConfig::default(),
            frequency: Frequency::from_ghz(1),
            model_protocol_overhead: true,
        }
    }

    /// Number of tree levels (routers), the last being the wrapper.
    pub fn n_levels(&self) -> usize {
        self.quadrant_factors.len()
    }

    /// Total number of leaf clusters.
    pub fn n_clusters(&self) -> usize {
        self.quadrant_factors.iter().product()
    }

    /// Number of routers at `level` (1-based; `n_levels()` is the wrapper).
    ///
    /// # Panics
    /// Panics if `level` is 0 or greater than [`NocConfig::n_levels`].
    pub fn routers_at_level(&self, level: usize) -> usize {
        assert!(level >= 1 && level <= self.n_levels(), "level out of range");
        self.n_clusters() / self.quadrant_factors[..level].iter().product::<usize>()
    }

    /// Index of the ancestor router of `cluster` at `level` (level 0 returns
    /// the cluster itself).
    pub fn ancestor(&self, cluster: usize, level: usize) -> usize {
        let div: usize = self.quadrant_factors[..level].iter().product();
        cluster / div
    }

    /// The lowest level at which two clusters share an ancestor router.
    ///
    /// Adjacent clusters under the same L1 node return 1; clusters in
    /// different wrapper subtrees return `n_levels()`.
    pub fn common_ancestor_level(&self, a: usize, b: usize) -> usize {
        for level in 1..=self.n_levels() {
            if self.ancestor(a, level) == self.ancestor(b, level) {
                return level;
            }
        }
        self.n_levels()
    }

    /// Validates structural consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.quadrant_factors.is_empty() {
            return Err("topology needs at least one level".into());
        }
        if self.quadrant_factors.contains(&0) {
            return Err("quadrant factors must be positive".into());
        }
        if self.link_width_bytes.len() != self.n_levels()
            || self.router_latency_cycles.len() != self.n_levels()
        {
            return Err("per-level parameter vectors must match level count".into());
        }
        if self.link_width_bytes.contains(&0) || self.hbm.width_bytes == 0 {
            return Err("link widths must be positive".into());
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::paper_512()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_counts() {
        let c = NocConfig::paper_512();
        assert!(c.validate().is_ok());
        assert_eq!(c.n_clusters(), 512);
        assert_eq!(c.routers_at_level(1), 128);
        assert_eq!(c.routers_at_level(2), 32);
        assert_eq!(c.routers_at_level(3), 8);
        assert_eq!(c.routers_at_level(4), 1);
    }

    #[test]
    fn ancestors_follow_divisions() {
        let c = NocConfig::paper_512();
        assert_eq!(c.ancestor(0, 1), 0);
        assert_eq!(c.ancestor(3, 1), 0);
        assert_eq!(c.ancestor(4, 1), 1);
        assert_eq!(c.ancestor(511, 1), 127);
        assert_eq!(c.ancestor(511, 4), 0);
    }

    #[test]
    fn common_ancestor_levels() {
        let c = NocConfig::paper_512();
        assert_eq!(c.common_ancestor_level(0, 1), 1); // same L1 quad
        assert_eq!(c.common_ancestor_level(0, 4), 2); // same L2 quad
        assert_eq!(c.common_ancestor_level(0, 16), 3); // same L3 quad
        assert_eq!(c.common_ancestor_level(0, 64), 4); // wrapper
        assert_eq!(c.common_ancestor_level(0, 511), 4);
        assert_eq!(c.common_ancestor_level(7, 7), 1); // self: nearest router
    }

    #[test]
    fn validate_catches_mismatched_vectors() {
        let mut c = NocConfig::paper_512();
        c.link_width_bytes.pop();
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_512();
        c.quadrant_factors = vec![];
        assert!(c.validate().is_err());
        let mut c = NocConfig::paper_512();
        c.quadrant_factors[0] = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn hbm_defaults_match_table1() {
        let h = HbmConfig::default();
        assert_eq!(h.latency_cycles, 100);
        assert_eq!(h.width_bytes, 64);
        assert_eq!(h.capacity_bytes, 1536 * 1024 * 1024);
    }
}
