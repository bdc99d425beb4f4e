//! Energy and area models, calibrated to the paper's system-level anchors.
//!
//! The paper obtains physical numbers from a 22 nm FDX implementation of the
//! cluster (Synopsys DC / Innovus / PrimeTime) scaled to 5 nm. We cannot run
//! those flows; instead the constants below are chosen so that the paper's
//! *own system-level anchors* hold on the paper's workload:
//!
//! * 512 clusters ≈ 480 mm² (Sec. VI)  → 0.9375 mm²/cluster;
//! * ideal throughput ≈ 516 TOPS (Fig. 6) — follows from Table I alone;
//! * ≈15 mJ for a 16-image batch, ≈6.5 TOPS/W (Sec. VI) — sets the energy
//!   split between analog MVMs, digital cores, interconnect and leakage.
//!
//! Every derived figure (Fig. 6 waterfall, Fig. 7 GOPS/mm², headline
//! TOPS/W) consumes the anchors only through these constants.

/// Energy model constants (all per-event, in the units stated).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy per analog MVM in nJ (array + DAC/ADC + streamers). The
    /// HERMES-class measurements put complete-MVM energy at a few nJ for
    /// 256×256; 3.8 nJ lands total analog energy at ≈6 mJ/batch.
    pub mvm_nj: f64,
    /// Energy per active core cycle in pJ (RV32 + DSP extensions, 5 nm).
    pub core_cycle_pj: f64,
    /// Interconnect energy per byte per tree level crossed, in pJ.
    pub noc_byte_hop_pj: f64,
    /// HBM access energy per byte, in pJ.
    pub hbm_byte_pj: f64,
    /// Static (leakage + clock tree) power per *active* cluster in mW;
    /// unused clusters are power-gated (Sec. VI: "each cluster can be easily
    /// clock and power gated").
    pub cluster_static_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            mvm_nj: 3.8,
            core_cycle_pj: 18.0,
            noc_byte_hop_pj: 0.8,
            hbm_byte_pj: 6.0,
            cluster_static_mw: 7.0,
        }
    }
}

/// Tallies of energy-relevant activity collected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyTallies {
    /// Total analog MVMs executed (summed over all crossbars).
    pub mvms: u64,
    /// Total active core cycles (summed over all clusters).
    pub core_cycles: u64,
    /// Total byte·level-crossings on the interconnect.
    pub noc_byte_hops: u64,
    /// Total bytes through the HBM controller.
    pub hbm_bytes: u64,
    /// Active clusters × seconds (for static power).
    pub cluster_seconds: f64,
}

/// Energy breakdown in millijoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Analog arrays + converters.
    pub analog_mj: f64,
    /// Digital cores.
    pub digital_mj: f64,
    /// On-chip interconnect.
    pub noc_mj: f64,
    /// HBM channel.
    pub hbm_mj: f64,
    /// Static power of active clusters.
    pub static_mj: f64,
}

impl EnergyBreakdown {
    /// Total energy in mJ.
    pub fn total_mj(&self) -> f64 {
        self.analog_mj + self.digital_mj + self.noc_mj + self.hbm_mj + self.static_mj
    }
}

impl EnergyModel {
    /// Converts activity tallies to an energy breakdown.
    pub fn breakdown(&self, t: &EnergyTallies) -> EnergyBreakdown {
        EnergyBreakdown {
            analog_mj: t.mvms as f64 * self.mvm_nj * 1e-6,
            digital_mj: t.core_cycles as f64 * self.core_cycle_pj * 1e-9,
            noc_mj: t.noc_byte_hops as f64 * self.noc_byte_hop_pj * 1e-9,
            hbm_mj: t.hbm_bytes as f64 * self.hbm_byte_pj * 1e-9,
            static_mj: t.cluster_seconds * self.cluster_static_mw,
        }
    }
}

/// Area model in mm², 5 nm-scaled so that 512 clusters take the 480 mm²
/// of Sec. VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One IMA (PCM macro + 256 ADC/DAC lanes + streamers).
    pub ima_mm2: f64,
    /// 16 RISC-V cores + instruction cache + event unit.
    pub cores_mm2: f64,
    /// 1 MB multi-banked L1 TCDM.
    pub l1_mm2: f64,
    /// Cluster periphery: DMA, crossbar interconnect, clocking.
    pub periphery_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            ima_mm2: 0.26,
            cores_mm2: 0.30,
            l1_mm2: 0.31,
            periphery_mm2: 0.0675,
        }
    }
}

/// The heterogeneous cluster variants the paper proposes in Sec. VI to
/// mitigate the "local mapping" inefficiency: *"integrate heterogeneous
/// clusters configured to fit better all the possibilities, such as IMA and
/// a single CORE (i.e., analog clusters) or 16 CORES without IMA (i.e.,
/// digital clusters)"*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterVariant {
    /// The baseline homogeneous cluster: IMA + 16 cores + L1.
    Full,
    /// IMA + one control core + L1 (analog-dominated stages).
    Analog,
    /// 16 cores + L1, no IMA (digital and reduction stages).
    Digital,
    /// L1 + DMA only (residual storage clusters).
    Memory,
}

impl AreaModel {
    /// Area of one baseline cluster.
    pub fn cluster_mm2(&self) -> f64 {
        self.variant_mm2(ClusterVariant::Full)
    }

    /// Area of one cluster of the given variant. The single control core of
    /// an analog cluster is 1/16 of the core complex; every variant keeps
    /// the L1 (tiles must still be buffered) and the periphery.
    pub fn variant_mm2(&self, v: ClusterVariant) -> f64 {
        match v {
            ClusterVariant::Full => {
                self.ima_mm2 + self.cores_mm2 + self.l1_mm2 + self.periphery_mm2
            }
            ClusterVariant::Analog => {
                self.ima_mm2 + self.cores_mm2 / 16.0 + self.l1_mm2 + self.periphery_mm2
            }
            ClusterVariant::Digital => self.cores_mm2 + self.l1_mm2 + self.periphery_mm2,
            ClusterVariant::Memory => self.l1_mm2 + self.periphery_mm2,
        }
    }

    /// Area of `n` baseline clusters (the paper's 480 mm² for 512).
    pub fn platform_mm2(&self, n_clusters: usize) -> f64 {
        self.cluster_mm2() * n_clusters as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_areas_are_ordered() {
        let a = AreaModel::default();
        let full = a.variant_mm2(ClusterVariant::Full);
        let analog = a.variant_mm2(ClusterVariant::Analog);
        let digital = a.variant_mm2(ClusterVariant::Digital);
        let memory = a.variant_mm2(ClusterVariant::Memory);
        assert!(full > analog, "dropping 15 cores must save area");
        assert!(full > digital, "dropping the IMA must save area");
        assert!(digital > memory);
        assert!(analog > memory);
        // Sanity: analog cluster keeps the IMA.
        assert!(analog > a.ima_mm2);
    }

    #[test]
    fn cluster_area_matches_paper_anchor() {
        let a = AreaModel::default();
        assert!((a.cluster_mm2() - 0.9375).abs() < 1e-9);
        assert!((a.platform_mm2(512) - 480.0).abs() < 0.01);
    }

    #[test]
    fn batch_energy_lands_near_15_mj() {
        // Back-of-envelope tallies for the final ResNet-18 mapping:
        // 1.62M MVMs, ~160M core cycles, ~400M byte-hops, ~3 MB HBM,
        // ~336 clusters × 2.5 ms.
        let e = EnergyModel::default();
        let b = e.breakdown(&EnergyTallies {
            mvms: 1_620_000,
            core_cycles: 160_000_000,
            noc_byte_hops: 400_000_000,
            hbm_bytes: 3_200_000,
            cluster_seconds: 336.0 * 2.5e-3,
        });
        let total = b.total_mj();
        assert!((10.0..20.0).contains(&total), "total {total} mJ");
        // Analog should dominate, static second.
        assert!(b.analog_mj > b.digital_mj);
        assert!(b.analog_mj > b.noc_mj);
    }

    #[test]
    fn breakdown_components_are_linear() {
        let e = EnergyModel::default();
        let t1 = EnergyTallies {
            mvms: 100,
            core_cycles: 100,
            noc_byte_hops: 100,
            hbm_bytes: 100,
            cluster_seconds: 1.0,
        };
        let t2 = EnergyTallies {
            mvms: 200,
            core_cycles: 200,
            noc_byte_hops: 200,
            hbm_bytes: 200,
            cluster_seconds: 2.0,
        };
        let b1 = e.breakdown(&t1).total_mj();
        let b2 = e.breakdown(&t2).total_mj();
        assert!((b2 - 2.0 * b1).abs() < 1e-12);
    }

    #[test]
    fn zero_activity_zero_energy() {
        let e = EnergyModel::default();
        assert_eq!(e.breakdown(&EnergyTallies::default()).total_mj(), 0.0);
    }
}
