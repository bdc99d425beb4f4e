//! Digital kernel cost models for the 16-core SPMD engine.
//!
//! ## Calibration
//!
//! The paper's clusters run RISC-V cores with DSP/SIMD extensions (Gautschi
//! et al.) at 1 GHz. We model each kernel with a *cycles-per-element* (CPE)
//! constant for a single core on 8-bit data, derived from the inner-loop
//! structure of hand-tuned PULP kernels:
//!
//! | kernel        | inner loop                          | CPE  |
//! |---------------|-------------------------------------|------|
//! | residual add  | 2 loads + SIMD add + store / 4 lanes| 1.0  |
//! | reduction add | same as residual add                | 1.0  |
//! | max pool k×k  | k² loads+max / 4 lanes + store      | k²/4 + 0.5 |
//! | avg pool      | accumulate + scale / 4 lanes        | 0.75 |
//! | ReLU          | load+max+store / 4 lanes            | 0.75 |
//! | requantize    | mul+shift+sat / 4 lanes             | 1.0  |
//! | FC (digital)  | MAC (sdotp 4×8b)                    | 0.25 |
//!
//! Work is divided over the cores with a per-launch overhead
//! (`kernel_launch_cycles`, default 300) covering the Sec. IV-5 execution
//! flow: master-core event wait, DMA/IMA programming, thread wake-up and the
//! closing barrier. Parallelization across *clusters* is the mapper's job.

use aimc_sim::{Cycles, Frequency, SimTime};

/// A digital workload executed by the cluster's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigitalKernel {
    /// Element-wise tensor addition (residual join), `elems` outputs.
    ResidualAdd {
        /// Output elements.
        elems: u64,
    },
    /// Partial-sum reduction of two inputs (one tree level), `elems` outputs.
    ReductionAdd {
        /// Output elements.
        elems: u64,
    },
    /// Max pooling with `k × k` windows, `elems` outputs.
    MaxPool {
        /// Output elements.
        elems: u64,
        /// Window edge.
        k: usize,
    },
    /// Average pooling (incl. global), `elems` *input* elements read.
    AvgPool {
        /// Input elements.
        elems: u64,
    },
    /// Stand-alone ReLU over `elems` elements.
    Relu {
        /// Elements.
        elems: u64,
    },
    /// Requantization (scale + saturate) of `elems` elements.
    Requantize {
        /// Elements.
        elems: u64,
    },
    /// Digital fully-connected fallback, `macs` multiply-accumulates.
    FcDigital {
        /// MAC count.
        macs: u64,
    },
}

impl DigitalKernel {
    /// Single-core cycle cost (before division over cores).
    pub fn single_core_cycles(&self) -> u64 {
        match *self {
            DigitalKernel::ResidualAdd { elems } | DigitalKernel::ReductionAdd { elems } => elems,
            DigitalKernel::MaxPool { elems, k } => {
                // k²/4 compare-lanes + 0.5 store amortization, in fixed point.
                elems * (k * k) as u64 / 4 + elems / 2 + 1
            }
            DigitalKernel::AvgPool { elems } => elems * 3 / 4 + 1,
            DigitalKernel::Relu { elems } => elems * 3 / 4 + 1,
            DigitalKernel::Requantize { elems } => elems,
            DigitalKernel::FcDigital { macs } => macs / 4 + 1,
        }
    }

    /// Output (or processed) element count, for traffic accounting.
    pub fn elems(&self) -> u64 {
        match *self {
            DigitalKernel::ResidualAdd { elems }
            | DigitalKernel::ReductionAdd { elems }
            | DigitalKernel::MaxPool { elems, .. }
            | DigitalKernel::AvgPool { elems }
            | DigitalKernel::Relu { elems }
            | DigitalKernel::Requantize { elems } => elems,
            DigitalKernel::FcDigital { macs } => macs,
        }
    }
}

/// Timing report for one digital kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelReport {
    /// Wall-clock duration including launch overhead.
    pub duration: SimTime,
    /// Core-cycles actually consumed (for the energy model): busy cores ×
    /// cycles.
    pub core_cycles: u64,
}

/// The SPMD digital-kernel timing model.
///
/// # Examples
/// ```
/// use aimc_cluster::{DigitalEngine, DigitalKernel};
/// use aimc_sim::Frequency;
/// let eng = DigitalEngine::new(16, 300, Frequency::from_ghz(1));
/// let r = eng.run(DigitalKernel::ResidualAdd { elems: 16_000 });
/// // 16k elems / 16 cores = 1000 cycles + 300 launch = 1.3 us.
/// assert_eq!(r.duration, aimc_sim::SimTime::from_ns(1300));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DigitalEngine {
    n_cores: usize,
    launch_cycles: u64,
    freq: Frequency,
}

impl DigitalEngine {
    /// Creates an engine with `n_cores` workers and a per-launch overhead.
    ///
    /// # Panics
    /// Panics if `n_cores == 0`.
    pub fn new(n_cores: usize, launch_cycles: u64, freq: Frequency) -> Self {
        assert!(n_cores > 0, "engine needs at least one core");
        DigitalEngine {
            n_cores,
            launch_cycles,
            freq,
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Executes one kernel launch.
    pub fn run(&self, kernel: DigitalKernel) -> KernelReport {
        let serial = kernel.single_core_cycles();
        let parallel = serial.div_ceil(self.n_cores as u64);
        let total = self.launch_cycles + parallel;
        KernelReport {
            duration: self.freq.cycles_to_time(Cycles(total)),
            core_cycles: serial + self.launch_cycles, // master core orchestrates
        }
    }

    /// Executes several kernels back-to-back (one launch overhead each).
    pub fn run_all(&self, kernels: &[DigitalKernel]) -> KernelReport {
        let mut duration = SimTime::ZERO;
        let mut core_cycles = 0;
        for &k in kernels {
            let r = self.run(k);
            duration += r.duration;
            core_cycles += r.core_cycles;
        }
        KernelReport {
            duration,
            core_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DigitalEngine {
        DigitalEngine::new(16, 300, Frequency::from_ghz(1))
    }

    #[test]
    fn residual_add_scales_with_cores() {
        let one = DigitalEngine::new(1, 0, Frequency::from_ghz(1))
            .run(DigitalKernel::ResidualAdd { elems: 4096 });
        let sixteen = DigitalEngine::new(16, 0, Frequency::from_ghz(1))
            .run(DigitalKernel::ResidualAdd { elems: 4096 });
        assert_eq!(one.duration.as_ps(), 16 * sixteen.duration.as_ps());
    }

    #[test]
    fn launch_overhead_is_added_once() {
        let r = engine().run(DigitalKernel::Relu { elems: 16 });
        // ceil((16*3/4+1)/16)=1 cycle + 300 launch.
        assert_eq!(r.duration, SimTime::from_ns(301));
    }

    #[test]
    fn maxpool_costs_grow_with_window() {
        let k2 = engine().run(DigitalKernel::MaxPool { elems: 4096, k: 2 });
        let k3 = engine().run(DigitalKernel::MaxPool { elems: 4096, k: 3 });
        assert!(k3.duration > k2.duration);
    }

    #[test]
    fn pool1_latency_matches_design_estimate() {
        // The paper's Layer 1: 3x3 maxpool to 64x64x64 output = 262144 elems.
        // Expect ≈ 262144*(9/4+0.5)/16 ≈ 45k cycles ⇒ ~45 us at 1 GHz.
        let r = engine().run(DigitalKernel::MaxPool {
            elems: 64 * 64 * 64,
            k: 3,
        });
        let us = r.duration.as_us_f64();
        assert!((40.0..60.0).contains(&us), "pool1 took {us} us");
    }

    #[test]
    fn fc_digital_uses_simd_macs() {
        let r = engine().run(DigitalKernel::FcDigital { macs: 512_000 });
        // (512k/4 + 1) = 128001 cycles / 16 cores = 8001 cycles.
        assert_eq!(r.duration, SimTime::from_ns(300 + 8001));
    }

    #[test]
    fn run_all_accumulates() {
        let ks = [
            DigitalKernel::ReductionAdd { elems: 1000 },
            DigitalKernel::Requantize { elems: 1000 },
        ];
        let both = engine().run_all(&ks);
        let sum = engine().run(ks[0]).duration + engine().run(ks[1]).duration;
        assert_eq!(both.duration, sum);
        assert!(both.core_cycles >= 2 * 300);
    }

    #[test]
    fn core_cycles_track_serial_work() {
        let r = engine().run(DigitalKernel::ResidualAdd { elems: 10_000 });
        assert_eq!(r.core_cycles, 10_000 + 300);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn rejects_zero_cores() {
        DigitalEngine::new(0, 0, Frequency::from_ghz(1));
    }
}
