//! Bit-serial input evaluation (ISAAC/PUMA style).
//!
//! Instead of converting each activation once through a multi-bit DAC, the
//! input vector is applied one *bit plane* at a time: `n_bits` binary
//! word-line pulses, each producing a partial bit-line sum that is ADC-read
//! and shift-accumulated digitally. The paper's platform uses the parallel
//! 8-bit-DAC scheme of HERMES (Table I), but its related work (ISAAC,
//! Shafiee et al.; PUMA, Ankit et al.) is bit-serial — this module lets the
//! benches compare the two regimes on identical arrays:
//!
//! * per-MVM latency multiplies by the bit count;
//! * DAC nonlinearity disappears (pulses are binary);
//! * read noise is drawn once per bit plane and accumulates through the
//!   shift-add, weighted by each plane's significance.

use crate::crossbar::{Crossbar, XbarError};
use crate::kernel::{self, MvmScratch};

impl Crossbar {
    /// Evaluates `y = Wᵀx` bit-serially with `n_bits` input bit planes.
    ///
    /// The input is normalized to the vector's max-abs (like the parallel
    /// path), quantized to a *signed* `n_bits`-bit integer, and applied as
    /// binary pulses from MSB-1 planes down; negative values use two-phase
    /// (subtractive) evaluation, as memristive designs do.
    ///
    /// Read noise follows the same per-call stream model as
    /// [`Crossbar::mvm`]: this convenience draws the next internal
    /// invocation index (one bit-serial evaluation counts as one MVM for
    /// accounting); [`Crossbar::mvm_bit_serial_at`] takes the index
    /// explicitly for order-independent parallel execution.
    ///
    /// # Errors
    /// Returns [`XbarError::InputLength`] on dimension mismatch, or
    /// [`XbarError::BadConfig`] if `n_bits` is not in `1..=16`.
    pub fn mvm_bit_serial(&self, x: &[f32], n_bits: u32) -> Result<Vec<f32>, XbarError> {
        // Validate before claiming an invocation: rejected calls must not
        // count as evaluations nor shift later calls' noise streams.
        self.check_bit_serial_args(x, n_bits)?;
        let invocation = self.next_invocation();
        Ok(self.bit_serial_core(x, n_bits, invocation))
    }

    /// [`Crossbar::mvm_bit_serial`] with a caller-chosen invocation index
    /// selecting the read-noise stream.
    ///
    /// # Errors
    /// Same conditions as [`Crossbar::mvm_bit_serial`].
    pub fn mvm_bit_serial_at(
        &self,
        x: &[f32],
        n_bits: u32,
        invocation: u64,
    ) -> Result<Vec<f32>, XbarError> {
        self.check_bit_serial_args(x, n_bits)?;
        self.next_invocation();
        Ok(self.bit_serial_core(x, n_bits, invocation))
    }

    fn check_bit_serial_args(&self, x: &[f32], n_bits: u32) -> Result<(), XbarError> {
        if !(1..=16).contains(&n_bits) {
            return Err(XbarError::BadConfig(format!(
                "bit-serial input bits {n_bits} out of range 1..=16"
            )));
        }
        if x.len() != self.rows_used() {
            return Err(XbarError::InputLength {
                got: x.len(),
                expected: self.rows_used(),
            });
        }
        Ok(())
    }

    /// Pre-validated bit-serial evaluation through the packed kernel with
    /// this thread's fallback scratch (see [`crate::kernel`]).
    fn bit_serial_core(&self, x: &[f32], n_bits: u32, invocation: u64) -> Vec<f32> {
        let mut y = vec![0.0f32; self.cols_used()];
        kernel::with_thread_scratch(|s| {
            kernel::bit_serial_packed(self, x, n_bits, &mut y, invocation, s)
        });
        y
    }

    /// Like [`Crossbar::mvm_bit_serial_at`] but writing into a caller
    /// buffer and reusing a caller-owned [`MvmScratch`] — the
    /// zero-allocation bit-serial hot path.
    ///
    /// Results are bit-identical to the other bit-serial entry points for
    /// the same invocation index.
    ///
    /// # Errors
    /// Same conditions as [`Crossbar::mvm_bit_serial`], plus
    /// [`XbarError::InputLength`] if `out` is not `cols_used` long.
    pub fn mvm_bit_serial_into_with(
        &self,
        x: &[f32],
        n_bits: u32,
        out: &mut [f32],
        invocation: u64,
        scratch: &mut MvmScratch,
    ) -> Result<(), XbarError> {
        self.check_bit_serial_args(x, n_bits)?;
        if out.len() != self.cols_used() {
            return Err(XbarError::InputLength {
                got: out.len(),
                expected: self.cols_used(),
            });
        }
        self.next_invocation();
        kernel::bit_serial_packed(self, x, n_bits, out, invocation, scratch);
        Ok(())
    }

    /// Scalar reference bit-serial evaluation at an explicit invocation
    /// index — the pre-packing per-plane predicate loop kept as the
    /// equivalence oracle for the `kernel_equivalence` tests (proptests
    /// plus the ResNet-18 tile-census shapes).
    ///
    /// Returns results bit-identical to [`Crossbar::mvm_bit_serial_at`]
    /// for the same `invocation`; it is slower and allocates per plane.
    ///
    /// # Errors
    /// Same conditions as [`Crossbar::mvm_bit_serial`].
    pub fn mvm_bit_serial_reference_at(
        &self,
        x: &[f32],
        n_bits: u32,
        invocation: u64,
    ) -> Result<Vec<f32>, XbarError> {
        self.check_bit_serial_args(x, n_bits)?;
        self.next_invocation();
        Ok(kernel::bit_serial_reference(self, x, n_bits, invocation))
    }

    /// Latency of a bit-serial MVM: one array evaluation per bit plane (two
    /// phases share a plane's evaluation slot in pipelined designs).
    pub fn bit_serial_latency_ns(&self, n_bits: u32) -> f64 {
        self.config().mvm_latency_ns / 8.0 * n_bits.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XbarConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn ref_mvm(w: &[f32], rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; cols];
        for r in 0..rows {
            for c in 0..cols {
                y[c] += w[r * cols + c] * x[r];
            }
        }
        y
    }

    #[test]
    fn bit_serial_matches_reference_on_ideal_array() {
        let mut rng = rng();
        let rows = 24;
        let cols = 6;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31 % 97) as f32 - 48.0) / 48.0)
            .collect();
        let x: Vec<f32> = (0..rows)
            .map(|i| ((i * 7 % 15) as f32 - 7.0) / 7.0)
            .collect();
        let xb =
            Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let y = xb.mvm_bit_serial(&x, 12).unwrap();
        let yref = ref_mvm(&w, rows, cols, &x);
        for (a, b) in y.iter().zip(&yref) {
            // 11 magnitude bits over sums of 24 terms.
            assert!(
                (a - b).abs() < 0.02 * rows as f32 / 24.0 + 0.02,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn bit_serial_agrees_with_parallel_path() {
        let mut rng = rng();
        let rows = 16;
        let cols = 4;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i % 9) as f32 - 4.0) / 4.0)
            .collect();
        let x: Vec<f32> = (0..rows).map(|i| ((i % 5) as f32 - 2.0) / 2.0).collect();
        let xb =
            Crossbar::program(&XbarConfig::ideal(rows, cols), &w, rows, cols, &mut rng).unwrap();
        let par = xb.mvm(&x).unwrap();
        let ser = xb.mvm_bit_serial(&x, 16).unwrap();
        for (a, b) in par.iter().zip(&ser) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn read_noise_propagates_through_planes() {
        // Per-plane read noise reaches the output through the shift-add, but
        // each plane's contribution is scaled by its significance over the
        // quantization levels, so the net noise is *comparable* to the
        // single-evaluation parallel path (dominated by the MSB planes),
        // not n_bits times larger.
        let mut cfg = XbarConfig::ideal(32, 2);
        cfg.read_noise_sigma = 0.02;
        let mut rng = rng();
        let w = vec![0.3f32; 64];
        let x: Vec<f32> = (0..32).map(|i| (i as f32 % 7.0) / 7.0).collect();
        let xb = Crossbar::program(&cfg, &w, 32, 2, &mut rng).unwrap();
        // Each evaluation draws a fresh invocation stream, so variance
        // across repeated calls measures the read-noise magnitude.
        let spread = |f: &mut dyn FnMut() -> f32| {
            let vals: Vec<f32> = (0..60).map(|_| f()).collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32
        };
        let var_par = spread(&mut || xb.mvm(&x).unwrap()[0]);
        let var_ser = spread(&mut || xb.mvm_bit_serial(&x, 8).unwrap()[0]);
        assert!(var_ser > 0.0, "bit-serial output must be noisy");
        assert!(var_par > 0.0, "parallel output must be noisy");
        let ratio = var_ser / var_par;
        assert!(
            (0.05..20.0).contains(&ratio),
            "noise regimes should be comparable: ratio {ratio}"
        );
    }

    #[test]
    fn latency_scales_with_bits() {
        let mut rng = rng();
        let xb = Crossbar::program(&XbarConfig::hermes_256(), &[0.1; 16], 4, 4, &mut rng).unwrap();
        let l8 = xb.bit_serial_latency_ns(8);
        let l16 = xb.bit_serial_latency_ns(16);
        assert!((l8 - 130.0).abs() < 1e-9, "8-bit serial ≈ parallel: {l8}");
        assert!((l16 - 260.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_bit_counts_and_lengths() {
        let mut rng = rng();
        let xb = Crossbar::program(&XbarConfig::ideal(4, 4), &[0.1; 16], 4, 4, &mut rng).unwrap();
        assert!(matches!(
            xb.mvm_bit_serial(&[0.0; 4], 0),
            Err(XbarError::BadConfig(_))
        ));
        assert!(matches!(
            xb.mvm_bit_serial(&[0.0; 4], 17),
            Err(XbarError::BadConfig(_))
        ));
        assert!(matches!(
            xb.mvm_bit_serial(&[0.0; 3], 8),
            Err(XbarError::InputLength { .. })
        ));
    }

    #[test]
    fn zero_input_is_silent() {
        let mut cfg = XbarConfig::ideal(8, 2);
        cfg.read_noise_sigma = 0.1; // would be loud if planes fired
        let mut rng = rng();
        let xb = Crossbar::program(&cfg, &[0.5; 16], 8, 2, &mut rng).unwrap();
        let y = xb.mvm_bit_serial(&[0.0; 8], 8).unwrap();
        assert!(y.iter().all(|&v| v == 0.0), "{y:?}");
    }
}
