//! The analog executor's pinned logits.
//!
//! Every other determinism suite compares two paths of the *same* code
//! (serial vs threaded, batched vs single, packed vs reference kernel). A
//! change that moved bits on every path at once — the DAC scale, the noise
//! sampler, im2col, the digital reduction — would pass them all. This suite
//! closes that gap: it pins the exact `to_bits` of recorded logits, so any
//! host-side speedup of the analog hot path must reproduce them unchanged.
//!
//! * **ResNet-18/CIFAR-10** (He weights, seed 42) on the executor that
//!   `Backend::analog(7, XbarConfig::hermes_256())` programs, three images
//!   at stream coordinates 0, 1 and 17 through `try_infer_batch_at` at
//!   `Serial` — the serial conv path, read noise on.
//! * **A small row-split CNN** on 32×4 arrays, one image at `Threads(2)` —
//!   the tile-parallel conv path with per-tile im2col row ranges.

use aimc_platform::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_image(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        shape,
        (0..shape.numel())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts `got` equals the pinned bit patterns, printing the observed ones
/// on mismatch so a deliberate numeric change can re-record them.
fn assert_pinned(what: &str, got: &Tensor, want: &[u32]) {
    let got = bits(got);
    let hex: Vec<String> = got.iter().map(|b| format!("0x{b:08x}")).collect();
    assert_eq!(
        got,
        want,
        "{what}: logits moved; observed [{}] = {:?}",
        hex.join(", "),
        got.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>()
    );
}

const RESNET_COORD_0: [u32; 10] = [
    0xc109b178, 0x411448f8, 0xc12977f7, 0x00000000, 0xc15e6d74, 0xc0d3d5f4, 0xbf2977f7, 0x40fe33f2,
    0x40d3d5f4, 0xbfa977f7,
];
const RESNET_COORD_1: [u32; 10] = [
    0xc0ebc55e, 0x41135b5b, 0xc1098877, 0xbf1d2e3f, 0xc14e4cb2, 0xc1098877, 0xbf9d2e3f, 0x40d81f96,
    0x40c479ce, 0x3f1d2e3f,
];
const RESNET_COORD_17: [u32; 10] = [
    0xc10d4b11, 0x412de63d, 0xc1182975, 0xbfade63d, 0xc14e8168, 0xc1182975, 0xbf2de63d, 0x40c3a304,
    0x40d95fcc, 0x00000000,
];
const ROW_SPLIT_TILE_PARALLEL: [u32; 4] = [0x3efecfcd, 0x3f293d99, 0xbee062ee, 0xbefb0231];

#[test]
fn resnet18_cifar_analog_logits_are_pinned() {
    let g = resnet18_cifar(10);
    let w = he_init(&g, 42);
    let exec = AimcExecutor::try_program(&g, &w, &XbarConfig::hermes_256(), 7).unwrap();
    let images: Vec<Tensor> = (0..3)
        .map(|i| random_image(g.input_shape(), 500 + i))
        .collect();
    // Coordinates 0 and 1 as one two-image batch, 17 on its own.
    let first = exec
        .try_infer_batch_at(&images[..2], 0, Parallelism::Serial)
        .unwrap();
    let later = exec
        .try_infer_batch_at(&images[2..], 17, Parallelism::Serial)
        .unwrap();
    assert_pinned("resnet coordinate 0", &first[0], &RESNET_COORD_0);
    assert_pinned("resnet coordinate 1", &first[1], &RESNET_COORD_1);
    assert_pinned("resnet coordinate 17", &later[0], &RESNET_COORD_17);
}

#[test]
fn row_split_tile_parallel_logits_are_pinned() {
    let mut b = GraphBuilder::new(Shape::new(3, 8, 8));
    let c0 = b.conv("c0", b.input(), ConvCfg::k3(3, 8, 1));
    let c1 = b.conv("c1", Some(c0), ConvCfg::k3(8, 8, 1));
    let r = b.residual("r", c1, c0, None);
    let p = b.global_avgpool("gap", r);
    b.linear("fc", p, 4);
    let g = b.finish();
    let w = he_init(&g, 42);
    // 72-row c1 splits over three 32-row arrays; 8 channels over two
    // 4-column arrays.
    let cfg = XbarConfig::hermes_256().with_size(32, 4);
    let exec = AimcExecutor::try_program(&g, &w, &cfg, 7).unwrap();
    let x = random_image(g.input_shape(), 77);
    let y = exec
        .try_infer_batch_at(std::slice::from_ref(&x), 0, Parallelism::Threads(2))
        .unwrap();
    assert_pinned("row-split tile-parallel", &y[0], &ROW_SPLIT_TILE_PARALLEL);
}
