//! The three platforms the workloads run, and their seeded inputs.

use crate::stats::uniform_values;
use aimc_platform::prelude::*;

/// He-init seed of every platform's functional weights.
pub const WEIGHT_SEED: u64 = 42;
/// Programming seed of every analog backend.
pub const ANALOG_SEED: u64 = 7;

/// Input-stream tags (see [`crate::stats::stream_rng`]).
pub const TAG_CIFAR: u64 = 1;
pub const TAG_MICRO: u64 = 2;

/// ResNet-18/CIFAR-10 on a small 8×8-cluster architecture.
pub fn cifar_platform(par: Parallelism) -> Result<Platform, Error> {
    Platform::builder()
        .graph(resnet18_cifar(10))
        .arch(ArchConfig::small(8, 8))
        .he_weights(WEIGHT_SEED)
        .parallelism(par)
        .build()
}

pub fn cifar_backend() -> Backend {
    Backend::analog(ANALOG_SEED, XbarConfig::hermes_256())
}

/// The serving model: input 3×4×4, one 3×3 conv 3→4, global average pool,
/// linear 4→2. Its compute is a few µs per image, so a served request's
/// cost is mostly the serving stack's.
pub fn micro_graph() -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 4, 4));
    let c = b.conv("c0", b.input(), ConvCfg::k3(3, 4, 1));
    let g = b.global_avgpool("gap", c);
    b.linear("fc", g, 2);
    b.finish()
}

/// The micro model on one serial thread per seat.
pub fn micro_platform() -> Result<Platform, Error> {
    Platform::builder()
        .graph(micro_graph())
        .arch(ArchConfig::small(8, 8))
        .he_weights(WEIGHT_SEED)
        .build()
}

pub fn micro_backend() -> Backend {
    Backend::analog(ANALOG_SEED, XbarConfig::hermes_256().with_size(32, 4))
}

/// The paper's pair: ResNet-18 at 256×256 on the Table I platform.
pub fn paper_platform(par: Parallelism) -> Result<Platform, Error> {
    Platform::builder()
        .graph(resnet18(256, 256, 1000))
        .arch(ArchConfig::paper())
        .strategy(MappingStrategy::OnChipResiduals)
        .parallelism(par)
        .build()
}

/// Image `index` of the input stream `tag`, values uniform in `[-1, 1)`.
pub fn image(seed: u64, tag: u64, index: u64, shape: Shape) -> Tensor {
    Tensor::from_vec(shape, uniform_values(seed, tag, index, shape.numel()))
}

/// Bit-level equality of two logit tensors.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
