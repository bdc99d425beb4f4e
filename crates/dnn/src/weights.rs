//! Network weights: storage keyed by node id, and deterministic synthetic
//! initialization.
//!
//! The paper evaluates performance, not accuracy, so no pretrained model is
//! required: He-initialized weights exercise exactly the same shapes, op
//! counts and dynamic ranges.

use crate::graph::{Graph, NodeId};
use crate::layer::LayerKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Weight buffers for the parametric nodes of a graph.
///
/// Convolutions store `[out_ch][in_ch][kh][kw]`; linear layers
/// `[out][in]`; residual nodes store their projection's conv weights.
#[derive(Debug, Clone, Default)]
pub struct Weights {
    buffers: HashMap<NodeId, Vec<f32>>,
}

impl Weights {
    /// Creates an empty weight store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer for `node`, if it has parameters.
    pub fn get(&self, node: NodeId) -> Option<&[f32]> {
        self.buffers.get(&node).map(|v| v.as_slice())
    }

    /// Inserts (or replaces) the buffer for `node`.
    pub fn set(&mut self, node: NodeId, buf: Vec<f32>) {
        self.buffers.insert(node, buf);
    }

    /// Number of parametric nodes stored.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether no buffers are stored.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Total scalar parameters stored.
    pub fn total_params(&self) -> usize {
        self.buffers.values().map(|v| v.len()).sum()
    }
}

/// He-normal initialization for every parametric node, deterministic in
/// `seed`.
///
/// # Examples
/// ```
/// use aimc_dnn::{he_init, resnet18_cifar};
/// let g = resnet18_cifar(10);
/// let w = he_init(&g, 42);
/// assert_eq!(w.total_params() as u64, g.total_params());
/// ```
pub fn he_init(graph: &Graph, seed: u64) -> Weights {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Weights::new();
    for node in graph.nodes() {
        let (n_params, fan_in) = match &node.kind {
            LayerKind::Conv(c) => (c.params(), c.in_ch * c.kh * c.kw),
            LayerKind::DepthwiseConv(c) => (c.out_ch * c.kh * c.kw, c.kh * c.kw),
            LayerKind::Linear {
                in_features,
                out_features,
            } => (in_features * out_features, *in_features),
            LayerKind::Residual {
                projection: Some(p),
            } => (p.params(), p.in_ch),
            _ => continue,
        };
        let std = (2.0 / fan_in as f64).sqrt();
        let buf: Vec<f32> = (0..n_params)
            .map(|_| (aimc_xbar::noise::gaussian(&mut rng, std)) as f32)
            .collect();
        w.set(node.id, buf);
    }
    let _ = rng.gen::<u64>(); // burn one draw so seed reuse is detectable in tests
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::resnet18_cifar;

    #[test]
    fn init_covers_all_parametric_nodes() {
        let g = resnet18_cifar(10);
        let w = he_init(&g, 1);
        for n in g.nodes() {
            let has = w.get(n.id).is_some();
            assert_eq!(has, n.kind.params() > 0, "node {}", n.id);
            if let Some(buf) = w.get(n.id) {
                assert_eq!(buf.len(), n.kind.params());
            }
        }
        assert_eq!(w.total_params() as u64, g.total_params());
    }

    #[test]
    fn init_is_deterministic_and_seed_sensitive() {
        let g = resnet18_cifar(10);
        let a = he_init(&g, 7);
        let b = he_init(&g, 7);
        let c = he_init(&g, 8);
        assert_eq!(a.get(0), b.get(0));
        assert_ne!(a.get(0), c.get(0));
    }

    #[test]
    fn he_scale_tracks_fan_in() {
        let g = resnet18_cifar(10);
        let w = he_init(&g, 3);
        // conv0: fan_in = 3*9=27 → std ≈ 0.272
        let buf = w.get(0).unwrap();
        let var: f64 = buf.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() / buf.len() as f64;
        let expect = 2.0 / 27.0;
        assert!(
            (var - expect).abs() < expect * 0.5,
            "variance {var} vs expected {expect}"
        );
    }

    #[test]
    fn store_roundtrip() {
        let mut w = Weights::new();
        assert!(w.is_empty());
        w.set(5, vec![1.0, 2.0]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.get(5), Some(&[1.0, 2.0][..]));
        assert_eq!(w.get(6), None);
        assert_eq!(w.total_params(), 2);
    }
}
