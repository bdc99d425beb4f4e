//! ResNet-18 builder matching the paper's layer numbering (Fig. 2A) and the
//! layer grouping used for the area-efficiency breakdown (Fig. 7).

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::layer::{ConvCfg, LayerKind};
use crate::tensor::Shape;

/// Builds a ResNet-18 for `h × w` inputs with `num_classes` outputs.
///
/// Node numbering follows Fig. 2A exactly (for the paper's 256×256 input):
///
/// ```text
/// 0 conv(7x7 s2) · 1 pool · [2 conv · 3 conv · 4 res] · [5..7] ·
/// [8 conv(s2) · 9 conv · 10 res+proj] · [11..13] ·
/// [14 conv(s2) · 15 conv · 16 res+proj] · [17..19] ·
/// [20 conv(s2) · 21 conv · 22 res+proj] · [23..25] · 26 pool · 27 FC
/// ```
///
/// The 1×1 stride-2 projection convolutions of the standard ResNet-18 are
/// attached to the residual nodes (10, 16, 22) rather than numbered
/// separately, preserving the paper's 28-node layout; their parameters and
/// MACs are attributed to those nodes.
///
/// # Examples
/// ```
/// use aimc_dnn::resnet18;
/// let g = resnet18(256, 256, 1000);
/// assert_eq!(g.len(), 28);
/// assert_eq!(g.node(20).kind.params(), 512 * 512 * 9 / 2); // 256→512 s2
/// ```
///
/// # Panics
/// Panics if `h` or `w` is smaller than 32 (the network degenerates).
pub fn resnet18(h: usize, w: usize, num_classes: usize) -> Graph {
    assert!(h >= 32 && w >= 32, "input too small for ResNet-18");
    let mut b = GraphBuilder::new(Shape::new(3, h, w));

    // Stem: 7x7/2 conv + 3x3/2 maxpool.
    let c0 = b.conv(
        "conv0",
        b.input(),
        ConvCfg {
            in_ch: 3,
            out_ch: 64,
            kh: 7,
            kw: 7,
            stride: 2,
            pad: 3,
            relu: true,
        },
    );
    let p1 = b.maxpool("pool1", c0, 3, 2, 1);

    // Four stages of two basic blocks each.
    let widths = [64usize, 128, 256, 512];
    let mut prev = p1;
    let mut node = 2usize;
    for (stage, &ch) in widths.iter().enumerate() {
        for block in 0..2 {
            let downsample = stage > 0 && block == 0;
            let in_ch = if downsample { widths[stage - 1] } else { ch };
            let stride = if downsample { 2 } else { 1 };
            let ca = b.conv(
                &format!("conv{node}"),
                Some(prev),
                ConvCfg::k3(in_ch, ch, stride),
            );
            let cb = b.conv(
                &format!("conv{}", node + 1),
                Some(ca),
                // Second conv of a block: ReLU is applied after the residual
                // add, not here.
                ConvCfg {
                    relu: false,
                    ..ConvCfg::k3(ch, ch, 1)
                },
            );
            let projection = downsample.then(|| ConvCfg::k1(in_ch, ch, 2));
            let r = b.residual(&format!("res{}", node + 2), cb, prev, projection);
            prev = r;
            node += 3;
        }
    }

    let gap = b.global_avgpool("pool26", prev);
    b.linear("fc27", gap, num_classes);
    b.finish()
}

/// A CIFAR-style ResNet-18 variant (3×3 stem, no initial max-pool) used by
/// functional accuracy tests where the full 256×256 network would be
/// needlessly slow. Mapping experiments always use [`resnet18`].
pub fn resnet18_cifar(num_classes: usize) -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 32, 32));
    let c0 = b.conv("conv0", b.input(), ConvCfg::k3(3, 16, 1));
    let widths = [16usize, 32, 64];
    let mut prev = c0;
    let mut node = 1usize;
    for (stage, &ch) in widths.iter().enumerate() {
        for block in 0..2 {
            let downsample = stage > 0 && block == 0;
            let in_ch = if downsample { widths[stage - 1] } else { ch };
            let stride = if downsample { 2 } else { 1 };
            let ca = b.conv(
                &format!("conv{node}"),
                Some(prev),
                ConvCfg::k3(in_ch, ch, stride),
            );
            let cb = b.conv(
                &format!("conv{}", node + 1),
                Some(ca),
                ConvCfg {
                    relu: false,
                    ..ConvCfg::k3(ch, ch, 1)
                },
            );
            let projection = downsample.then(|| ConvCfg::k1(in_ch, ch, 2));
            let r = b.residual(&format!("res{}", node + 2), cb, prev, projection);
            prev = r;
            node += 3;
        }
    }
    let gap = b.global_avgpool("gap", prev);
    b.linear("fc", gap, num_classes);
    b.finish()
}

/// The six layer groups of Fig. 7, keyed by the stage's characteristic IFM
/// shape (for the 256×256 network):
/// `256x256x3, 128x128x64, 64x64x64, 32x32x128, 16x16x256, 8x8x512`.
///
/// Returns the group index (0..=5) of a node of [`resnet18`]. Grouping is by
/// pipeline stage (stem conv, stem pool, then the four residual stages; the
/// tail pool/FC join the last group, as in Fig. 2's coloring).
pub fn layer_group(graph: &Graph, node: NodeId) -> usize {
    let n = graph.node(node);
    match node {
        0 => 0,
        1 => 1,
        _ => {
            // Residual stages: identify by output channel width.
            let c = n.out_shape.c;
            match c {
                64 => 2,
                128 => 3,
                256 => 4,
                _ => 5, // 512-channel stage, global pool (512x1x1) and FC
            }
        }
    }
}

/// Human-readable IFM label of each Fig. 7 group.
pub fn group_label(group: usize) -> &'static str {
    match group {
        0 => "256x256x3",
        1 => "128x128x64",
        2 => "64x64x64",
        3 => "32x32x128",
        4 => "16x16x256",
        5 => "8x8x512",
        _ => "other",
    }
}

/// Whether the node is one of the paper's digitally parallelized layers
/// (Sec. V-2: "plain parallelization scheme is used for pooling and residual
/// layers, i.e. Layers 1, 4, 7, 13, 19").
pub fn is_digital_layer(graph: &Graph, node: NodeId) -> bool {
    matches!(
        graph.node(node).kind,
        LayerKind::MaxPool { .. } | LayerKind::GlobalAvgPool | LayerKind::Residual { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn node_count_and_numbering_match_fig2a() {
        let g = resnet18(256, 256, 1000);
        assert_eq!(g.len(), 28);
        let mnemonics: Vec<&str> = g.nodes().iter().map(|n| n.kind.mnemonic()).collect();
        let expect = [
            "conv", "pool", // stem
            "conv", "conv", "res", "conv", "conv", "res", // 64
            "conv", "conv", "res", "conv", "conv", "res", // 128
            "conv", "conv", "res", "conv", "conv", "res", // 256
            "conv", "conv", "res", "conv", "conv", "res", // 512
            "pool", "FC",
        ];
        assert_eq!(mnemonics, expect);
    }

    #[test]
    fn shapes_match_paper_pipeline() {
        let g = resnet18(256, 256, 1000);
        assert_eq!(g.node(0).out_shape, Shape::new(64, 128, 128));
        assert_eq!(g.node(1).out_shape, Shape::new(64, 64, 64));
        assert_eq!(g.node(7).out_shape, Shape::new(64, 64, 64));
        assert_eq!(g.node(8).out_shape, Shape::new(128, 32, 32));
        assert_eq!(g.node(14).out_shape, Shape::new(256, 16, 16));
        assert_eq!(g.node(20).out_shape, Shape::new(512, 8, 8));
        assert_eq!(g.node(26).out_shape, Shape::new(512, 1, 1));
        assert_eq!(g.node(27).out_shape, Shape::new(1000, 1, 1));
    }

    #[test]
    fn deep_convs_have_2_3m_params() {
        // Sec. V-1: "Layer 22 features 2.3M parameters".
        let g = resnet18(256, 256, 1000);
        for id in [21, 23, 24] {
            assert_eq!(g.node(id).kind.params(), 2_359_296, "node {id}");
        }
    }

    #[test]
    fn projections_attached_to_stage_boundary_residuals() {
        let g = resnet18(256, 256, 1000);
        for id in [10, 16, 22] {
            assert!(
                matches!(
                    g.node(id).kind,
                    LayerKind::Residual {
                        projection: Some(_)
                    }
                ),
                "node {id} should carry a projection"
            );
        }
        for id in [4, 7, 13, 19, 25] {
            assert!(
                matches!(g.node(id).kind, LayerKind::Residual { projection: None }),
                "node {id} should not carry a projection"
            );
        }
    }

    #[test]
    fn total_params_match_resnet18() {
        let g = resnet18(256, 256, 1000);
        // Standard ResNet-18 conv+fc weights (BN folded, no biases):
        // 11.17M ≈ computed sum.
        let p = g.total_params();
        assert!(
            (11_000_000..11_700_000).contains(&p),
            "unexpected parameter count {p}"
        );
    }

    #[test]
    fn total_macs_for_256_input() {
        let g = resnet18(256, 256, 1000);
        let m = g.total_macs();
        // ≈2.37 GMAC: ResNet-18's 1.82 GMAC at 224×224 scaled by (256/224)².
        assert!(
            (2_300_000_000..2_450_000_000).contains(&m),
            "unexpected MAC count {m}"
        );
    }

    #[test]
    fn groups_partition_the_network() {
        let g = resnet18(256, 256, 1000);
        let groups: Vec<usize> = (0..g.len()).map(|i| layer_group(&g, i)).collect();
        assert_eq!(groups[0], 0);
        assert_eq!(groups[1], 1);
        assert!(groups[2..8].iter().all(|&x| x == 2));
        assert!(groups[8..14].iter().all(|&x| x == 3));
        assert!(groups[14..20].iter().all(|&x| x == 4));
        assert!(groups[20..28].iter().all(|&x| x == 5));
        for gidx in 0..6 {
            assert!(!group_label(gidx).is_empty());
        }
    }

    #[test]
    fn digital_layers_flagged() {
        let g = resnet18(256, 256, 1000);
        for id in [1, 4, 7, 13, 19, 26] {
            assert!(is_digital_layer(&g, id), "node {id}");
        }
        for id in [0, 2, 20, 27] {
            assert!(!is_digital_layer(&g, id), "node {id}");
        }
    }

    #[test]
    fn cifar_variant_is_well_formed() {
        let g = resnet18_cifar(10);
        assert_eq!(g.input_shape(), Shape::new(3, 32, 32));
        assert_eq!(g.output().out_shape, Shape::new(10, 1, 1));
        assert_eq!(g.node(g.len() - 2).out_shape, Shape::new(64, 1, 1));
        // 6 residual blocks => 6 res nodes.
        let res_count = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, LayerKind::Residual { .. }))
            .count();
        assert_eq!(res_count, 6);
    }

    #[test]
    fn works_at_other_resolutions() {
        let g = resnet18(224, 224, 1000);
        assert_eq!(g.node(0).out_shape, Shape::new(64, 112, 112));
        let m = g.total_macs();
        // Canonical ResNet-18 @224: ≈1.82 GMAC.
        assert!((1_750_000_000..1_900_000_000).contains(&m), "{m}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_inputs() {
        resnet18(16, 16, 10);
    }
}
