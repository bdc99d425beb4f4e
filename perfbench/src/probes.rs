//! Per-layer probes of the traced run: direct calls into one layer's
//! public functions on the workloads' own shapes.

use crate::models::{self, TAG_MICRO};
use crate::stats::{median, stream_rng, uniform_values};
use crate::Res;
use aimc_platform::dnn::{ceil_split, ops, ConvCfg, Graph, LayerKind};
use aimc_platform::prelude::*;
use aimc_platform::wire::{decode_frame, encode_frame, Frame, QosClass, ShardReply, ShardRequest};
use aimc_platform::xbar::{MvmScratch, DAC_BATCH};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each kernel shape or codec loop is timed for.
const SHAPE_BUDGET: Duration = Duration::from_millis(40);

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f()?);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms).expect("reps > 0"))
}

/// Calls `f(i)` for i = 0, 1, … until `budget` passes; returns ns per call.
fn ns_per_call(budget: Duration, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    let mut i = 0u64;
    while !i.is_multiple_of(64) || t0.elapsed() < budget {
        f(i);
        i += 1;
    }
    t0.elapsed().as_secs_f64() * 1e9 / i as f64
}

/// One analog layer's tile shapes: how the executor deploys a node whose
/// im2col rows and output channels exceed one array.
struct AnalogNode {
    cfg: ConvCfg,
    ifm: Shape,
}

fn analog_nodes(graph: &Graph) -> Vec<AnalogNode> {
    graph
        .nodes()
        .iter()
        .filter_map(|n| match &n.kind {
            LayerKind::Conv(c) => Some(AnalogNode {
                cfg: *c,
                ifm: n.ifm_shape(graph),
            }),
            LayerKind::Residual {
                projection: Some(p),
            } => Some(AnalogNode {
                cfg: *p,
                ifm: graph.node(n.inputs[1]).out_shape,
            }),
            LayerKind::Linear {
                in_features,
                out_features,
            } => Some(AnalogNode {
                cfg: ConvCfg {
                    in_ch: *in_features,
                    out_ch: *out_features,
                    kh: 1,
                    kw: 1,
                    stride: 1,
                    pad: 0,
                    relu: false,
                },
                ifm: Shape::new(*in_features, 1, 1),
            }),
            _ => None,
        })
        .collect()
}

/// The per-image tile census: `(rows, cols, patches per call)` → calls per
/// image, following the executor's split of rows and columns across
/// arrays and its batching of up to [`DAC_BATCH`] output pixels per call.
pub fn census(graph: &Graph, xbar: &XbarConfig) -> BTreeMap<(usize, usize, usize), u64> {
    let mut calls = BTreeMap::new();
    for n in analog_nodes(graph) {
        let out = n.cfg.out_shape(n.ifm);
        let pixels = out.h * out.w;
        for &(_, rl) in &ceil_split(n.cfg.xbar_rows(), xbar.rows) {
            for &(_, cl) in &ceil_split(n.cfg.xbar_cols(), xbar.cols) {
                let (full, rest) = (pixels / DAC_BATCH, pixels % DAC_BATCH);
                *calls.entry((rl, cl, DAC_BATCH)).or_default() += full as u64;
                if rest > 0 {
                    *calls.entry((rl, cl, rest)).or_default() += 1;
                }
            }
        }
    }
    calls.retain(|_, c| *c > 0);
    calls
}

/// MVMs per image implied by a census.
pub fn census_mvms(census: &BTreeMap<(usize, usize, usize), u64>) -> u64 {
    census.iter().map(|(&(_, _, k), &c)| k as u64 * c).sum()
}

fn programmed(xbar: &XbarConfig, rows: usize, cols: usize, seed: u64) -> Res<Crossbar> {
    let w = uniform_values(seed, 0x7e1, (rows * 1000 + cols) as u64, rows * cols);
    let mut rng = stream_rng(seed, 0x9e0, (rows * 1000 + cols) as u64);
    Ok(Crossbar::program(xbar, &w, rows, cols, &mut rng)?)
}

/// Post-ReLU-like inputs: about half the rows silent.
fn relu_input(seed: u64, n: usize) -> Vec<f32> {
    uniform_values(seed, 0x1a9, n as u64, n)
        .into_iter()
        .map(|v| v.max(0.0))
        .collect()
}

/// Census-weighted ns per MVM of `Crossbar::mvm_batch_into_with` with a
/// warm scratch, each shape batched as the executor batches it.
pub fn mvm_ns_batched(graph: &Graph, xbar: &XbarConfig, seed: u64) -> Res<f64> {
    let census = census(graph, xbar);
    let mut scratch = MvmScratch::new();
    let mut total_ns = 0.0;
    for (&(rows, cols, k), &calls) in &census {
        let tile = programmed(xbar, rows, cols, seed)?;
        let xs = relu_input(seed, k * rows);
        let mut out = vec![0.0f32; k * cols];
        let mut inv = vec![0u64; k];
        let per_call = ns_per_call(SHAPE_BUDGET, |i| {
            for (p, v) in inv.iter_mut().enumerate() {
                *v = i * k as u64 + p as u64;
            }
            tile.mvm_batch_into_with(black_box(&xs), &mut out, &inv, &mut scratch)
                .expect("probe dimensions match the tile");
            black_box(&out);
        });
        total_ns += per_call * calls as f64;
    }
    Ok(total_ns / census_mvms(&census) as f64)
}

/// Census-weighted ns per MVM of single `Crossbar::mvm_into_with` calls.
pub fn mvm_ns_single(graph: &Graph, xbar: &XbarConfig, seed: u64) -> Res<f64> {
    let census = census(graph, xbar);
    let mut by_shape: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (&(rows, cols, k), &calls) in &census {
        *by_shape.entry((rows, cols)).or_default() += k as u64 * calls;
    }
    let mut scratch = MvmScratch::new();
    let mut total_ns = 0.0;
    for (&(rows, cols), &mvms) in &by_shape {
        let tile = programmed(xbar, rows, cols, seed)?;
        let x = relu_input(seed, rows);
        let mut out = vec![0.0f32; cols];
        let per_call = ns_per_call(SHAPE_BUDGET, |i| {
            tile.mvm_into_with(black_box(&x), &mut out, i, &mut scratch)
                .expect("probe dimensions match the tile");
            black_box(&out);
        });
        total_ns += per_call * mvms as f64;
    }
    Ok(total_ns / by_shape.values().sum::<u64>() as f64)
}

/// ms per image of `ops::im2col_patch_range` over every patch of every
/// convolution (and projection) of `graph`, full row range.
pub fn im2col_ms_per_image(graph: &Graph, seed: u64) -> Res<f64> {
    let nodes: Vec<(AnalogNode, Tensor)> = analog_nodes(graph)
        .into_iter()
        .filter(|n| n.cfg.kh * n.cfg.kw > 1 || n.ifm.h > 1)
        .map(|n| {
            let x = models::image(seed, 0x12c, n.ifm.numel() as u64, n.ifm);
            (n, x)
        })
        .collect();
    let max_rows = nodes
        .iter()
        .map(|(n, _)| n.cfg.xbar_rows())
        .max()
        .unwrap_or(0);
    let mut buf = vec![0.0f32; max_rows];
    let ns = ns_per_call(SHAPE_BUDGET * 4, |_| {
        for (n, x) in &nodes {
            let out = n.cfg.out_shape(n.ifm);
            let rows = n.cfg.xbar_rows();
            for oh in 0..out.h {
                for ow in 0..out.w {
                    ops::im2col_patch_range(x, &n.cfg, oh, ow, 0, &mut buf[..rows]);
                    black_box(&buf);
                }
            }
        }
    });
    Ok(ns / 1e6)
}

/// Wire codec on the micro model's frames: ns to encode one request, ns
/// to decode one reply, and the encoded request payload in bytes.
pub fn wire_codec(seed: u64) -> Res<(f64, f64, usize)> {
    let request = Frame::Request(ShardRequest {
        global_index: 123_456,
        class: QosClass::default(),
        image: models::image(seed, TAG_MICRO, 0, Shape::new(3, 4, 4)),
    });
    let reply = encode_frame(&Frame::Reply(ShardReply {
        global_index: 123_456,
        marked: false,
        outcome: Ok(models::image(seed, TAG_MICRO, 1, Shape::new(2, 1, 1))),
    }));
    let bytes = encode_frame(&request).len();
    let enc = ns_per_call(SHAPE_BUDGET, |_| {
        black_box(encode_frame(black_box(&request)));
    });
    let mut bad = false;
    let dec = ns_per_call(SHAPE_BUDGET, |_| {
        bad |= decode_frame(black_box(&reply)).is_err();
    });
    if bad {
        return Err("reply frame failed to decode".into());
    }
    Ok((enc, dec, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_the_executors_mvm_count() {
        // The micro model on 32×4 arrays: a 27×4 conv tile over 16 pixels
        // (four calls of 4) and a 4×2 head tile over one pixel.
        let g = models::micro_graph();
        let c = census(&g, &XbarConfig::hermes_256().with_size(32, 4));
        assert_eq!(c.len(), 2);
        assert_eq!(c[&(27, 4, 4)], 4);
        assert_eq!(c[&(4, 2, 1)], 1);
        assert_eq!(census_mvms(&c), 17);
    }
}
