//! The timing simulator's pinned behaviour, plus the hop-by-hop fabric's
//! fidelity bounds against the reservation oracle.
//!
//! **Pin:** `simulate` reproduces exact recorded [`RunReport`] values —
//! event count, makespan, image completions, every fire record (folded),
//! MVM and HBM tallies, fabric totals — on ResNet-18 over the paper
//! platform and on a small residual CNN. Any change to the modeled
//! schedule breaks the pin.
//!
//! **Accounting:** on random graphs, per-link bytes conserve the injected
//! transaction bytes, and every cluster's compute + communication +
//! synchronization + sleep time sums to the makespan. Through the facade,
//! the session's thread budget never changes a report.
//!
//! **Oracle:** the event-driven [`Fabric`] reproduces the reservation
//! engine ([`Noc`]) arrival times exactly on contention-free routes, and
//! per-link served bytes conserve the bytes the injected transactions were
//! routed across.

use aimc_platform::noc::{Endpoint, Fabric, Noc, NocConfig, TxnKind};
use aimc_platform::prelude::*;
use proptest::prelude::*;

/// Builds a random plain CNN from a compact genome (same generator family
/// as `tests/invariants.rs`).
fn build_graph(widths: &[usize], with_residual: bool, classes: usize) -> Graph {
    let mut b = GraphBuilder::new(Shape::new(3, 16, 16));
    let mut prev = b.conv("c0", b.input(), ConvCfg::k3(3, widths[0], 1));
    let mut prev_width = widths[0];
    for (i, &w) in widths.iter().enumerate().skip(1) {
        let stride = if i % 2 == 0 { 2 } else { 1 };
        let id = b.conv(
            &format!("c{i}"),
            Some(prev),
            ConvCfg::k3(prev_width, w, stride),
        );
        prev = if with_residual && stride == 1 && w == prev_width {
            b.residual(&format!("r{i}"), id, prev, None)
        } else {
            id
        };
        prev_width = w;
    }
    let gap = b.global_avgpool("gap", prev);
    b.linear("fc", gap, classes);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random graphs × arch configs × batch sizes: per-link bytes conserve
    /// the injected transaction bytes, and each cluster's activity
    /// breakdown covers the makespan exactly.
    #[test]
    fn reports_conserve_bytes_and_cover_makespan(
        n_layers in 1usize..5,
        width_sel in 0usize..3,
        with_residual in any::<bool>(),
        batch in 1usize..5,
        quads in 0usize..2,
    ) {
        let widths: Vec<usize> = (0..n_layers)
            .map(|i| [8, 16, 32][(width_sel + i) % 3])
            .collect();
        let g = build_graph(&widths, with_residual, 4 + n_layers);
        let arch = ArchConfig::small(4, [8, 16][quads]);
        let Ok(m) = map_network(&g, &arch, MappingStrategy::OnChipResiduals) else {
            return Ok(()); // too big for the small test platform
        };
        let r = simulate(&g, &m, &arch, batch).unwrap();
        prop_assert_eq!(r.fabric.routed_bytes, r.fabric.link_bytes);
        prop_assert_eq!(r.fabric.injected, r.fabric.completed);
        prop_assert!(!r.clusters.is_empty());
        for c in &r.clusters {
            let sum = c.compute + c.communication + c.synchronization + c.sleep;
            prop_assert_eq!(sum, r.makespan, "cluster {} breakdown", c.cluster);
        }
    }

    /// Oracle bound, contention-free: a lone transfer's fabric completion
    /// time equals the reservation engine's exactly — for random endpoint
    /// pairs, sizes and directions.
    #[test]
    fn lone_transfers_match_reservation_oracle(
        src in 0usize..32,
        dst in 0usize..32,
        to_hbm in any::<bool>(),
        bytes in 1usize..10_000,
        is_read in any::<bool>(),
    ) {
        let cfg = NocConfig::small(4, 8);
        let kind = if is_read { TxnKind::Read } else { TxnKind::Write };
        let s = Endpoint::Cluster(src);
        let d = if to_hbm { Endpoint::Hbm } else { Endpoint::Cluster(dst) };
        let mut noc = Noc::new(cfg.clone());
        let expect = noc.transfer(SimTime::ZERO, kind, s, d, bytes);
        let mut fab = Fabric::new(cfg);
        fab.inject(SimTime::ZERO, kind, s, d, bytes, 7);
        let done = fab.advance_all();
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(done[0], (expect, 7));
    }
}

/// The fields of a [`RunReport`] pinned exactly by the tests below: every
/// modeled time, count and byte total, plus a wrapping fold over every fire
/// record so any change to the event schedule shows up.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    events: u64,
    makespan_ps: u64,
    completions_ps: Vec<u64>,
    fires: usize,
    fire_fold: u64,
    mvms: u64,
    hbm_bytes: u64,
    fabric_completed: u64,
    link_bytes: u64,
}

fn pin(r: &RunReport) -> Pin {
    Pin {
        events: r.events,
        makespan_ps: r.makespan.as_ps(),
        completions_ps: r.image_completions.iter().map(|t| t.as_ps()).collect(),
        fires: r.fires.len(),
        fire_fold: r.fires.iter().fold(0u64, |h, f| {
            [
                u64::from(f.stage),
                u64::from(f.lane),
                f.chunk,
                f.start.as_ps(),
                f.end.as_ps(),
            ]
            .into_iter()
            .fold(h, |h, x| h.wrapping_mul(0x0100_0000_01b3).wrapping_add(x))
        }),
        mvms: r.tallies.mvms,
        hbm_bytes: r.hbm_bytes,
        fabric_completed: r.fabric.completed,
        link_bytes: r.fabric.link_bytes,
    }
}

#[test]
fn resnet18_paper_report_is_pinned() {
    // The headline workload on the full 512-cluster platform.
    let g = resnet18(256, 256, 1000);
    let arch = ArchConfig::paper();
    let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
    let r = simulate(&g, &m, &arch, 2).unwrap();
    assert_eq!(
        pin(&r),
        Pin {
            events: 90_357,
            makespan_ps: 708_770_000,
            completions_ps: vec![575_474_000, 708_770_000],
            fires: 1_670,
            fire_fold: 17_999_364_770_201_952_323,
            mvms: 203_280,
            hbm_bytes: 518_096,
            fabric_completed: 3_898,
            link_bytes: 184_805_004,
        }
    );
    assert_eq!(r.fabric.routed_bytes, r.fabric.link_bytes);
}

#[test]
fn small_residual_report_is_pinned() {
    // A small residual CNN on a 32-cluster platform: a second, cheap anchor
    // with a skip edge through storage.
    let g = build_graph(&[8, 16], true, 6);
    let arch = ArchConfig::small(4, 8);
    let m = map_network(&g, &arch, MappingStrategy::OnChipResiduals).unwrap();
    let r = simulate(&g, &m, &arch, 3).unwrap();
    assert_eq!(
        pin(&r),
        Pin {
            events: 8_071,
            makespan_ps: 14_264_000,
            completions_ps: vec![9_514_000, 11_889_000, 14_264_000],
            fires: 150,
            fire_fold: 5_202_926_021_329_887_803,
            mvms: 1_539,
            hbm_bytes: 6_930,
            fabric_completed: 150,
            link_bytes: 148_155,
        }
    );
}

#[test]
fn contended_transfers_stay_within_one_router_latency_of_oracle() {
    // Two bursts converging on one destination from different quadrants.
    // The engines may legitimately order the contended link differently
    // (physical arrival vs reservation order), but each completion stays
    // within one router traversal of the oracle.
    let cfg = NocConfig::small(4, 8);
    let router_lat = cfg.frequency.cycles_to_time(aimc_platform::sim::Cycles(
        *cfg.router_latency_cycles.iter().max().unwrap(),
    ));
    let streams = [
        (Endpoint::Cluster(0), 256usize),
        (Endpoint::Cluster(17), 256),
    ];
    let dst = Endpoint::Cluster(5);
    let mut noc = Noc::new(cfg.clone());
    let mut expect: Vec<SimTime> = streams
        .iter()
        .map(|&(s, b)| noc.transfer(SimTime::ZERO, TxnKind::Write, s, dst, b))
        .collect();
    let mut fab = Fabric::new(cfg);
    for (i, &(s, b)) in streams.iter().enumerate() {
        fab.inject(SimTime::ZERO, TxnKind::Write, s, dst, b, i as u64);
    }
    let mut done: Vec<SimTime> = fab.advance_all().into_iter().map(|(t, _)| t).collect();
    expect.sort();
    done.sort();
    for (e, d) in expect.iter().zip(&done) {
        let diff = if e > d {
            e.saturating_sub(*d)
        } else {
            d.saturating_sub(*e)
        };
        assert!(
            diff <= router_lat,
            "fabric {d} vs reservation {e}: diff {diff} > router latency {router_lat}"
        );
    }
}

#[test]
fn session_run_report_is_parallelism_invariant() {
    // End-to-end through the facade: the session's parallelism knob drives
    // programming and inference, and never changes a timing report.
    let g = build_graph(&[8, 16], true, 6);
    let run = |par: Parallelism| {
        let mut s = Platform::builder()
            .graph(g.clone())
            .arch(ArchConfig::small(4, 8))
            .parallelism(par)
            .build()
            .unwrap()
            .session();
        s.run(RunSpec { batch: 3 }).unwrap().clone()
    };
    let serial = run(Parallelism::Serial);
    let threaded = run(Parallelism::Threads(4));
    assert_eq!(serial, threaded);
    assert!(serial.fabric.links.iter().any(|l| l.transactions > 0));
}
