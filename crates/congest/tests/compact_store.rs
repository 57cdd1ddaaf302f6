//! Differential tests: the compact-store read path vs the flat CSR.
//!
//! The compact store has no reverse-port table — staged messages carry
//! sender ids that a delivery-time conversion pass resolves to ports — so
//! these tests pin the contract that matters: a [`Simulator`] running over
//! [`CompactGraph`] is **bit-identical** to one over the flat [`Graph`] —
//! same per-round transcripts (delivery digests fold `from_port`
//! order-sensitively), same stats, same final program states — sequentially
//! and at every pool lane count, with broadcasts forced onto the record
//! path and merge-class traffic exercising the convert-before-merge
//! ordering.

use nas_congest::{Merge, Msg, NodeProgram, RoundCtx, Simulator};
use nas_graph::{generators, CompactGraph, Graph};
use nas_par::WorkerPool;
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64 — deterministic per-(seed, inputs) decision stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A contract-honoring protocol that leans on everything the port seam
/// touches: per-port sends, `send_all` broadcasts (record path), inbox
/// `from_port` reads, and merge-class traffic whose tie-breaks depend on
/// ports being resolved before the merge pass.
#[derive(Clone)]
struct Churn {
    seed: u64,
    id: u64,
    starter: bool,
    /// Round at which this node spontaneously broadcasts (non-idle until).
    fire_at: Option<u64>,
    /// Delivery log: (round, from_port, word0).
    log: Vec<(u64, u32, u64)>,
}

impl Churn {
    fn network(n: usize, seed: u64) -> Vec<Churn> {
        (0..n)
            .map(|v| {
                let h = mix(seed ^ ((v as u64) << 21));
                Churn {
                    seed,
                    id: v as u64,
                    starter: h.is_multiple_of(4),
                    fire_at: (h % 5 == 1).then_some(1 + (h >> 33) % 6),
                    log: Vec::new(),
                }
            })
            .collect()
    }
}

impl NodeProgram for Churn {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let mut heard = 0u64;
        for i in 0..ctx.inbox().len() {
            let inc = ctx.inbox()[i];
            self.log.push((ctx.round(), inc.from_port, inc.msg.word(0)));
            heard ^= mix(inc.msg.word(0) ^ inc.from_port as u64);
        }
        if ctx.round() == 0 && self.starter {
            // Min-merged broadcast: colliding inboxes collapse with
            // smallest-port tie-breaks — wrong if ports were unresolved.
            ctx.send_all(Msg::one(mix(self.seed ^ self.id) % 16).merged(Merge::Min));
            return;
        }
        if self.fire_at == Some(ctx.round()) {
            self.fire_at = None;
            ctx.send_all(Msg::one(self.id).merged(Merge::Dedup));
            return;
        }
        // Relay a digest of what was heard over a pseudorandom port subset.
        if heard != 0 {
            for port in 0..ctx.degree() {
                if mix(self.seed ^ heard ^ ((port as u64) << 9)).is_multiple_of(3) {
                    ctx.send(port, Msg::two(mix(heard ^ self.id), port as u64));
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.fire_at.is_none()
    }
}

type NodeSnapshot = (Vec<(u64, u32, u64)>, Option<u64>);

fn snapshot(programs: &[Churn]) -> Vec<NodeSnapshot> {
    programs
        .iter()
        .map(|p| (p.log.clone(), p.fire_at))
        .collect()
}

type RunResult = (u64, nas_congest::RunStats, Vec<NodeSnapshot>);

fn finish(mut sim: Simulator<'_, Churn>, rounds: u64, pool: Option<Arc<WorkerPool>>) -> RunResult {
    if let Some(pool) = pool {
        sim.set_pool(pool);
    }
    // Force the broadcast record path on every `send_all`.
    sim.set_bcast_threshold(1);
    sim.enable_transcript();
    sim.run_rounds(rounds);
    (
        sim.transcript().unwrap().digest(),
        *sim.stats(),
        snapshot(sim.programs()),
    )
}

fn run_flat(g: &Graph, seed: u64, rounds: u64, pool: Option<Arc<WorkerPool>>) -> RunResult {
    let sim = Simulator::new(g, Churn::network(g.num_vertices(), seed));
    finish(sim, rounds, pool)
}

fn run_compact(g: &Graph, seed: u64, rounds: u64, pool: Option<Arc<WorkerPool>>) -> RunResult {
    let store = Arc::new(CompactGraph::from_graph(g));
    let sim = Simulator::new_compact(store, Churn::network(g.num_vertices(), seed));
    finish(sim, rounds, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline differential: flat vs compact, sequential and at pool
    /// lane counts 1/2/4 — all digest-for-digest, stat-for-stat, and
    /// state-for-state identical.
    #[test]
    fn compact_store_is_bit_identical_to_flat(
        n in 2usize..48,
        p in 0.02f64..0.3,
        graph_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        rounds in 1u64..16,
    ) {
        let g = generators::gnp(n, p, graph_seed);
        let want = run_flat(&g, program_seed, rounds, None);

        let got = run_compact(&g, program_seed, rounds, None);
        prop_assert_eq!(&got.0, &want.0, "sequential digest drift");
        prop_assert_eq!(&got.1, &want.1, "sequential stats drift");
        prop_assert_eq!(&got.2, &want.2, "sequential state drift");

        for threads in [1usize, 2, 4] {
            let pool = Arc::new(WorkerPool::new(threads));
            let got = run_compact(&g, program_seed, rounds, Some(pool));
            prop_assert_eq!(&got.0, &want.0, "digest drift at {} lanes", threads);
            prop_assert_eq!(&got.1, &want.1, "stats drift at {} lanes", threads);
            prop_assert_eq!(&got.2, &want.2, "state drift at {} lanes", threads);
        }
    }

    /// Quiescence detection agrees between the stores (timer wheel, active
    /// sets, and fast-forward all behave identically).
    #[test]
    fn compact_quiescence_matches_flat(
        n in 2usize..40,
        p in 0.02f64..0.25,
        graph_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
    ) {
        let g = generators::gnp(n, p, graph_seed);

        let mut flat = Simulator::new(&g, Churn::network(n, program_seed));
        let flat_outcome = flat.run_until_quiet(300);

        let store = Arc::new(CompactGraph::from_graph(&g));
        let mut compact = Simulator::new_compact(store, Churn::network(n, program_seed));
        let compact_outcome = compact.run_until_quiet(300);

        prop_assert_eq!(compact_outcome, flat_outcome);
        prop_assert_eq!(compact.stats(), flat.stats());
        prop_assert_eq!(snapshot(compact.programs()), snapshot(flat.programs()));
    }
}

/// `set_compact` on an already-constructed flat simulator (the RunHooks
/// path) behaves exactly like `new_compact`.
#[test]
fn set_compact_before_round_zero_matches_flat() {
    let g = generators::preferential_attachment(80, 3, 9);
    let want = run_flat(&g, 31, 14, None);

    let store = Arc::new(CompactGraph::from_graph(&g));
    let mut sim = Simulator::new(&g, Churn::network(80, 31));
    sim.set_compact(Arc::clone(&store));
    assert!(sim.flat_graph().is_none());
    assert!(sim.compact_store().is_some());
    let got = finish(sim, 14, None);
    assert_eq!(got, want);
}

/// A mid-run `set_compact` must be rejected — the conversion contract only
/// holds from round 0.
#[test]
#[should_panic(expected = "before the first round")]
fn set_compact_mid_run_panics() {
    let g = generators::path(6);
    let mut sim = Simulator::new(&g, Churn::network(6, 1));
    sim.run_rounds(1);
    sim.set_compact(Arc::new(CompactGraph::from_graph(&g)));
}

/// A compact store over a *different* topology must be rejected.
#[test]
#[should_panic(expected = "does not match")]
fn set_compact_wrong_topology_panics() {
    let g = generators::path(6);
    let other = generators::path(7);
    let mut sim = Simulator::new(&g, Churn::network(6, 1));
    sim.set_compact(Arc::new(CompactGraph::from_graph(&other)));
}

/// Workload-family sweep at a fixed seed: grids (Hilbert-friendly), stars
/// (hub broadcasts), paths (degenerate degrees), and preferential
/// attachment (skewed degrees) all agree, pooled and not.
#[test]
fn workload_family_sweep() {
    let graphs: Vec<Graph> = vec![
        generators::grid2d(7, 9),
        generators::star(33),
        generators::path(40),
        generators::preferential_attachment(64, 4, 3),
        generators::complete(9),
    ];
    for g in &graphs {
        let want = run_flat(g, 77, 12, None);
        let got_seq = run_compact(g, 77, 12, None);
        assert_eq!(got_seq, want);
        let got_par = run_compact(g, 77, 12, Some(Arc::new(WorkerPool::new(4))));
        assert_eq!(got_par, want);
    }
}

/// An edgeless graph (every adjacency empty) runs without staging anything.
#[test]
fn edgeless_graph_runs() {
    let g = nas_graph::GraphBuilder::new(5).build();
    let want = run_flat(&g, 3, 4, None);
    let got = run_compact(&g, 3, 4, None);
    assert_eq!(got, want);
}
