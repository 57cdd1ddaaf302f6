//! The construct workloads: build the spanner on the CONGEST backend, gate
//! every repetition on the paper's guarantees and the pinned counts, then
//! audit stretch from `K` seeded sources.

use crate::profile::{self, Construct, GraphSpec, Pinned};
use crate::stats::{median, SplitMix64};
use crate::trace::{Tracer, TracingEngine, STAGES};
use crate::Run;
use nas_congest::programs::Flood;
use nas_congest::Simulator;
use nas_core::{build_with_engine, Backend, Params, Report, Session};
use nas_graph::dist::{BfsScratch, DistanceMap};
use nas_graph::order::Permutation;
use nas_graph::{generators, Graph};
use nas_metrics::stretch::stretch_audit_sampled_with_pool;
use nas_metrics::StretchAudit;
use nas_par::WorkerPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No repetition starts after this much wall time, whatever `--seconds`
/// says, so a run always ends well inside its time limit.
const REP_DEADLINE: Duration = Duration::from_secs(100);

fn generate(spec: GraphSpec) -> Graph {
    match spec {
        GraphSpec::PrefAttach { n, attach, seed } => {
            generators::preferential_attachment(n, attach, seed)
        }
        GraphSpec::Grid { rows, cols } => generators::grid2d(rows, cols),
    }
}

/// The audit's view of the graph: every id rotated by a seeded offset.
/// `stretch_audit_sampled` audits the fixed sources `⌊i·n/K⌋`; on the
/// rotated pair those are the original vertices `⌊i·n/K⌋ − offset (mod n)`,
/// so the seed picks the sources while distances, and the memory layout
/// the BFS walks, stay as they are.
struct Rotation {
    perm: Permutation,
    offset: usize,
}

impl Rotation {
    fn new(n: usize, seed: u64) -> Self {
        let offset = SplitMix64::new(seed).below(n);
        let order: Vec<u32> = (0..n).map(|new| ((new + n - offset) % n) as u32).collect();
        Rotation {
            perm: Permutation::from_new_order(&order),
            offset,
        }
    }

    /// The original id of audit source `i` of `k`.
    fn source(&self, i: usize, k: usize, n: usize) -> usize {
        (i * n / k + n - self.offset) % n
    }
}

/// Checks one build against the round bound, `|H| < m`, and the pinned
/// counts; returns what failed.
fn gate_build(
    h_edges: usize,
    stats: &nas_congest::RunStats,
    round_bound: u64,
    pinned: &Pinned,
) -> Vec<String> {
    let mut bad = Vec::new();
    if stats.rounds > round_bound {
        bad.push(format!(
            "rounds {} exceed the schedule bound {round_bound}",
            stats.rounds
        ));
    }
    if h_edges >= pinned.m {
        bad.push(format!("|H| = {h_edges} is not below m = {}", pinned.m));
    }
    let got = Pinned {
        m: pinned.m,
        h_edges,
        rounds: stats.rounds,
        skipped_rounds: stats.skipped_rounds,
        messages: stats.messages,
    };
    if got != *pinned {
        bad.push(format!("counts {got:?} differ from the pinned {pinned:?}"));
    }
    bad
}

fn gate_audit(a: &StretchAudit, n: usize, beta_envelope: f64) -> Vec<String> {
    let mut bad = Vec::new();
    if !a.satisfies(profile::EPS, beta_envelope) {
        bad.push(format!(
            "stretch audit violates d_H <= (1+{})d_G + {beta_envelope}: max stretch {}, effective beta {}, {} disconnected pairs",
            profile::EPS,
            a.max_stretch,
            a.effective_beta,
            a.disconnected_pairs
        ));
    }
    let pairs = (profile::AUDIT_SOURCES * (n - 1)) as u64;
    if a.pairs != pairs {
        bad.push(format!("audit covered {} pairs, expected {pairs}", a.pairs));
    }
    bad
}

struct Setup {
    g: Graph,
    g_rot: Graph,
    rotation: Rotation,
    /// Wall time (s) of every timed generation of the graph.
    gen_times: Vec<f64>,
    params: Params,
    pool: Arc<WorkerPool>,
}

/// Generates the graph `CONSTRUCT_SETUP_REPS` times, timing each into
/// `times`; returns the last.
fn timed_generations(spec: GraphSpec, times: &mut Vec<f64>) -> Graph {
    let mut g = None;
    for _ in 0..profile::CONSTRUCT_SETUP_REPS {
        let t = Instant::now();
        let graph = generate(spec);
        times.push(t.elapsed().as_secs_f64());
        g = Some(graph);
    }
    g.expect("at least one generation")
}

fn setup(w: &Construct, seed: u64, run: &mut Run) -> Setup {
    let mut gen_times = Vec::new();
    let g = timed_generations(w.graph, &mut gen_times);
    run.check(g.num_edges() == w.pinned.m, || {
        format!("generated m = {}, pinned {}", g.num_edges(), w.pinned.m)
    });
    let rotation = Rotation::new(g.num_vertices(), seed);
    let g_rot = rotation.perm.apply(&g);
    run.note(format!(
        "graph n={} m={} kappa={} audit offset={}",
        g.num_vertices(),
        g.num_edges(),
        w.kappa,
        rotation.offset
    ));
    Setup {
        g,
        g_rot,
        rotation,
        gen_times,
        params: Params::practical(profile::EPS, w.kappa, profile::RHO),
        pool: Arc::new(WorkerPool::new(profile::LANES)),
    }
}

fn session_build(s: &Setup, lanes: usize) -> (Report, f64) {
    let t = Instant::now();
    let report = Session::on(&s.g)
        .params(s.params)
        .backend(Backend::Congest)
        .threads(lanes)
        .run()
        .expect("the pinned parameter point is valid");
    (report, t.elapsed().as_secs_f64())
}

/// Audits one spanner, given in rotated ids (`rotation.perm.apply`), from
/// the seeded sources; returns the audit and its throughput in Mvert/s.
fn audit(s: &Setup, h_rot: &Graph) -> (StretchAudit, f64) {
    let t = Instant::now();
    let a = stretch_audit_sampled_with_pool(
        &s.g_rot,
        h_rot,
        profile::EPS,
        profile::AUDIT_SOURCES,
        &s.pool,
    );
    let wall = t.elapsed().as_secs_f64();
    let n = s.g.num_vertices();
    (a, 2.0 * (profile::AUDIT_SOURCES * n) as f64 / wall / 1e6)
}

/// The untraced run: repetitions of build + gates + audits for `seconds`.
pub fn run(w: &Construct, seed: u64, seconds: f64, run: &mut Run) {
    let mut s = setup(w, seed, run);
    let n = s.g.num_vertices();
    let (mut builds, mut audits) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while builds.len() < profile::MIN_REPS
        || (start.elapsed().as_secs_f64() < seconds && start.elapsed() < REP_DEADLINE)
    {
        timed_generations(w.graph, &mut s.gen_times);
        let (report, build_s) = session_build(&s, profile::LANES);
        builds.push(build_s);
        run.op(gate_build(
            report.num_edges(),
            &report.stats,
            report.schedule.total_round_bound(),
            &w.pinned,
        ));
        let h_rot = s.rotation.perm.apply(&report.to_graph());
        for _ in 0..w.audits_per_rep {
            let (a, mvert) = audit(&s, &h_rot);
            audits.push(mvert);
            run.op(gate_audit(&a, n, report.stretch.beta_envelope));
        }
    }
    run.set("setup_s", median(&s.gen_times));
    run.set("build_s", median(&builds));
    run.set("audit_mvert_per_s", median(&audits));
    run.note(format!(
        "setup_s is the median of {} generations; build_s of {} builds {builds:.3?} s; audit_mvert_per_s of {} audits {audits:.2?}",
        s.gen_times.len(),
        builds.len(),
        audits.len()
    ));
}

/// The traced run: the same build untraced and traced, at 1 and 2 lanes,
/// then the per-layer figures.
pub fn run_traced(w: &Construct, seed: u64, run: &mut Run, tracer: &mut Tracer) {
    let s = setup(w, seed, run);
    let n = s.g.num_vertices();
    let m = s.g.num_edges() as f64;
    run.set("graph.gen_s", median(&s.gen_times));

    // The first build of a process pays for cold pages; keep it out of the
    // comparisons below.
    let (warm, _) = session_build(&s, profile::LANES);
    let (r, untraced) = session_build(&s, profile::LANES);
    let (par, untraced_par) = session_build(&s, profile::PAR_LANES);
    for report in [&warm, &r, &par] {
        run.op(gate_build(
            report.num_edges(),
            &report.stats,
            report.schedule.total_round_bound(),
            &w.pinned,
        ));
    }

    // Traced builds through the engine seam, at the measured lane count and
    // at `PAR_LANES`; both must reproduce the untraced build.
    let mut traced_wall = Vec::new();
    let mut traced = None;
    for lanes in [profile::LANES, profile::PAR_LANES] {
        let pool = (lanes > 1).then(|| Arc::new(WorkerPool::new(lanes)));
        let id = lanes as u64;
        let span = tracer.open(format!("core.build.lanes{lanes}"), id, None);
        nas_core::algo1::take_knowledge_peak_bytes();
        let t = Instant::now();
        let mut engine = TracingEngine::new(pool, tracer, id, span);
        let result = build_with_engine(&s.g, s.params, &mut engine).expect("valid parameters");
        traced_wall.push(t.elapsed().as_secs_f64());
        let (stages, tap) = (engine.stages, engine.tap);
        tracer.close(span);
        let knowledge = nas_core::algo1::take_knowledge_peak_bytes();
        let got = (
            result.spanner.len(),
            result.stats.rounds,
            result.stats.messages,
        );
        let want = (r.num_edges(), r.stats.rounds, r.stats.messages);
        run.check(got == want, || {
            format!("traced build at {lanes} lanes gave (|H|, rounds, messages) = {got:?}, untraced {want:?}")
        });
        if lanes == profile::LANES {
            traced = Some((stages, tap, knowledge, tracer.self_time(span)));
        }
    }
    let (stages, tap, knowledge, loop_self) = traced.expect("the traced build ran");
    let stage_wall: Duration = stages.iter().map(|t| t.wall).sum();
    for (name, t) in STAGES.iter().zip(&stages) {
        run.set(format!("core.{name}.s"), t.wall.as_secs_f64());
        run.set(format!("core.{name}.rounds"), t.rounds as f64);
        run.set(format!("core.{name}.messages"), t.messages as f64);
        run.set(
            format!("core.{name}.ns_per_msg"),
            per(t.wall.as_nanos() as f64, t.messages as f64),
        );
    }
    run.set("core.driver_self.s", loop_self.as_secs_f64());
    for i in 0..profile::REPORTED_PHASES {
        let (wall, rounds) = match (r.phase_wall.get(i), r.phases.get(i)) {
            (Some(w), Some(p)) => (w.as_secs_f64(), p.rounds as f64),
            _ => (0.0, 0.0),
        };
        run.set(format!("core.phase{i}.s"), wall);
        run.set(format!("core.phase{i}.rounds"), rounds);
    }
    run.check(r.phases.len() <= profile::REPORTED_PHASES, || {
        format!(
            "{} phases, only {} reported",
            r.phases.len(),
            profile::REPORTED_PHASES
        )
    });
    run.set("core.knowledge_peak_bytes", knowledge as f64);
    run.set("core.edge_share", r.num_edges() as f64 / m);

    let stats = r.stats;
    let executed = stats.rounds - stats.skipped_rounds;
    run.check(
        tap.executed == executed && tap.skipped == stats.skipped_rounds,
        || {
            format!(
                "round tap saw {} executed / {} skipped, the report {executed} / {}",
                tap.executed, tap.skipped, stats.skipped_rounds
            )
        },
    );
    run.set("congest.rounds", stats.rounds as f64);
    run.set("congest.skipped_rounds", stats.skipped_rounds as f64);
    run.set("congest.executed_rounds", executed as f64);
    run.set("congest.messages", stats.messages as f64);
    run.set(
        "congest.busiest_round_messages",
        stats.busiest_round_messages as f64,
    );
    run.set(
        "congest.ns_per_msg",
        per(stage_wall.as_nanos() as f64, stats.messages as f64),
    );
    run.set(
        "congest.us_per_executed_round",
        per(stage_wall.as_secs_f64() * 1e6, executed as f64),
    );
    run.set(
        "congest.active_per_round",
        per(tap.active_sum as f64, tap.executed as f64),
    );
    let flood_mmsg_per_s = flood(&s, run, tracer);
    run.set("congest.flood_mmsg_per_s", flood_mmsg_per_s);
    run.set("par.lane_speedup", untraced / untraced_par);
    run.set("trace.overhead_s", traced_wall[0] - untraced);
    run.note(format!(
        "builds at {} and {} lanes: untraced {untraced:.3} s and {untraced_par:.3} s, traced {:.3?} s",
        profile::LANES,
        profile::PAR_LANES,
        traced_wall
    ));

    let h = r.to_graph();
    let span = tracer.open("metrics.audit", 0, None);
    let (a, _) = audit(&s, &s.rotation.perm.apply(&h));
    tracer.close(span);
    run.op(gate_audit(&a, n, r.stretch.beta_envelope));
    run.set("metrics.audit.pairs", a.pairs as f64);
    run.set("metrics.audit.max_stretch", a.max_stretch);
    run.set("metrics.audit.effective_beta", a.effective_beta);

    let sources =
        (0..profile::TRACED_BFS_SOURCES).map(|i| s.rotation.source(i, profile::AUDIT_SOURCES, n));
    bfs_rows(&s.g, &h, sources, run, tracer);
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// `Simulator` + `programs::Flood` from vertex 0 on the workload graph.
fn flood(s: &Setup, run: &mut Run, tracer: &mut Tracer) -> f64 {
    let n = s.g.num_vertices();
    let span = tracer.open("congest.flood", 0, None);
    let mut sim = Simulator::new(&s.g, Flood::network(n, &[0]));
    if s.pool.threads() > 1 {
        sim.set_pool(Arc::clone(&s.pool));
    }
    let t = Instant::now();
    let outcome = sim.run_until_quiet(4 * n as u64 + 16);
    let wall = t.elapsed().as_secs_f64();
    tracer.close(span);
    let reached = sim.programs().iter().filter(|p| p.dist.is_some()).count();
    run.check(outcome.quiescent && reached == n, || {
        format!("flood reached {reached} of {n} vertices")
    });
    sim.stats().messages as f64 / wall / 1e6
}

/// Sets `graph.bfs_row_{g,h}_us`: the median time (µs) of one
/// `DistanceMap::fill` from each source, in `g` and in `h`, on one lane.
pub fn bfs_rows(
    g: &Graph,
    h: &Graph,
    sources: impl IntoIterator<Item = usize>,
    run: &mut Run,
    tracer: &mut Tracer,
) {
    let mut scratch = BfsScratch::new();
    let mut row = DistanceMap::new();
    let mut times = [Vec::new(), Vec::new()];
    for (i, src) in sources.into_iter().enumerate() {
        for (k, (graph, name)) in [(g, "graph.bfs_row_g"), (h, "graph.bfs_row_h")]
            .into_iter()
            .enumerate()
        {
            let t = Instant::now();
            row.fill(graph, [src], &mut scratch);
            let end = Instant::now();
            tracer.record(name, i as u64, None, t, end);
            times[k].push((end - t).as_secs_f64() * 1e6);
        }
    }
    run.set("graph.bfs_row_g_us", median(&times[0]));
    run.set("graph.bfs_row_h_us", median(&times[1]));
}
