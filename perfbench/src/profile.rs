//! The pinned reference profile: every input size, parameter point, rate
//! and pinned count the workloads use. A change here is a change of the
//! benchmark, never part of a change that claims a gain.

/// `ε` and `ρ` of every construction (the repo's standard experiment
/// point); `κ` varies per workload.
pub const EPS: f64 = 0.5;
pub const RHO: f64 = 0.45;

/// Worker lanes of every end-to-end measurement: the construction, the
/// audit, the flood, and the daemon's batch fills. One lane, because
/// parallel wall time is not steady on a small shared VM: on a 2-vCPU guest
/// with intermittent steal, interleaved builds of the long workload, five
/// at each lane count, took 5.8–13.3 s at 2 lanes but 8.1–8.9 s at 1.
pub const LANES: usize = 1;

/// The lane count of the traced run's parallel builds: `par.lane_speedup`
/// and the check that counts do not depend on the lane count.
pub const PAR_LANES: usize = 2;

/// Sources of the sampled stretch audit (`K`).
pub const AUDIT_SOURCES: usize = 64;

/// Graph generations timed for `setup_s` on the construct workloads before
/// the first repetition, and again before every repetition: spread over
/// the run like the build samples, the set-up median follows the host's
/// speed over the whole run rather than over its first second.
pub const CONSTRUCT_SETUP_REPS: usize = 3;

/// Construct repetitions made even when `--seconds` has already elapsed.
pub const MIN_REPS: usize = 3;

/// Phases whose wall time and rounds the traced run reports (`0..5`; the
/// long workload's schedule has `ℓ = 4`).
pub const REPORTED_PHASES: usize = 5;

/// Sources whose single BFS rows the traced run times for
/// `graph.bfs_row_{g,h}_us`.
pub const TRACED_BFS_SOURCES: usize = 16;

/// The input graph of a construct workload. It is fixed rather than drawn
/// from `--seed`, so that its exact counts can be pinned; the seed picks
/// the audit sources instead.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// `preferential_attachment(n, attach, seed)`.
    PrefAttach { n: usize, attach: usize, seed: u64 },
    /// `grid2d(rows, cols)`.
    Grid { rows: usize, cols: usize },
}

/// Counts every repetition must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub m: usize,
    pub h_edges: usize,
    pub rounds: u64,
    pub skipped_rounds: u64,
    pub messages: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Construct {
    pub graph: GraphSpec,
    pub kappa: u32,
    pub pinned: Pinned,
    /// Audits timed after each build; `audit_mvert_per_s` is the median
    /// over all of them. A single audit of the long workload takes about
    /// 0.35 s, too short for one sample per repetition to be steady.
    pub audits_per_rep: usize,
}

/// Message-bound: a wide frontier over hubs, and a working set larger
/// than the last-level cache. Seed 42 is the `sim_scaling` default, the
/// point the workload's reference figures were first measured at.
pub const HUBS: Construct = Construct {
    graph: GraphSpec::PrefAttach {
        n: 500_000,
        attach: 4,
        seed: 42,
    },
    kappa: 4,
    pinned: Pinned {
        m: 1_999_990,
        h_edges: 500_000,
        rounds: 5_697,
        skipped_rounds: 5_481,
        messages: 19_984_664,
    },
    audits_per_rep: 1,
};

/// Round-bound: narrow frontiers over many rounds at `κ = 16 ≈ log₂ n`,
/// the linear-size regime.
pub const LONG: Construct = Construct {
    graph: GraphSpec::Grid {
        rows: 447,
        cols: 447,
    },
    kappa: 16,
    pinned: Pinned {
        m: 398_724,
        h_edges: 223_528,
        rounds: 691_230,
        skipped_rounds: 681_956,
        messages: 38_242_470,
    },
    audits_per_rep: 5,
};

/// The daemon's graph: `pref_attach(n = 10^5, deg 8)` on the default
/// centralized backend, so the simulator is bypassed.
pub const SERVE_N: usize = 100_000;
pub const SERVE_DEG: usize = 8;
pub const SERVE_GRAPH_SEED: u64 = 1;
pub const SERVE_KAPPA: u32 = 4;

/// Daemon starts timed for `setup_s` on the serve workload.
pub const SERVE_SETUP_REPS: usize = 7;
/// Connection workers of the daemon: one per generator connection.
pub const SERVE_WORKERS: usize = 2;

// The traffic of the serve workload. No trace of real queries to a
// distance daemon exists to copy it from, so each value below states its
// basis: a published default, a capacity measured on the daemon, or, where
// neither exists, an assumption with the reason it was picked. The
// assumptions are free parameters of the benchmark, not observed traffic.

/// Zipf exponent of the read sources (hot users): 0.99, the default
/// request distribution of YCSB's core workloads (Cooper et al.,
/// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
pub const ZIPF_S: f64 = 0.99;

/// The request mix, in parts per hundred: `/distance?mode=spanner`,
/// `/distance?mode=both`, and `POST /batch` (the rest of 100). Assumed:
/// cheap spanner reads are what the daemon is for, so they dominate;
/// `mode=both` also runs the exact BFS (several times the cost) and is taken
/// to be an occasional check; batches are the bulk path. Every request is
/// a read, as in read-dominated graph serving (Facebook's TAO reports
/// 99.8% reads; Bronson et al., USENIX ATC 2013); the writes are the
/// churn phase's rebuilds.
pub const MIX_SPANNER_PCT: usize = 88;
pub const MIX_BOTH_PCT: usize = 10;
/// Uniform pairs per `POST /batch` (computed in `mode=both`). Assumed:
/// small, so that one batch holds the snapshot's query lock for less than
/// the latency limit (measured 37 ms, see `LATENCY_LIMIT_US`).
pub const BATCH_PAIRS: usize = 4;

/// Batches and rebuilds of each quiet slice, sent one at a time with
/// nothing else in flight: `audit_mvert_per_s` and `build_s` of the serve
/// workload. A slice runs before every rung, before the churn phase and
/// after it.
pub const QUIET_SLICE_BATCHES: usize = 4;
pub const QUIET_BATCH_PAIRS: usize = 16;
pub const QUIET_SLICE_REBUILDS: usize = 2;

/// The rate ladder (req/s) and the share of `--seconds` each rung runs.
/// The rates are fixed fractions of the daemon's measured capacity for
/// this mix: an open loop at 2000 req/s completes 305–346 req/s (three
/// seeds, median 317, on a 2-vCPU x86 VM), C ≈ 320 req/s, because every query takes the
/// snapshot's single lock. The rungs sit near C/3, C/2, 2C/3 and 0.95·C,
/// so the knee lies inside the ladder. They stay fixed rather than being
/// re-derived per run, so that two builds are compared at the same load.
pub const LADDER: [(f64, f64); 4] = [(100.0, 0.1), (150.0, 0.3), (200.0, 0.08), (300.0, 0.06)];
/// The percentile every rung is held to the latency limit at. It is the
/// same on every rung, so a rung's verdict does not depend on how many
/// requests it sent; p95 rather than p99, because a p99 on every rung would
/// need over 1,000 reads per rung (11 s at 100 req/s).
pub const KNEE_PERCENTILE: f64 = 95.0;
/// Requests every rung sends at least, whatever `--seconds` says: enough
/// for a p95 with ten samples beyond it.
pub const MIN_RUNG_REQUESTS: usize = 240;
/// Requests the reference rung sends at least: enough point reads for a
/// p99 with ten samples beyond it.
pub const MIN_REFERENCE_REQUESTS: usize = 1100;
/// The reference rate: `p50_us`/`p99_us` come from this rung. It is the
/// ladder's rung nearest C/2, a loaded but stable daemon.
pub const REFERENCE_RATE: f64 = 150.0;
/// The latency limit on every rung's `KNEE_PERCENTILE`. Assumed, from a
/// measurement: a batch holds the query lock for about 37 ms
/// (`serve.batch_ms` at the reference rate), so a read queued behind one
/// batch meets 50 ms and a read queued behind two does not.
pub const LATENCY_LIMIT_US: f64 = 50_000.0;

/// Share of `--seconds` the churn phase runs: reads of the mix at the
/// reference rate on one connection, `POST /rebuild` back to back on the
/// other, so nearly every read is due while a rebuild is in flight.
pub const CHURN_SHARE: f64 = 0.35;
/// Requests the churn phase sends at least: with rebuilds back to back,
/// over 1,000 of them are point reads due during a rebuild, enough for
/// `churn_p99_us` to be a p99.
pub const MIN_CHURN_REQUESTS: usize = 1200;

/// Read replays of the traced run's socketless `handlers::route` timing.
pub const ROUTE_SAMPLES: usize = 200;
