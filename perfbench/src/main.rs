//! The reference benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload construct-hubs --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload, checks its outputs, prints every metric
//! by name with its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics, measured with no tracing;
//! `--trace 1` makes a separate traced run and reports the per-layer
//! metrics, writing its spans to `perfbench/out/`. See `README.md` for
//! the workloads and the metric map.

mod construct;
mod profile;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Which workloads report a metric; the others print 0 for it (the layer
/// does no work there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    All,
    Construct,
    Serve,
}

struct MetricDef {
    name: &'static str,
    unit: &'static str,
    scope: Scope,
}

const fn def(name: &'static str, unit: &'static str, scope: Scope) -> MetricDef {
    MetricDef { name, unit, scope }
}

/// The end-to-end metrics (`--trace 0`), the same list as
/// `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Scope::All),
    def("build_s", "s", Scope::All),
    def("audit_mvert_per_s", "Mvert/s", Scope::All),
    def("peak_rss_mib", "MiB", Scope::All),
];

use Scope::{All, Construct as C, Serve as S};

/// The per-layer metrics (`--trace 1`), the same list as
/// `BENCHMARK.json`'s `per_layer`.
const PER_LAYER: &[MetricDef] = &[
    def("core.algo1.s", "s", C),
    def("core.ruling.s", "s", C),
    def("core.supercluster.s", "s", C),
    def("core.interconnect.s", "s", C),
    def("core.driver_self.s", "s", C),
    def("core.algo1.rounds", "count", C),
    def("core.ruling.rounds", "count", C),
    def("core.supercluster.rounds", "count", C),
    def("core.interconnect.rounds", "count", C),
    def("core.algo1.messages", "count", C),
    def("core.ruling.messages", "count", C),
    def("core.supercluster.messages", "count", C),
    def("core.interconnect.messages", "count", C),
    def("core.algo1.ns_per_msg", "ns", C),
    def("core.ruling.ns_per_msg", "ns", C),
    def("core.supercluster.ns_per_msg", "ns", C),
    def("core.interconnect.ns_per_msg", "ns", C),
    def("core.phase0.s", "s", C),
    def("core.phase1.s", "s", C),
    def("core.phase2.s", "s", C),
    def("core.phase3.s", "s", C),
    def("core.phase4.s", "s", C),
    def("core.phase0.rounds", "count", C),
    def("core.phase1.rounds", "count", C),
    def("core.phase2.rounds", "count", C),
    def("core.phase3.rounds", "count", C),
    def("core.phase4.rounds", "count", C),
    def("core.knowledge_peak_bytes", "bytes", C),
    def("core.edge_share", "ratio", C),
    def("congest.rounds", "count", C),
    def("congest.skipped_rounds", "count", C),
    def("congest.executed_rounds", "count", C),
    def("congest.messages", "count", C),
    def("congest.busiest_round_messages", "count", C),
    def("congest.ns_per_msg", "ns", C),
    def("congest.flood_mmsg_per_s", "Mmsg/s", C),
    def("congest.us_per_executed_round", "us", C),
    def("congest.active_per_round", "count", C),
    def("par.lane_speedup", "ratio", C),
    def("trace.overhead_s", "s", C),
    def("graph.gen_s", "s", All),
    def("graph.bfs_row_g_us", "us", All),
    def("graph.bfs_row_h_us", "us", All),
    def("metrics.audit.pairs", "count", C),
    def("metrics.audit.max_stretch", "ratio", C),
    def("metrics.audit.effective_beta", "hops", C),
    def("failed_share", "ratio", All),
    def("p50_us", "us", S),
    def("p99_us", "us", S),
    def("knee_rps", "req/s", S),
    def("churn_p99_us", "us", S),
    def("serve.http.parse_ns", "ns", S),
    def("serve.route_us.hit", "us", S),
    def("serve.route_us.miss", "us", S),
    def("serve.transport_us", "us", S),
    def("serve.oracle.hit_rate.spanner", "ratio", S),
    def("serve.oracle.hit_rate.exact", "ratio", S),
    def("serve.oracle.traversals", "count", S),
    def("serve.batch_ms", "ms", S),
    def("serve.rebuild.build_ms", "ms", S),
    def("serve.gen_late_p99_us", "us", S),
];

/// What one run measured and verified.
#[derive(Debug, Default)]
pub struct Run {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Run {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one operation; it failed if any gate reported a problem.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Counts one verification as an operation of its own.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![problem()] });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ConstructHubs,
    ConstructLong,
    ServeZipfChurn,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("construct-hubs", Workload::ConstructHubs),
        ("construct-long", Workload::ConstructLong),
        ("serve-zipf-churn", Workload::ServeZipfChurn),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|&&(_, w)| w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }

    fn in_scope(self, scope: Scope) -> bool {
        match scope {
            All => true,
            C => self != Workload::ServeZipfChurn,
            S => self == Workload::ServeZipfChurn,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <construct-hubs|construct-long|serve-zipf-churn> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    let mut tracer = args.trace.then(trace::Tracer::new);
    match (args.workload, tracer.as_mut()) {
        (Workload::ConstructHubs, None) => {
            construct::run(&profile::HUBS, args.seed, args.seconds, &mut run)
        }
        (Workload::ConstructLong, None) => {
            construct::run(&profile::LONG, args.seed, args.seconds, &mut run)
        }
        (Workload::ConstructHubs, Some(t)) => {
            construct::run_traced(&profile::HUBS, args.seed, &mut run, t)
        }
        (Workload::ConstructLong, Some(t)) => {
            construct::run_traced(&profile::LONG, args.seed, &mut run, t)
        }
        (Workload::ServeZipfChurn, t) => serve::run(args.seed, args.seconds, &mut run, t),
    }
    match peak_rss_mib() {
        Some(mib) => run.set("peak_rss_mib", mib),
        None => run.check(false, || "cannot read VmHWM from /proc/self/status".into()),
    }
    run.set(
        "failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    if let Some(t) = &tracer {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match t.write_jsonl(&path) {
            Ok(()) => run.note(format!("spans written to {}", path.display())),
            Err(e) => run.check(false, || format!("cannot write {}: {e}", path.display())),
        }
    }

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let value = if args.workload.in_scope(d.scope) {
            run.values.get(d.name).copied()
        } else {
            Some(0.0)
        };
        match value {
            Some(v) if v.is_finite() => metrics.push((d.name, v, d.unit)),
            _ => run.check(false, || format!("metric {} was not measured", d.name)),
        }
    }

    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for note in &run.notes {
        println!("# {note}");
    }
    for (name, value) in &run.values {
        println!("{name} = {value} {}", unit_of(name).unwrap_or("?"));
    }
    for f in &run.failures {
        println!("# FAILED: {f}");
        eprintln!("perfbench: FAILED: {f}");
    }
    let correct = run.failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted,
        run.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_serve::json::Json;

    /// `BENCHMARK.json` and the two lists above must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload construct-long --seed 7 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ConstructLong, 7, 5.0, true)
        );
        for bad in [
            "--workload nope",
            "--workload construct-long --trace 2",
            "--workload construct-long --seconds -1",
            "--workload construct-long --seed",
            "--seed 3",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
