//! The serve workload: an in-process `nas-serve` daemon driven over
//! loopback by an open-loop generator (two threads, two keep-alive
//! connections, pipelined), then a churn phase that rebuilds the snapshot
//! while reads continue.

use crate::profile;
use crate::stats::{
    backlog_grew, knee, median, percentile, permutation, Outcome, Rung, SplitMix64, Zipf,
};
use crate::trace::Tracer;
use crate::Run;
use nas_core::{Params, Session};
use nas_serve::handlers::{route, Ctx, Metrics};
use nas_serve::http::RequestParser;
use nas_serve::json::Json;
use nas_serve::{BuildSpec, Client, ClientResponse, ServeConfig, Server, Store, Workload};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// How long the generator sleeps between polls of a connection.
const POLL: Duration = Duration::from_micros(50);
/// A rung's responses must all arrive within this long after its last send.
const DRAIN: Duration = Duration::from_secs(20);

fn spec() -> BuildSpec {
    BuildSpec {
        workload: Workload::PrefAttach,
        n: profile::SERVE_N,
        deg: profile::SERVE_DEG,
        seed: profile::SERVE_GRAPH_SEED,
        params: Params::practical(profile::EPS, profile::SERVE_KAPPA, profile::RHO),
        ..BuildSpec::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Spanner,
    Both,
    Batch,
    Rebuild,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Spanner => "distance.spanner",
            Kind::Both => "distance.both",
            Kind::Batch => "batch",
            Kind::Rebuild => "rebuild",
        }
    }
}

/// One planned request: its kind, the pairs it asks about, its path and
/// body (a `GET` when there is no body), and its bytes for pipelining.
#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    pairs: Vec<(usize, usize)>,
    path: String,
    body: Option<String>,
    bytes: Vec<u8>,
}

impl Planned {
    fn new(kind: Kind, pairs: Vec<(usize, usize)>, path: String, body: Option<String>) -> Self {
        let bytes = match &body {
            None => format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n"),
            Some(b) => format!(
                "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ),
        };
        Planned {
            kind,
            pairs,
            path,
            body,
            bytes: bytes.into_bytes(),
        }
    }

    /// Sends the request over a blocking client and waits for the reply.
    fn send(&self, client: &mut Client) -> Result<ClientResponse, String> {
        match &self.body {
            None => client.get(&self.path),
            Some(b) => client.post(&self.path, b),
        }
        .map_err(|e| format!("{}: {e}", self.kind.name()))
    }
}

fn point_read(kind: Kind, src: usize, dst: usize) -> Planned {
    let mode = if kind == Kind::Both {
        "both"
    } else {
        "spanner"
    };
    let path = format!("/distance?src={src}&dst={dst}&mode={mode}");
    Planned::new(kind, vec![(src, dst)], path, None)
}

fn rebuild_request() -> Planned {
    Planned::new(
        Kind::Rebuild,
        Vec::new(),
        "/rebuild".into(),
        Some(String::new()),
    )
}

/// The seeded request stream: Zipf-skewed sources over a seeded
/// permutation of the vertices, uniform targets, and a fixed mix.
struct Mix {
    rng: SplitMix64,
    zipf: Zipf,
    hot: Vec<u32>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_5E7E);
        let hot = permutation(profile::SERVE_N, &mut rng);
        Mix {
            rng,
            zipf: Zipf::new(profile::SERVE_N, profile::ZIPF_S),
            hot,
        }
    }

    /// `POST /batch` of `count` uniform pairs, computed in both planes.
    fn batch(&mut self, count: usize) -> Planned {
        let n = profile::SERVE_N;
        let pairs: Vec<(usize, usize)> = (0..count)
            .map(|_| (self.rng.below(n), self.rng.below(n)))
            .collect();
        let list: Vec<String> = pairs.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
        let body = format!("{{\"pairs\":[{}],\"mode\":\"both\"}}", list.join(","));
        Planned::new(Kind::Batch, pairs, "/batch".into(), Some(body))
    }

    fn next(&mut self) -> Planned {
        let roll = self.rng.below(100);
        if roll >= profile::MIX_SPANNER_PCT + profile::MIX_BOTH_PCT {
            return self.batch(profile::BATCH_PAIRS);
        }
        let src = self.hot[self.zipf.sample(&mut self.rng)] as usize;
        let dst = self.rng.below(profile::SERVE_N);
        let kind = if roll < profile::MIX_SPANNER_PCT {
            Kind::Spanner
        } else {
            Kind::Both
        };
        point_read(kind, src, dst)
    }
}

/// Splits pipelined HTTP/1.1 responses (`Content-Length` framing, as the
/// daemon always sends).
#[derive(Debug, Default)]
struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn next(&mut self) -> Result<Option<ClientResponse>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| format!("no Content-Length in {head:?}"))?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Ok(Some(ClientResponse { status, body }))
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
struct Record {
    plan: usize,
    /// The instant the record's schedule counts from.
    origin: Instant,
    outcome: Outcome,
    response: Option<ClientResponse>,
}

fn write_all_polling(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Drives one connection open-loop: request `items[i].1` is written as
/// soon as `start + items[i].0` passes, whatever is still in flight, and
/// responses are matched to requests in order. Requests still unanswered
/// `DRAIN` after the last send have `done = None`.
fn open_loop(
    addr: SocketAddr,
    start: Instant,
    items: &[(Duration, usize)],
    plan: &[Planned],
) -> Result<Vec<Record>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut records: Vec<Record> = items
        .iter()
        .map(|&(due, plan)| Record {
            plan,
            origin: start,
            outcome: Outcome {
                due,
                sent: due,
                done: None,
            },
            response: None,
        })
        .collect();
    let mut inflight = VecDeque::new();
    let mut parser = ResponseParser::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut give_up = None;
    loop {
        while next < items.len() && start.elapsed() >= items[next].0 {
            write_all_polling(&mut stream, &plan[items[next].1].bytes)
                .map_err(|e| format!("write: {e}"))?;
            records[next].outcome.sent = start.elapsed();
            inflight.push_back(next);
            next += 1;
        }
        if next == items.len() {
            if inflight.is_empty() {
                break;
            }
            let deadline = *give_up.get_or_insert(start.elapsed() + DRAIN);
            if start.elapsed() > deadline {
                break;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err("the daemon closed the connection".into()),
            Ok(k) => {
                let now = start.elapsed();
                parser.push(&buf[..k]);
                while let Some(resp) = parser.next()? {
                    let i = inflight
                        .pop_front()
                        .ok_or("a response arrived with no request in flight")?;
                    records[i].outcome.done = Some(now);
                    records[i].response = Some(resp);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read: {e}")),
        }
        let wait = items.get(next).map_or(POLL, |&(due, _)| {
            due.saturating_sub(start.elapsed()).min(POLL)
        });
        std::thread::sleep(wait);
    }
    Ok(records)
}

/// Sends `requests` one at a time over one keep-alive connection, each
/// once the previous reply has arrived, until the list ends or `until` has
/// passed since `start`.
fn one_at_a_time(
    addr: SocketAddr,
    start: Instant,
    until: Duration,
    requests: impl IntoIterator<Item = usize>,
    plan: &[Planned],
) -> Result<Vec<Record>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut records = Vec::new();
    for plan_index in requests {
        if start.elapsed() >= until {
            break;
        }
        let sent = start.elapsed();
        let response = plan[plan_index].send(&mut client)?;
        records.push(Record {
            plan: plan_index,
            origin: start,
            outcome: Outcome {
                due: sent,
                sent,
                done: Some(start.elapsed()),
            },
            response: Some(response),
        });
    }
    Ok(records)
}

/// What every answer is checked against.
struct Expect {
    beta_envelope: f64,
    spanner_edges: u64,
}

/// Checks one exact/spanner pair of distances.
fn check_pair(doc: &Json, src: usize, dst: usize, both: bool, e: &Expect) -> Result<(), String> {
    if field(doc, &["src"]) != Some(src as f64) || field(doc, &["dst"]) != Some(dst as f64) {
        return Err(format!(
            "answer for the wrong pair: {doc:?}, asked ({src},{dst})"
        ));
    }
    let spanner = field(doc, &["spanner"]).ok_or("no spanner distance")?;
    if !both {
        return Ok(());
    }
    let exact = field(doc, &["exact"]).ok_or("no exact distance")?;
    let bound = (1.0 + profile::EPS) * exact + e.beta_envelope;
    if spanner < exact || spanner > bound {
        return Err(format!(
            "({src},{dst}): spanner {spanner} outside [exact {exact}, {bound}]"
        ));
    }
    Ok(())
}

/// Checks one response against its request.
fn check(p: &Planned, resp: Option<&ClientResponse>, e: &Expect) -> Result<(), String> {
    let resp = resp.ok_or("no response")?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body));
    }
    let doc = Json::parse(&resp.body).map_err(|err| format!("bad JSON: {err}"))?;
    match p.kind {
        Kind::Spanner | Kind::Both => {
            let (src, dst) = p.pairs[0];
            check_pair(&doc, src, dst, p.kind == Kind::Both, e)
        }
        Kind::Batch => {
            let results = doc
                .get("results")
                .and_then(Json::as_array)
                .ok_or("no results")?;
            if results.len() != p.pairs.len() {
                return Err(format!(
                    "{} results for {} pairs",
                    results.len(),
                    p.pairs.len()
                ));
            }
            results
                .iter()
                .zip(&p.pairs)
                .try_for_each(|(r, &(u, v))| check_pair(r, u, v, true, e))
        }
        Kind::Rebuild => match field(&doc, &["spanner_edges"]) {
            Some(h) if h == e.spanner_edges as f64 => Ok(()),
            other => Err(format!(
                "rebuild gave {other:?} spanner edges, expected {}",
                e.spanner_edges
            )),
        },
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The point-read latencies (µs, from due) of a set of records.
fn read_latencies(records: &[Record], plan: &[Planned]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| matches!(plan[r.plan].kind, Kind::Spanner | Kind::Both))
        .filter_map(|r| r.outcome.latency().map(micros))
        .collect()
}

/// `GET /stats` over a fresh connection: a connection kept open between
/// calls would hold a daemon worker and run into its idle timeout.
fn stats_doc(addr: SocketAddr) -> Result<Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("/stats: {e}"))?;
    let resp = client.get("/stats").map_err(|e| format!("/stats: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/stats answered {}", resp.status));
    }
    Json::parse(&resp.body).map_err(|e| format!("/stats JSON: {e}"))
}

/// The number at `path` in a JSON document.
fn field(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
}

/// Starts the daemon and waits for the first 200 on `/health`.
fn start_daemon() -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: profile::SERVE_WORKERS,
        spec: spec(),
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let resp = client.get("/health").map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("/health answered {}", resp.status));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

fn stop(server: Server) {
    server.handle().shutdown();
    server.join();
}

/// The generator's state over one daemon: the planned requests, every
/// record sent so far, and the admin requests the daemon has answered.
struct Generator {
    addr: SocketAddr,
    mix: Mix,
    plan: Vec<Planned>,
    records: Vec<Record>,
    admin_requests: f64,
    expect: Expect,
    /// Distance-row throughput (Mvert/s) of each quiet batch.
    quiet_rows: Vec<f64>,
    /// Round trip (s) of each quiet rebuild.
    quiet_rebuilds: Vec<f64>,
}

impl Generator {
    /// Opens the generator on a daemon that has answered one `/health`.
    fn new(addr: SocketAddr, seed: u64) -> Result<Generator, String> {
        let initial = stats_doc(addr)?;
        Ok(Generator {
            addr,
            mix: Mix::new(seed),
            plan: Vec::new(),
            records: Vec::new(),
            // That `/health` and the `/stats` just above.
            admin_requests: 2.0,
            expect: Expect {
                beta_envelope: field(&initial, &["stretch", "beta_envelope"])
                    .ok_or("no beta_envelope in /stats")?,
                spanner_edges: field(&initial, &["spanner_edges"])
                    .ok_or("no spanner_edges in /stats")? as u64,
            },
            quiet_rows: Vec::new(),
            quiet_rebuilds: Vec::new(),
        })
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.admin_requests += 1.0;
        stats_doc(self.addr)
    }

    /// Plans `count` requests of the mix; returns the index of the first.
    fn plan_mix(&mut self, count: usize) -> usize {
        let first = self.plan.len();
        for _ in 0..count {
            let p = self.mix.next();
            self.plan.push(p);
        }
        first
    }

    /// A quiet slice: batches, then rebuilds, one at a time with nothing
    /// else in flight. Slices sit between the other phases so that their
    /// samples spread over the whole run.
    fn quiet_slice(&mut self) -> Result<(), String> {
        let first = self.plan.len();
        for _ in 0..profile::QUIET_SLICE_BATCHES {
            let b = self.mix.batch(profile::QUIET_BATCH_PAIRS);
            self.plan.push(b);
        }
        self.plan.push(rebuild_request());
        let rebuild = self.plan.len() - 1;
        let requests = (first..rebuild).chain([rebuild; profile::QUIET_SLICE_REBUILDS]);
        let records = one_at_a_time(
            self.addr,
            Instant::now(),
            Duration::MAX,
            requests,
            &self.plan,
        )?;
        let n = profile::SERVE_N as f64;
        for r in &records {
            let Some(secs) = r.outcome.latency().map(|d| d.as_secs_f64()) else {
                continue;
            };
            let p = &self.plan[r.plan];
            if p.kind == Kind::Batch {
                let mut sources: Vec<usize> = p.pairs.iter().map(|q| q.0).collect();
                sources.sort_unstable();
                sources.dedup();
                self.quiet_rows
                    .push(2.0 * sources.len() as f64 * n / secs / 1e6);
            } else {
                self.quiet_rebuilds.push(secs);
            }
        }
        self.records.extend(records);
        Ok(())
    }

    /// One rung of the ladder: `count` requests of the mix at `rate`, over
    /// both connections (request `i` on connection `i mod 2`).
    fn rung(&mut self, rate: f64, count: usize) -> Result<Vec<Record>, String> {
        let first = self.plan_mix(count);
        let dues = crate::stats::due_times(rate, count);
        let per_conn: [Vec<(Duration, usize)>; 2] = [0, 1].map(|c| {
            dues.iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == c)
                .map(|(i, &d)| (d, first + i))
                .collect()
        });
        let (addr, plan) = (self.addr, &self.plan);
        let start = Instant::now();
        let results: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = per_conn
                .iter()
                .map(|items| s.spawn(move || open_loop(addr, start, items, plan)))
                .collect();
            handles.into_iter().map(join).collect()
        });
        let mut records = Vec::with_capacity(count);
        for r in results {
            records.extend(r?);
        }
        records.sort_by_key(|r| r.outcome.due);
        self.records.extend(records.iter().cloned());
        Ok(records)
    }

    /// Churn: reads of the mix at the reference rate on one connection for
    /// `secs` (at least `MIN_CHURN_REQUESTS` of them), and rebuilds back to
    /// back on the other. Returns the reads due while a rebuild was in
    /// flight, and the rebuilds.
    fn churn(&mut self, secs: f64) -> Result<(Vec<Record>, Vec<Record>), String> {
        let count =
            ((profile::REFERENCE_RATE * secs).round() as usize).max(profile::MIN_CHURN_REQUESTS);
        let first = self.plan_mix(count);
        self.plan.push(rebuild_request());
        let rebuild = self.plan.len() - 1;
        let items: Vec<(Duration, usize)> = crate::stats::due_times(profile::REFERENCE_RATE, count)
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, first + i))
            .collect();
        let window = Duration::from_secs_f64(count as f64 / profile::REFERENCE_RATE);
        let (addr, plan) = (self.addr, &self.plan);
        let start = Instant::now();
        let (reads, rebuilds) = std::thread::scope(|s| {
            let reads = s.spawn(|| open_loop(addr, start, &items, plan));
            let rebuilds = s.spawn(|| {
                let endless = std::iter::repeat(rebuild);
                one_at_a_time(addr, start, window, endless, plan)
            });
            (join(reads), join(rebuilds))
        });
        let (reads, rebuilds) = (reads?, rebuilds?);
        let in_flight: Vec<(Duration, Duration)> = rebuilds
            .iter()
            .filter_map(|r| Some((r.outcome.sent, r.outcome.done?)))
            .collect();
        let during: Vec<Record> = reads
            .iter()
            .filter(|r| {
                in_flight
                    .iter()
                    .any(|&(s, e)| r.outcome.due >= s && r.outcome.due <= e)
            })
            .cloned()
            .collect();
        self.records.extend(reads);
        self.records.extend(rebuilds.iter().cloned());
        Ok((during, rebuilds))
    }

    /// Checks every answer (one operation each) and reconciles the
    /// daemon's `/stats` counters with what the generator sent.
    fn verify(&mut self, run: &mut Run) -> Result<(), String> {
        let (mut non_200, mut distance, mut batch, mut rebuilds) = (0.0, 0.0, 0.0, 0.0);
        for r in &self.records {
            let p = &self.plan[r.plan];
            if let Some(resp) = &r.response {
                if resp.status != 200 {
                    non_200 += 1.0;
                } else {
                    match p.kind {
                        Kind::Spanner | Kind::Both => distance += 1.0,
                        Kind::Batch => batch += 1.0,
                        Kind::Rebuild => rebuilds += 1.0,
                    }
                }
            }
            let problem = check(p, r.response.as_ref(), &self.expect)
                .err()
                .map(|e| format!("{} #{}: {e}", p.kind.name(), r.plan));
            run.op(problem.into_iter().collect());
        }
        let sent = self.records.iter().filter(|r| r.response.is_some()).count() as f64;
        let last = self.stats()?;
        for (key, want) in [
            ("requests", sent + self.admin_requests),
            ("errors", non_200),
            ("distance", distance),
            ("batch", batch),
            ("rebuilds", rebuilds),
        ] {
            let got = field(&last, &["server", key]);
            run.check(got == Some(want), || {
                format!("/stats server.{key} = {got:?}, the generator counted {want}")
            });
        }
        Ok(())
    }
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join()
        .unwrap_or_else(|_| Err("generator thread panicked".into()))
}

pub fn run(seed: u64, seconds: f64, run: &mut Run, tracer: Option<&mut Tracer>) {
    if let Err(e) = drive(seed, seconds, run, tracer) {
        run.check(false, || e);
    }
}

fn drive(
    seed: u64,
    seconds: f64,
    run: &mut Run,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    // Batch fills shard over the process-wide pool; pin it to the
    // profile's lanes before the first daemon creates it.
    let _ = nas_par::init_global(profile::LANES);
    let mut starts = Vec::new();
    let mut server = None;
    for _ in 0..profile::SERVE_SETUP_REPS {
        if let Some(previous) = server.take() {
            stop(previous);
        }
        let (s, secs) = start_daemon()?;
        starts.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one daemon start");
    run.set("setup_s", median(&starts));
    let mut d = Generator::new(server.local_addr(), seed)?;

    // The ladder, lowest rate first, with a quiet slice before every rung.
    // Each slice ends with rebuilds, so the reference rung starts on a
    // fresh snapshot and the oracle counters read after it are its own.
    let mut rungs = Vec::new();
    let (mut lowest, mut reference, mut oracles) = (Vec::new(), Vec::new(), None);
    for &(rate, share) in &profile::LADDER {
        d.quiet_slice()?;
        let least = if rate == profile::REFERENCE_RATE {
            profile::MIN_REFERENCE_REQUESTS
        } else {
            profile::MIN_RUNG_REQUESTS
        };
        let count = ((rate * share * seconds).round() as usize).max(least);
        let records = d.rung(rate, count)?;
        let window = Duration::from_secs_f64(count as f64 / rate);
        let outstanding = records
            .iter()
            .filter(|r| r.outcome.sent <= window && r.outcome.done.is_none_or(|t| t > window))
            .count();
        let failed = records
            .iter()
            .filter(|r| check(&d.plan[r.plan], r.response.as_ref(), &d.expect).is_err())
            .count();
        let tail = percentile(&read_latencies(&records, &d.plan), profile::KNEE_PERCENTILE);
        rungs.push(Rung {
            rate,
            failed,
            tail_us: tail,
            backlog_grew: backlog_grew(outstanding, rate, profile::LATENCY_LIMIT_US),
        });
        run.note(format!(
            "rung {rate} req/s: {} requests, {failed} failed, p{} {tail:?} us, {outstanding} outstanding at close",
            records.len(),
            profile::KNEE_PERCENTILE
        ));
        if rate == profile::REFERENCE_RATE {
            reference = records.clone();
            oracles = Some(d.stats()?);
        }
        if lowest.is_empty() {
            lowest = records;
        }
    }
    d.quiet_slice()?;
    let (churn_reads, churn_rebuilds) = d.churn(profile::CHURN_SHARE * seconds)?;
    d.quiet_slice()?;
    d.verify(run)?;
    run.check(!churn_rebuilds.is_empty(), || {
        "no rebuild completed in the churn phase".into()
    });
    stop(server);

    // End to end: the quiet slices.
    run.set("audit_mvert_per_s", median(&d.quiet_rows));
    run.set("build_s", median(&d.quiet_rebuilds));
    run.note(format!(
        "quiet slices: audit_mvert_per_s over {} batches of {} pairs {:.1?}, build_s over {} rebuilds {:.3?} s",
        d.quiet_rows.len(),
        profile::QUIET_BATCH_PAIRS,
        d.quiet_rows,
        d.quiet_rebuilds.len(),
        d.quiet_rebuilds
    ));

    // Under load: the reference rung, the knee, and reads during churn.
    let plan = &d.plan;
    let batch_ms: Vec<f64> = reference
        .iter()
        .filter(|r| plan[r.plan].kind == Kind::Batch)
        .filter_map(|r| r.outcome.latency().map(|t| t.as_secs_f64() * 1e3))
        .collect();
    if batch_ms.is_empty() {
        return Err("no batch completed at the reference rate".into());
    }
    run.set("serve.batch_ms", median(&batch_ms));
    let ref_reads = read_latencies(&reference, plan);
    let p99 = percentile(&ref_reads, 99.0).ok_or_else(|| {
        format!(
            "{} point reads at the reference rate, too few for a p99",
            ref_reads.len()
        )
    })?;
    run.set("p50_us", median(&ref_reads));
    run.set("p99_us", p99);
    run.note(format!(
        "reference rate {} req/s: p50_us and p99_us over {} point reads",
        profile::REFERENCE_RATE,
        ref_reads.len()
    ));
    run.set(
        "knee_rps",
        knee(&rungs, profile::LATENCY_LIMIT_US).unwrap_or(0.0),
    );
    let churn = read_latencies(&churn_reads, plan);
    let churn_p99 = percentile(&churn, 99.0).ok_or_else(|| {
        format!(
            "{} reads due while a rebuild was in flight, too few for a p99",
            churn.len()
        )
    })?;
    run.set("churn_p99_us", churn_p99);
    run.note(format!(
        "churn: {} rebuilds, churn_p99_us over {} reads due while one was in flight",
        churn_rebuilds.len(),
        churn.len()
    ));
    let late: Vec<f64> = d
        .records
        .iter()
        .map(|r| micros(r.outcome.lateness()))
        .collect();
    run.set(
        "serve.gen_late_p99_us",
        percentile(&late, 99.0).ok_or("too few requests for a p99 of lateness")?,
    );
    let build_ms: Vec<f64> = churn_rebuilds
        .iter()
        .filter_map(|r| Json::parse(&r.response.as_ref()?.body).ok())
        .filter_map(|doc| field(&doc, &["build_wall_ms"]))
        .collect();
    run.set("serve.rebuild.build_ms", median(&build_ms));
    let oracles = oracles.ok_or("the ladder has no reference rung")?;
    let counter = |which: &str, key: &str| field(&oracles, &["oracles", which, key]).unwrap_or(0.0);
    for which in ["spanner", "exact"] {
        let queries = counter(which, "point_queries");
        run.set(
            format!("serve.oracle.hit_rate.{which}"),
            if queries > 0.0 {
                counter(which, "cache_hits") / queries
            } else {
                0.0
            },
        );
    }
    run.set(
        "serve.oracle.traversals",
        counter("spanner", "traversals") + counter("exact", "traversals"),
    );

    if let Some(tracer) = tracer {
        for r in &d.records {
            let Some(done) = r.outcome.done else {
                continue;
            };
            let at = |t| r.origin + t;
            let span = tracer.record(
                format!("serve.request.{}", plan[r.plan].kind.name()),
                r.plan as u64,
                None,
                at(r.outcome.due),
                at(done),
            );
            tracer.record(
                "serve.wire",
                r.plan as u64,
                Some(span),
                at(r.outcome.sent),
                at(done),
            );
        }
        layers(seed, run, tracer, &lowest, plan)?;
    }
    Ok(())
}

/// The traced run's socketless layer timings.
fn layers(
    seed: u64,
    run: &mut Run,
    tracer: &mut Tracer,
    lowest: &[Record],
    plan: &[Planned],
) -> Result<(), String> {
    let spec = spec();
    let mut gens = Vec::new();
    let mut g = None;
    for _ in 0..profile::SERVE_SETUP_REPS {
        let t = Instant::now();
        g = Some(spec.build_graph().map_err(|e| e.to_string())?);
        gens.push(t.elapsed().as_secs_f64());
    }
    let g = g.expect("at least one generation");
    run.set("graph.gen_s", median(&gens));
    let h = Session::on(&g)
        .params(spec.params)
        .run()
        .map_err(|e| e.to_string())?
        .to_graph();
    let mut rng = SplitMix64::new(seed);
    let sources: Vec<usize> = (0..profile::TRACED_BFS_SOURCES)
        .map(|_| rng.below(g.num_vertices()))
        .collect();
    crate::construct::bfs_rows(&g, &h, sources, run, tracer);

    // HTTP parsing, in batches of 1000 requests.
    let sample = &plan
        .iter()
        .find(|p| p.kind == Kind::Spanner)
        .ok_or("no point read planned")?
        .bytes;
    let mut per_parse = Vec::new();
    let mut parser = RequestParser::new();
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..1000 {
            parser.push(sample);
            let req = parser.next_request().map_err(|e| e.to_string())?;
            std::hint::black_box(req.ok_or("incomplete request")?);
        }
        per_parse.push(t.elapsed().as_nanos() as f64 / 1000.0);
    }
    run.set("serve.http.parse_ns", median(&per_parse));

    // `handlers::route` on a store of the same spec, no sockets.
    let store = Store::open(spec).map_err(|e| e.to_string())?;
    let metrics = Metrics::default();
    let shutdown = AtomicBool::new(false);
    let ctx = Ctx {
        store: &store,
        metrics: &metrics,
        shutdown: &shutdown,
    };
    let mut time_route = |bytes: &[u8], name: &str, id: u64| -> Result<f64, String> {
        let mut p = RequestParser::new();
        p.push(bytes);
        let req = p
            .next_request()
            .map_err(|e| e.to_string())?
            .ok_or("incomplete request")?;
        let t = Instant::now();
        let resp = route(&req, &ctx);
        let end = Instant::now();
        tracer.record(name, id, None, t, end);
        if resp.status != 200 {
            return Err(format!("route answered {}", resp.status));
        }
        Ok((end - t).as_secs_f64() * 1e6)
    };
    let n = profile::SERVE_N;
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for i in 0..profile::ROUTE_SAMPLES {
        let src = rng.below(n);
        miss.push(time_route(
            &point_read(Kind::Spanner, src, rng.below(n)).bytes,
            "serve.route.miss",
            i as u64,
        )?);
        hit.push(time_route(
            &point_read(Kind::Spanner, src, rng.below(n)).bytes,
            "serve.route.hit",
            i as u64,
        )?);
    }
    run.set("serve.route_us.hit", median(&hit));
    run.set("serve.route_us.miss", median(&miss));
    // The lowest rung's point reads replayed in order, against the
    // client's view of the same requests.
    let replay: Vec<f64> = lowest
        .iter()
        .filter(|r| matches!(plan[r.plan].kind, Kind::Spanner | Kind::Both))
        .take(profile::ROUTE_SAMPLES)
        .map(|r| time_route(&plan[r.plan].bytes, "serve.route.replay", r.plan as u64))
        .collect::<Result<_, _>>()?;
    let client = read_latencies(lowest, plan);
    if replay.is_empty() || client.is_empty() {
        return Err("no point reads on the lowest rung".into());
    }
    run.set("serve.transport_us", median(&client) - median(&replay));
    Ok(())
}
