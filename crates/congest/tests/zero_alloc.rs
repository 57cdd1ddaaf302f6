//! Pins the arena plane's zero-allocation guarantee: after warm-up,
//! [`Simulator::step`] must not touch the heap at all, even with messages
//! circulating every round.
//!
//! A counting global allocator wraps the system allocator; the test runs a
//! perpetual token-ring protocol (every node forwards every round, so the
//! message plane is fully exercised — staging, counting pass, scatter,
//! buffer swap), warms the scratch buffers up, and then asserts that
//! hundreds of further steps perform **zero** allocations.

use nas_congest::{Msg, NodeProgram, RoundCtx, Simulator};
use nas_graph::generators;
use nas_par::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect with no influence on the returned memory, and reading the
// const-initialized, destructor-free `COUNTED` flag never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The harness runs the tests of one binary on parallel threads, so every
/// test holds this lock for its whole body: one test's set-up allocations
/// must not land in another test's counted window.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's allocations count. Only the threads that run
    /// the simulator are switched on (see [`count_on`]): the harness's main
    /// thread spawns and reaps test threads, allocating, while a test's
    /// window is open.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Switches counting on or off for the calling thread and, if given, every
/// lane of `pool` (lane 0 is the calling thread).
fn count_on(pool: Option<&WorkerPool>, on: bool) {
    COUNTED.with(|c| c.set(on));
    if let Some(pool) = pool {
        pool.broadcast(|_| COUNTED.with(|c| c.set(on)));
    }
}

/// Token ring: at round 0 every node launches a token over its port 0; from
/// then on every received token is forwarded out the *other* port. On a
/// cycle every node handles exactly one token per round, forever — maximal
/// sustained load on the message plane with zero per-program allocation.
struct Ring {
    tokens_seen: u64,
}

impl NodeProgram for Ring {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round() == 0 {
            ctx.send(0, Msg::one(ctx.id() as u64));
            return;
        }
        for i in 0..ctx.inbox().len() {
            let inc = ctx.inbox()[i];
            self.tokens_seen += 1;
            ctx.send(1 - inc.from_port as usize, inc.msg);
        }
    }
}

#[test]
fn steady_state_step_performs_zero_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 512;
    let g = generators::cycle(n);
    let programs: Vec<Ring> = (0..n).map(|_| Ring { tokens_seen: 0 }).collect();
    let mut sim = Simulator::new(&g, programs);

    // Warm-up: every scratch buffer reaches its steady-state capacity.
    sim.run_rounds(32);
    assert_eq!(sim.stats().messages, 32 * n as u64);

    count_on(None, true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_rounds(256);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    count_on(None, false);
    assert_eq!(
        after - before,
        0,
        "Simulator::step allocated in steady state"
    );

    // The plane kept doing real work the whole time.
    assert_eq!(sim.stats().messages, (32 + 256) * n as u64);
    assert!(sim.programs().iter().all(|p| p.tokens_seen >= 256));
}

/// The guarantee holds on irregular topologies too: a preferential-
/// attachment graph has wildly varying degrees, so inbox ranges differ
/// per node and per round.
#[test]
fn steady_state_zero_alloc_on_irregular_graph() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 300;
    let g = generators::preferential_attachment(n, 3, 7);

    /// Echo storm: every received message is echoed back out the same port,
    /// seeded by a round-0 broadcast from every node. Constant full load.
    struct Echo;
    impl NodeProgram for Echo {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() == 0 {
                ctx.send_all(Msg::one(ctx.id() as u64));
                return;
            }
            for i in 0..ctx.inbox().len() {
                let inc = ctx.inbox()[i];
                ctx.send(inc.from_port as usize, inc.msg);
            }
        }
    }

    let programs: Vec<Echo> = (0..n).map(|_| Echo).collect();
    let mut sim = Simulator::new(&g, programs);
    sim.run_rounds(16);

    count_on(None, true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_rounds(128);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    count_on(None, false);
    assert_eq!(
        after - before,
        0,
        "Simulator::step allocated in steady state on irregular graph"
    );
    // Every edge carries a message in both directions every round.
    assert_eq!(sim.stats().messages, (16 + 128) * 2 * g.num_edges() as u64);
}

/// The guarantee survives dispatch to the pool's threads: per-lane arenas
/// are allocated once at [`Simulator::set_pool`] (and grown during
/// warm-up), job dispatch goes through a preallocated futex-guarded slot,
/// and the counting/scatter merge reuses per-range scratch — so a
/// steady-state multi-lane step performs zero allocations *across all
/// worker threads* (`count_on` switches counting on for every pool lane,
/// so worker-thread allocations are caught here too).
#[test]
fn steady_state_zero_alloc_with_pool_active() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use std::sync::Arc;

    // Every node is visited every round, and 2048 visits is above the
    // simulator's dispatch threshold, so every round runs on the threads.
    let n = 2048;
    let g = generators::cycle(n);
    let programs: Vec<Ring> = (0..n).map(|_| Ring { tokens_seen: 0 }).collect();
    let mut sim = Simulator::new(&g, programs);
    // 4 lanes regardless of the host's core count: the cross-thread dispatch
    // machinery must itself be allocation-free even when oversubscribed.
    let pool = Arc::new(WorkerPool::new(4));
    sim.set_pool(Arc::clone(&pool));

    // Warm-up: one full token rotation plus slack. With more than one lane
    // the plane stages into per-(lane, receiver-range) buckets, and the
    // ring's two tokens that travel *against* the flow shift which bucket
    // carries the shard-boundary messages as they orbit — each bucket only
    // reaches its steady-state capacity once the orbit has passed it.
    // After one full period the pattern repeats exactly.
    let warmup = n as u64 + 32;
    sim.run_rounds(warmup);
    assert_eq!(sim.stats().messages, warmup * n as u64);

    // One more full period: every bucket pattern recurs.
    count_on(Some(&pool), true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_rounds(n as u64);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    count_on(Some(&pool), false);
    assert_eq!(
        after - before,
        0,
        "pool-dispatched Simulator::step allocated in steady state"
    );
    assert_eq!(sim.stats().messages, (warmup + n as u64) * n as u64);
    assert!(sim.programs().iter().all(|p| p.tokens_seen >= 256));
}
