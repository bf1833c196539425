//! Data-parallel evaluation of independent components on a **persistent
//! work-stealing worker pool**.
//!
//! The two-phase clocking contract ([`crate::kernel`]) guarantees that during
//! the evaluate phase no component mutates state visible to another — each
//! router reads the *latched* outputs of its neighbours, sampled into its
//! input ports by the wiring step. Evaluation of the components of one cycle
//! is therefore embarrassingly parallel, and on meshes of dozens of routers
//! it pays to fan it out across cores.
//!
//! Earlier revisions spawned scoped threads *per cycle* (~ms, never paid
//! off), then parked a persistent pool and handed every thread one fixed
//! contiguous chunk per dispatch. Fixed chunks have two structural problems
//! this revision removes:
//!
//! 1. **One job slot.** Only one dispatch could be in flight, so two
//!    concurrent dispatchers (the hybrid fabric's two planes) serialised,
//!    and a dispatch nested inside a pool task had to degrade to inline
//!    execution.
//! 2. **No balancing.** A worker that finished its chunk early parked while
//!    a loaded chunk (e.g. the routers along a congested path) ran long.
//!
//! [`WorkerPool`] now keeps a **registry of live jobs**. A dispatch splits
//! its index range into blocks, deals the blocks into one queue per lane,
//! and publishes the job; every participant — workers *and* the dispatching
//! thread — drains its own queue first and **steals from the fullest
//! remaining queue (its own job's or any other live job's) when empty**.
//! The dispatcher returns when its job's last block completes, which is the
//! same barrier the clocking contract needs. Because any thread can claim
//! blocks from any live job, two planes dispatched concurrently share every
//! lane, and a dispatch nested inside a pool task simply publishes a child
//! job and helps drain it — no inline degradation, no deadlock (a claimant
//! always drains the job it waits on before blocking).
//!
//! **Determinism:** the block → index mapping is a pure function of the
//! length and lane count, every index is executed exactly once, and blocks
//! write disjoint state — so results are bit-identical under every policy
//! and every steal schedule, enforced by the determinism suites.
//!
//! ```
//! use noc_sim::par::{par_for_each_mut, ParPolicy};
//!
//! let mut counters = vec![0u64; 256];
//! // Pooled evaluation: disjoint &mut access, deterministic result.
//! par_for_each_mut(&mut counters, ParPolicy::Threads(4), |c| *c += 1);
//! par_for_each_mut(&mut counters, ParPolicy::Sequential, |c| *c += 1);
//! assert!(counters.iter().all(|&c| c == 2));
//! ```

use crate::kernel::Clocked;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Number of CPUs available to the process, sampled once.
///
/// `thread::available_parallelism` can be a syscall on some platforms, and
/// [`ParPolicy::Auto`] resolves lanes every simulated cycle per router
/// plane — exactly the hot path this module exists to speed up.
/// The value is effectively fixed per process (the global pool sizes itself
/// from it once), so cache it.
fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How to distribute per-cycle component evaluation over threads.
///
/// Every policy produces **bit-identical results**: the block → index
/// mapping depends only on the component count and the resolved lane count,
/// and each index is executed by exactly one thread per phase, so simulation
/// outcomes (payload, activity ledgers, energy) never depend on scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParPolicy {
    /// Always evaluate sequentially on the calling thread.
    Sequential,
    /// Evaluate on up to `n` threads. [`lanes_for`](ParPolicy::lanes_for)
    /// clamps this to the component count; the dispatching pool further
    /// clamps to its own size (e.g. [`WorkerPool::global`]), so `n` is an
    /// upper bound, not a guarantee.
    Threads(usize),
    /// Pick `Sequential` below [`ParPolicy::AUTO_SEQUENTIAL_BELOW`]
    /// components, otherwise one lane per available CPU. Calibrated
    /// against *pool dispatch* cost (wake + barrier on parked threads,
    /// ~µs), not thread spawn cost: a dispatch pays off once the serial
    /// evaluation of the slice costs more than a few µs, which a mesh of
    /// 64 routers already does.
    Auto,
}

impl ParPolicy {
    /// Component count below which [`ParPolicy::Auto`] stays sequential.
    ///
    /// A pool dispatch costs on the order of single-digit µs (two condvar
    /// round-trips on parked threads). An 8×8 mesh of routers needs tens
    /// of µs per evaluate phase serially, so 64 components is where
    /// fanning out starts to win; below that the dispatch overhead eats
    /// the gain. (The old per-cycle `crossbeam::scope` implementation put
    /// this threshold at 4096 because it paid ~ms per cycle to spawn.)
    pub const AUTO_SEQUENTIAL_BELOW: usize = 64;

    /// Resolve the policy to a concrete lane count for `len` components:
    /// the number of threads (dispatcher included) that would share the
    /// work. `1` means sequential.
    ///
    /// The small-`len` arms short-circuit **before** touching the cached
    /// CPU count: a nested dispatch over a handful of components (e.g. a
    /// `par_join` fork evaluating a small plane inside a pool task) must
    /// resolve to sequential without consulting — or faulting in — any
    /// machine-wide state.
    ///
    /// ```
    /// use noc_sim::par::ParPolicy;
    ///
    /// assert_eq!(ParPolicy::Sequential.lanes_for(1_000), 1);
    /// assert_eq!(ParPolicy::Threads(4).lanes_for(2), 2); // clamped to len
    /// // Auto: small meshes stay serial, large ones use the machine.
    /// assert_eq!(ParPolicy::Auto.lanes_for(16), 1);
    /// assert!(ParPolicy::Auto.lanes_for(256) >= 1);
    /// ```
    pub fn lanes_for(self, len: usize) -> usize {
        match self {
            ParPolicy::Sequential => 1,
            ParPolicy::Threads(n) => n.max(1).min(len.max(1)),
            ParPolicy::Auto => {
                if len < ParPolicy::AUTO_SEQUENTIAL_BELOW {
                    1
                } else {
                    available_cpus().min(len)
                }
            }
        }
    }
}

/// One lane's block queue: a contiguous run of block ids `[cursor, end)`,
/// popped from the front by its owner and by thieves alike (an atomic
/// fetch-add hands out each block exactly once, so "steal" and "own pop"
/// need no distinction for correctness — only for locality).
struct BlockQueue {
    cursor: AtomicUsize,
    end: usize,
}

/// A published dispatch: a lifetime-erased task plus the per-lane block
/// queues participants drain. The dispatcher blocks until `pending` hits
/// zero, so the pointee (a closure on the dispatcher's stack) outlives
/// every dereference.
struct JobCore {
    task: *const (dyn Fn(usize) + Sync),
    queues: Vec<BlockQueue>,
    /// Blocks not yet finished; the dispatcher's barrier condition.
    pending: AtomicUsize,
    /// First panic payload from any block; re-raised by the dispatcher.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the pointee is Sync, and the dispatch barrier guarantees it is
// alive for as long as any thread can still claim a block (a claim can only
// succeed while `pending > 0`).
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    fn new(task: *const (dyn Fn(usize) + Sync), blocks: usize, lanes: usize) -> JobCore {
        let lanes = lanes.clamp(1, blocks);
        let per = blocks.div_ceil(lanes);
        let queues = (0..lanes)
            .map(|l| BlockQueue {
                cursor: AtomicUsize::new(per * l),
                end: (per * (l + 1)).min(blocks),
            })
            .collect();
        JobCore {
            task,
            queues,
            pending: AtomicUsize::new(blocks),
            panic: Mutex::new(None),
        }
    }

    /// Claim one block: own queue (`home`) first, then steal from the
    /// fullest other queue. Returns `None` when every queue is drained.
    fn claim(&self, home: usize) -> Option<usize> {
        let n = self.queues.len();
        let home = home % n;
        if let Some(b) = self.queues[home].pop() {
            return Some(b);
        }
        loop {
            // Steal from the queue with the most blocks left; re-scan on a
            // lost race until all queues are provably empty.
            let victim = (0..n)
                .filter(|&q| q != home)
                .max_by_key(|&q| self.queues[q].remaining())?;
            if self.queues[victim].remaining() == 0 {
                return None;
            }
            if let Some(b) = self.queues[victim].pop() {
                return Some(b);
            }
        }
    }

    /// Any block still unclaimed?
    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| q.remaining() > 0)
    }
}

impl BlockQueue {
    fn pop(&self) -> Option<usize> {
        // The overshoot of a failed claim is harmless: `cursor` only ever
        // moves up and every id below `end` is handed out exactly once.
        let b = self.cursor.fetch_add(1, Ordering::Relaxed);
        (b < self.end).then_some(b)
    }

    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.cursor.load(Ordering::Relaxed))
    }
}

/// The pool's shared registry of live jobs.
struct Registry {
    jobs: Vec<Arc<JobCore>>,
    shutdown: bool,
}

struct Shared {
    registry: Mutex<Registry>,
    /// Workers park here when no live job has unclaimed blocks.
    work: Condvar,
    /// Dispatchers park here while their job's stragglers finish.
    done: Condvar,
}

/// Lock the registry, shrugging off poison: blocks run outside the lock,
/// so a panicking task can never leave the registry inconsistent.
fn lock_registry(shared: &Shared) -> MutexGuard<'_, Registry> {
    shared
        .registry
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A persistent pool of parked worker threads with work-stealing dispatch.
///
/// Workers are spawned once (at construction) and live until the pool is
/// dropped. A dispatch publishes a job (per-lane block queues) and the
/// dispatching thread helps drain it; parked workers wake and drain every
/// live job, stealing across queues — and across *jobs* — when their own
/// runs dry. The dispatcher returns only when its job's last block has
/// finished, so a dispatch is still a barrier from the caller's view.
///
/// Most callers never construct one: [`par_for_each_mut`] (and the fabric
/// backends built on it) use [`WorkerPool::global`], sized to the machine.
/// Dedicated pools are for tests and for embedding the simulator where the
/// global sizing is wrong.
///
/// ```
/// use noc_sim::par::WorkerPool;
///
/// let pool = WorkerPool::new(2); // two workers + the calling thread
/// let mut items = vec![1u32; 100];
/// pool.for_each_mut(&mut items, 3, |x| *x *= 2);
/// assert!(items.iter().all(|&x| x == 2));
/// // A dispatch nested inside a pool task publishes a child job and the
/// // pool's lanes are shared across both; a two-sided join runs closures
/// // concurrently.
/// let (mut a, mut b) = (0u64, 0u64);
/// pool.join(|| a = 1, || b = 2);
/// assert_eq!((a, b), (1, 2));
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Blocks per lane a dispatch is split into. More than one block per
    /// lane is what makes stealing meaningful: a lane that finishes early
    /// takes whole blocks from a loaded lane instead of parking.
    const BLOCKS_PER_LANE: usize = 4;

    /// Spawn a pool of `workers` parked threads (at least one). Total
    /// parallelism of a dispatch is `workers + 1`: the dispatching thread
    /// always participates.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            registry: Mutex::new(Registry {
                jobs: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("noc-sim-worker-{}", i + 1))
                    .spawn(move || worker_loop(&shared, i + 1))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles,
        }
    }

    /// The process-wide pool used by [`par_for_each_mut`]: one worker per
    /// available CPU beyond the calling thread (minimum one, so explicit
    /// `Threads(n)` policies exercise real concurrency even on a single
    /// CPU). Created on first use; its threads stay parked while idle.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(available_cpus().saturating_sub(1).max(1)))
    }

    /// Number of worker threads (parallelism is `workers() + 1`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(i)` for every index in `0..len`, fanned out over up to
    /// `lanes` threads. Blocks until every index has been processed;
    /// each index runs exactly once — the guarantee
    /// [`WorkerPool::for_each_mut`] turns into disjoint `&mut` access.
    fn for_each_index<F>(&self, len: usize, lanes: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let lanes = lanes.max(1).min(self.workers + 1).min(len.max(1));
        if lanes <= 1 || len <= 1 {
            for i in 0..len {
                f(i);
            }
            return;
        }
        let blocks = (lanes * Self::BLOCKS_PER_LANE).min(len);
        let grain = len.div_ceil(blocks);
        let task = move |block: usize| {
            let start = block * grain;
            let end = (start + grain).min(len);
            for i in start..end {
                f(i);
            }
        };
        self.dispatch(blocks, lanes, &task);
    }

    /// Apply `f` to every element, fanned out over up to `lanes` threads
    /// (clamped to the pool size and the element count). Blocks until every
    /// element has been processed. Each invocation gets an exclusive
    /// `&mut`, so `f` only needs to be safe to run concurrently on
    /// *different* elements — which the type system already enforces.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], lanes: usize, f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let len = items.len();
        let base = SendPtr(items.as_mut_ptr());
        self.for_each_index(len, lanes, move |i| {
            let base = base;
            // SAFETY: each index is executed exactly once per dispatch, so
            // the &mut views are disjoint; the dispatch barrier keeps the
            // caller's &mut [T] borrow alive until all blocks finish.
            f(unsafe { &mut *base.0.add(i) });
        });
    }

    /// Run two closures, one on the calling thread and one on a pool
    /// worker, and wait for both — the two-sided fork-join used to step a
    /// hybrid fabric's circuit and packet planes concurrently. Dispatches
    /// nested inside either side publish child jobs on the same pool, so
    /// both planes' router fan-out shares every lane.
    pub fn join<L, R>(&self, left: L, right: R)
    where
        L: FnOnce() + Send,
        R: FnOnce() + Send,
    {
        let left = Mutex::new(Some(left));
        let right = Mutex::new(Some(right));
        let task = |id: usize| {
            if id == 0 {
                if let Some(side) = left.lock().expect("join slot").take() {
                    side();
                }
            } else if let Some(side) = right.lock().expect("join slot").take() {
                side();
            }
        };
        self.dispatch(2, 2, &task);
    }

    /// Publish `task` as a job of `blocks` blocks over `lanes` queues, help
    /// drain it, and return once every block has finished. Runs inline when
    /// there is nothing to fan out.
    fn dispatch(&self, blocks: usize, lanes: usize, task: &(dyn Fn(usize) + Sync)) {
        if blocks <= 1 {
            for b in 0..blocks {
                task(b);
            }
            return;
        }
        // SAFETY: lifetime erasure. The barrier below keeps `task` alive
        // for as long as any thread can still claim one of its blocks —
        // dispatch does not return until `pending` hits zero.
        let job = Arc::new(JobCore::new(unsafe { erase(task) }, blocks, lanes));
        {
            let mut reg = lock_registry(&self.shared);
            reg.jobs.push(Arc::clone(&job));
            self.shared.work.notify_all();
        }
        // Help-first: drain our own queues (stealing within the job when
        // ours runs dry), then wait for stragglers. A nested dispatch from
        // inside a block lands here recursively with its own job — it
        // drains that child to completion before returning, so the parent
        // block always finishes and the barrier chain unwinds.
        while let Some(b) = job.claim(0) {
            run_block(&job, b, &self.shared);
        }
        {
            let mut reg = lock_registry(&self.shared);
            while job.pending.load(Ordering::Acquire) > 0 {
                reg = self
                    .shared
                    .done
                    .wait(reg)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            reg.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        let payload = job.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            // Re-raise the original payload so the failure reads exactly
            // like it would have on the calling thread.
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut reg = lock_registry(&self.shared);
            reg.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

/// Run one claimed block: execute, record a panic if any, retire the block
/// and wake the dispatcher on the last one.
fn run_block(job: &JobCore, block: usize, shared: &Shared) {
    // SAFETY: a block can only be claimed while `pending > 0`, and the
    // dispatcher does not return (ending the task borrow) until then.
    let task = unsafe { &*job.task };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(block)));
    if let Err(payload) = result {
        let mut slot = job.panic.lock().expect("panic slot");
        // Keep the first payload; the dispatcher re-raises it.
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last block: the dispatcher may be parked on `done`. Taking the
        // registry lock orders this notify after its wait begins.
        let _reg = lock_registry(shared);
        shared.done.notify_all();
    }
}

/// Erase the borrow lifetime of a dispatch task.
///
/// # Safety
///
/// Callers must guarantee the pointee outlives every dereference —
/// [`WorkerPool::dispatch`] does, by not returning until every block of
/// the job has finished.
unsafe fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> *const (dyn Fn(usize) + Sync) {
    // SAFETY: only the lifetime is transmuted away; the vtable and data
    // pointers are unchanged. Validity past the borrow is the caller's
    // contract above.
    unsafe { std::mem::transmute(task) }
}

/// A raw pointer that may cross threads; used to hand each worker the base
/// of the (disjointly indexed) component slice.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointee elements are Send and every element is accessed by
// exactly one thread per dispatch (each index runs exactly once).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

fn worker_loop(shared: &Shared, index: usize) {
    loop {
        let job = {
            let mut reg = lock_registry(shared);
            loop {
                if reg.shutdown {
                    return;
                }
                // Steal-on-empty across jobs: any live job with unclaimed
                // blocks is fair game, in publication order.
                if let Some(job) = reg.jobs.iter().find(|j| j.has_work()) {
                    break Arc::clone(job);
                }
                reg = shared
                    .work
                    .wait(reg)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        while let Some(b) = job.claim(index) {
            run_block(&job, b, shared);
        }
    }
}

/// Apply `f` to every element, possibly in parallel per `policy`, on the
/// [`WorkerPool::global`] pool.
///
/// The function must be safe to run concurrently on *different* elements —
/// which the type system enforces: each invocation gets an exclusive `&mut`.
pub fn par_for_each_mut<T, F>(items: &mut [T], policy: ParPolicy, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let lanes = policy.lanes_for(items.len());
    if lanes <= 1 || items.len() <= 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    WorkerPool::global().for_each_mut(items, lanes, f);
}

/// Run `left` and `right` concurrently on the global pool when `policy`
/// resolves to more than one lane for `work_items` components, otherwise
/// sequentially (`left` first). `work_items` should be the total component
/// count behind both closures — e.g. the router count of both planes of a
/// hybrid fabric — so [`ParPolicy::Auto`] can judge whether the fork is
/// worth a dispatch. Dispatches nested inside either side publish child
/// jobs on the same pool (full lane sharing, no inline degradation).
pub fn par_join<L, R>(policy: ParPolicy, work_items: usize, left: L, right: R)
where
    L: FnOnce() + Send,
    R: FnOnce() + Send,
{
    if policy.lanes_for(work_items) <= 1 {
        left();
        right();
    } else {
        WorkerPool::global().join(left, right);
    }
}

/// Step a slice of clocked components one cycle — each one's eval then its
/// commit, back to back — in a single dispatch, possibly in parallel.
///
/// Exact only for components whose eval reads nothing another component
/// writes at its commit: each one's inputs must have been sampled before
/// the call, as every mesh wires its links. Then no component can
/// observe whether a neighbour has already committed, and one dispatch
/// gives the bits of the two-phase eval-all-then-commit-all cycle.
pub fn par_step<C: Clocked + Send>(components: &mut [C], policy: ParPolicy) {
    par_for_each_mut(components, policy, crate::kernel::step);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityLedger;
    use crate::signal::Reg;
    use std::sync::atomic::AtomicU64;

    struct Doubler {
        v: Reg<u32>,
        ledger: ActivityLedger,
    }

    impl Clocked for Doubler {
        fn eval(&mut self) {
            self.v.set_next(self.v.q().wrapping_mul(2).wrapping_add(1));
        }
        fn commit(&mut self) {
            self.v.clock(&mut self.ledger);
        }
    }

    fn make(n: usize) -> Vec<Doubler> {
        (0..n)
            .map(|i| Doubler {
                v: Reg::new(i as u32),
                ledger: ActivityLedger::new(),
            })
            .collect()
    }

    fn run(components: &mut [Doubler], policy: ParPolicy, cycles: usize) {
        for _ in 0..cycles {
            par_step(components, policy);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut seq = make(200);
        let mut par = make(200);
        run(&mut seq, ParPolicy::Sequential, 50);
        run(&mut par, ParPolicy::Threads(4), 50);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.v.q(), b.v.q());
            assert_eq!(a.ledger, b.ledger);
        }
    }

    #[test]
    fn auto_policy_small_is_sequential() {
        assert_eq!(ParPolicy::Auto.lanes_for(10), 1);
        assert_eq!(
            ParPolicy::Auto.lanes_for(ParPolicy::AUTO_SEQUENTIAL_BELOW - 1),
            1,
            "below the dispatch-cost crossover, serial wins"
        );
    }

    #[test]
    fn auto_policy_uses_the_machine_at_the_crossover() {
        // At and past the crossover Auto resolves to the CPU count — which
        // may legitimately be 1 on a single-core machine.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(
            ParPolicy::Auto.lanes_for(ParPolicy::AUTO_SEQUENTIAL_BELOW),
            cores.min(ParPolicy::AUTO_SEQUENTIAL_BELOW)
        );
        assert_eq!(ParPolicy::Auto.lanes_for(10_000), cores);
    }

    #[test]
    fn threads_policy_clamps() {
        assert_eq!(ParPolicy::Threads(16).lanes_for(4), 4);
        assert_eq!(ParPolicy::Threads(0).lanes_for(4), 1);
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut empty: Vec<Doubler> = Vec::new();
        run(&mut empty, ParPolicy::Threads(4), 3);
    }

    #[test]
    fn single_element() {
        let mut one = make(1);
        run(&mut one, ParPolicy::Threads(8), 2);
        // v starts 0: cycle1 -> 1, cycle2 -> 3.
        assert_eq!(one[0].v.q(), 3);
    }

    #[test]
    fn dedicated_pool_processes_every_chunk_shape() {
        let pool = WorkerPool::new(3);
        for len in [0usize, 1, 2, 3, 5, 64, 1000] {
            for lanes in [1usize, 2, 4, 9] {
                let mut xs = vec![0u32; len];
                pool.for_each_mut(&mut xs, lanes, |x| *x += 1);
                assert!(xs.iter().all(|&x| x == 1), "len={len} lanes={lanes}");
            }
        }
    }

    #[test]
    fn indexed_dispatch_covers_every_index_once() {
        let pool = WorkerPool::new(3);
        for len in [0usize, 1, 2, 7, 64, 333] {
            for lanes in [1usize, 2, 4, 9] {
                let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
                pool.for_each_index(len, lanes, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "len={len} lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn small_dispatches_on_a_larger_pool_do_not_race() {
        // Regression (PR 3 shape): a dispatch with fewer blocks than
        // workers wakes threads that will find nothing to claim. They must
        // park again cleanly — never touch a retired job — even when they
        // get scheduled only after the dispatcher finished and removed the
        // job from the registry. The idle gaps give late wakers time to
        // run after cleanup.
        let pool = WorkerPool::new(3);
        let mut xs = vec![0u64; 2];
        for i in 0..500 {
            pool.for_each_mut(&mut xs, 2, |x| *x += 1);
            if i % 50 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert!(xs.iter().all(|&x| x == 500));
    }

    #[test]
    fn join_on_a_larger_pool_does_not_race() {
        // Same shape as HybridFabric's par_join: 2 blocks on a pool with
        // more than one worker, repeated with gaps.
        let pool = WorkerPool::new(3);
        let (mut a, mut b) = (0u64, 0u64);
        for i in 0..500 {
            pool.join(|| a += 1, || b += 1);
            if i % 50 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert_eq!((a, b), (500, 500));
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        // The whole point of persistence: thousands of cheap dispatches on
        // the same parked workers (one per simulated cycle in real use).
        let pool = WorkerPool::new(2);
        let mut xs = vec![0u64; 128];
        for _ in 0..2_000 {
            pool.for_each_mut(&mut xs, 3, |x| *x += 1);
        }
        assert!(xs.iter().all(|&x| x == 2_000));
    }

    #[test]
    fn join_runs_both_sides() {
        let pool = WorkerPool::new(1);
        let mut a = 0u32;
        let mut b = 0u32;
        pool.join(|| a = 7, || b = 9);
        assert_eq!((a, b), (7, 9));
    }

    #[test]
    fn steal_under_contention_drains_unbalanced_queues() {
        // Stress the steal path: lane 0's blocks are much heavier than the
        // rest, so finished lanes must steal from lane 0's queue for the
        // dispatch to complete in bounded time — and every element must
        // still be touched exactly once.
        let pool = WorkerPool::new(3);
        let mut xs = vec![0u64; 256];
        for _ in 0..50 {
            pool.for_each_mut(&mut xs, 4, |x| {
                if *x % 7 == 0 {
                    std::thread::yield_now();
                }
                *x += 1;
            });
        }
        assert!(xs.iter().all(|&x| x == 50));
    }

    #[test]
    fn concurrent_dispatchers_share_the_pool() {
        // Two threads dispatching at once: with the job registry neither
        // serialises on the other, workers drain both jobs, and each
        // dispatch still acts as a barrier for its own items.
        let pool = Arc::new(WorkerPool::new(2));
        let other = Arc::clone(&pool);
        let handle = std::thread::spawn(move || {
            let mut ys = vec![0u64; 512];
            for _ in 0..200 {
                other.for_each_mut(&mut ys, 3, |y| *y += 1);
            }
            ys
        });
        let mut xs = vec![0u64; 512];
        for _ in 0..200 {
            pool.for_each_mut(&mut xs, 3, |x| *x += 1);
        }
        let ys = handle.join().expect("dispatcher thread");
        assert!(xs.iter().all(|&x| x == 200));
        assert!(ys.iter().all(|&y| y == 200));
    }

    #[test]
    fn nested_dispatch_shares_the_pool() {
        // A pool task that itself fans out publishes a child job on the
        // same pool — no deadlock, and the nested dispatcher drains the
        // child before returning.
        let pool = WorkerPool::new(2);
        let mut outer = vec![vec![0u8; 100]; 4];
        pool.for_each_mut(&mut outer, 3, |inner| {
            par_for_each_mut(inner, ParPolicy::Threads(4), |x| *x += 1);
        });
        assert!(outer.iter().flatten().all(|&x| x == 1));
    }

    #[test]
    fn nested_join_completes_both_levels() {
        let pool = WorkerPool::new(1);
        let mut results = [0u32; 2];
        let (left, right) = results.split_at_mut(1);
        pool.join(
            || {
                let mut inner = (0u32, 0u32);
                WorkerPool::global().join(|| inner.0 = 1, || inner.1 = 2);
                left[0] = inner.0 + inner.1;
            },
            || right[0] = 5,
        );
        assert_eq!(results, [3, 5]);
    }

    #[test]
    fn nested_small_dispatch_short_circuits_before_cpu_count() {
        // Satellite regression: a par_join (or any dispatch) nested inside
        // a pool task over fewer than AUTO_SEQUENTIAL_BELOW components must
        // resolve to sequential from the length alone — left side first,
        // deterministically — rather than consulting machine-wide state.
        // `lanes_for` short-circuits on `len` before its Auto arm reads the
        // cached CPU count, so the nested fork is inline on every machine.
        assert_eq!(
            ParPolicy::Auto.lanes_for(ParPolicy::AUTO_SEQUENTIAL_BELOW - 1),
            1
        );
        let pool = WorkerPool::new(2);
        let order = Mutex::new(Vec::new());
        pool.join(
            || {
                // Nested join over a tiny plane: must run inline, in order.
                par_join(
                    ParPolicy::Auto,
                    ParPolicy::AUTO_SEQUENTIAL_BELOW - 1,
                    || order.lock().unwrap().push("inner-left"),
                    || order.lock().unwrap().push("inner-right"),
                );
            },
            || {},
        );
        let seen = order.lock().unwrap().clone();
        assert_eq!(seen, vec!["inner-left", "inner-right"]);
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut xs = vec![0u32; 8];
            pool.for_each_mut(&mut xs, 2, |x| {
                if *x == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // And the pool survives for the next dispatch.
        let mut xs = vec![1u32; 8];
        pool.for_each_mut(&mut xs, 2, |x| *x += 1);
        assert!(xs.iter().all(|&x| x == 2));
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        // The dispatcher must re-raise the worker's original payload, not
        // a generic "a worker panicked" assertion, so real failures keep
        // their message.
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut xs = vec![0u32, 1];
            pool.for_each_mut(&mut xs, 2, |x| {
                if *x == 1 {
                    panic!("router 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("router 7 exploded"), "payload lost: {msg:?}");
        // And the pool survives for the next dispatch.
        let mut xs = vec![1u32; 8];
        pool.for_each_mut(&mut xs, 2, |x| *x += 1);
        assert!(xs.iter().all(|&x| x == 2));
    }

    #[test]
    fn panic_under_stealing_still_completes_other_blocks() {
        // A panic in one stolen block must not wedge the dispatch or lose
        // the payload, even while other lanes keep claiming blocks.
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut xs = vec![0u32; 64];
                xs[37] = 1;
                pool.for_each_mut(&mut xs, 4, |x| {
                    if *x == 1 {
                        panic!("block 37 exploded");
                    }
                    *x += 2;
                });
            }));
            assert!(result.is_err(), "panic must propagate every iteration");
        }
        // Pool still healthy afterwards.
        let mut xs = vec![0u32; 64];
        pool.for_each_mut(&mut xs, 4, |x| *x += 1);
        assert!(xs.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_join_sequential_policy_runs_inline() {
        let order = Mutex::new(Vec::new());
        par_join(
            ParPolicy::Sequential,
            1_000,
            || order.lock().unwrap().push(1),
            || order.lock().unwrap().push(2),
        );
        assert_eq!(*order.lock().unwrap(), vec![1, 2], "left runs first");
    }

    #[test]
    fn par_join_parallel_policy_runs_both() {
        let mut a = 0;
        let mut b = 0;
        par_join(ParPolicy::Threads(2), 1_000, || a = 1, || b = 2);
        assert_eq!((a, b), (1, 2));
    }
}
