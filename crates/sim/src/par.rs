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
//! Fan-out is **one level deep**. A dispatch splits its index range into
//! blocks, deals the blocks into one queue per lane and publishes the job in
//! the pool's single slot; every participant — workers *and* the dispatching
//! thread — drains its own queue first and steals from the fullest other
//! queue of that job when its own runs dry. The dispatcher returns when the
//! job's last block completes, which is the barrier the clocking contract
//! needs. A dispatch made while the calling thread runs a pool block, or
//! while another thread's job holds the slot, runs inline on the calling
//! thread: a composite fabric forks once at its own grain (the hybrid's two
//! planes, a chiplet grid's planes, a fleet's tenants) and steps everything
//! beneath one block on that block's thread.
//!
//! **Determinism:** the block → index mapping is a pure function of the
//! length and lane count, every index is executed exactly once, and blocks
//! write disjoint state — so results are bit-identical under every policy,
//! every steal schedule and on the inline path, enforced by the determinism
//! suites.
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
use std::cell::Cell;
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
    /// clamps to its own size (e.g. [`WorkerPool::global`]) and runs a
    /// nested or contended dispatch inline, so `n` is an upper bound, not a
    /// guarantee.
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
    /// CPU count, so a small plane never faults in machine-wide state.
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

/// The pool's one job slot.
struct Slot {
    job: Option<Arc<JobCore>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers park here while the slot holds no unclaimed block.
    work: Condvar,
    /// The dispatcher parks here while its job's stragglers finish.
    done: Condvar,
}

/// Lock the slot, shrugging off poison: blocks run outside the lock, so a
/// panicking task can never leave the slot inconsistent.
fn lock_slot(shared: &Shared) -> MutexGuard<'_, Slot> {
    shared
        .slot
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    /// Set while this thread runs pool blocks (always, on a worker): a
    /// dispatch from such a thread runs inline, keeping fan-out one level
    /// deep.
    static IN_BLOCK: Cell<bool> = const { Cell::new(false) };
}

/// A persistent pool of parked worker threads with work-stealing dispatch.
///
/// Workers are spawned once (at construction) and live until the pool is
/// dropped. A dispatch publishes a job (per-lane block queues) in the
/// pool's one slot and the dispatching thread helps drain it; parked
/// workers wake and drain it too, stealing across its queues when their
/// own runs dry. The dispatcher returns only when its job's last block has
/// finished, so a dispatch is still a barrier from the caller's view. A
/// dispatch from inside a pool block, or while another thread's job holds
/// the slot, runs inline on the calling thread.
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
            slot: Mutex::new(Slot {
                job: None,
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
        let lanes = lanes.clamp(1, self.workers + 1).min(len);
        if lanes <= 1 {
            items.iter_mut().for_each(f);
            return;
        }
        let blocks = (lanes * Self::BLOCKS_PER_LANE).min(len);
        let grain = len.div_ceil(blocks);
        let base = SendPtr(items.as_mut_ptr());
        let task = move |block: usize| {
            let base = base;
            for i in block * grain..((block + 1) * grain).min(len) {
                // SAFETY: each block runs exactly once per dispatch and the
                // blocks' index ranges are disjoint, so the &mut views are
                // too; the dispatch barrier keeps the caller's &mut [T]
                // borrow alive until all blocks finish.
                f(unsafe { &mut *base.0.add(i) });
            }
        };
        self.dispatch(blocks, lanes, &task);
    }

    /// Publish `task` as a job of `blocks` blocks over `lanes` queues, help
    /// drain it, and return once every block has finished. Runs the blocks
    /// inline, in order, when the calling thread is inside a pool block or
    /// another thread's job holds the slot.
    fn dispatch(&self, blocks: usize, lanes: usize, task: &(dyn Fn(usize) + Sync)) {
        if IN_BLOCK.get() {
            (0..blocks).for_each(task);
            return;
        }
        // SAFETY: lifetime erasure. The barrier below keeps `task` alive
        // for as long as any thread can still claim one of its blocks —
        // dispatch does not return until `pending` hits zero.
        let job = Arc::new(JobCore::new(unsafe { erase(task) }, blocks, lanes));
        {
            let mut slot = lock_slot(&self.shared);
            if slot.job.is_some() {
                drop(slot);
                (0..blocks).for_each(task);
                return;
            }
            slot.job = Some(Arc::clone(&job));
            self.shared.work.notify_all();
        }
        // Help-first: drain our own queue (stealing within the job when it
        // runs dry), then wait for stragglers.
        IN_BLOCK.set(true);
        while let Some(b) = job.claim(0) {
            run_block(&job, b, &self.shared);
        }
        IN_BLOCK.set(false);
        {
            let mut slot = lock_slot(&self.shared);
            while job.pending.load(Ordering::Acquire) > 0 {
                slot = self
                    .shared
                    .done
                    .wait(slot)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            slot.job = None;
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
            let mut slot = lock_slot(&self.shared);
            slot.shutdown = true;
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
        // slot lock orders this notify after its wait begins.
        let _slot = lock_slot(shared);
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
    IN_BLOCK.set(true);
    loop {
        let job = {
            let mut slot = lock_slot(shared);
            loop {
                if slot.shutdown {
                    return;
                }
                if let Some(job) = slot.job.as_ref().filter(|j| j.has_work()) {
                    break Arc::clone(job);
                }
                slot = shared
                    .work
                    .wait(slot)
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
    par_for_each_sized(items, policy, items.len(), f);
}

/// [`par_for_each_mut`] with `policy` resolved for `work` components
/// instead of for the element count: a composite fabric forks its planes
/// this way, sized by the router count behind them, so
/// [`ParPolicy::Auto`] judges the fork by the work it carries. There are
/// never more lanes than elements.
pub fn par_for_each_sized<T, F>(items: &mut [T], policy: ParPolicy, work: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let lanes = policy.lanes_for(work).min(items.len());
    if lanes <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    WorkerPool::global().for_each_mut(items, lanes, f);
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
    use std::thread::ThreadId;

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
    fn small_dispatches_on_a_larger_pool_do_not_race() {
        // Regression (PR 3 shape): a dispatch with fewer blocks than
        // workers wakes threads that will find nothing to claim. They must
        // park again cleanly — never touch a retired job — even when they
        // get scheduled only after the dispatcher finished and cleared the
        // job from the slot. The idle gaps give late wakers time to
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
    fn contended_dispatch_completes_inline() {
        // Two threads dispatching at once on one pool: whichever finds the
        // slot taken runs its dispatch inline instead of waiting for it,
        // and each dispatch still acts as a barrier for its own items.
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
    fn nested_dispatch_completes_inline() {
        // A pool task that itself fans out runs that dispatch inline — no
        // deadlock, and every inner element is touched exactly once.
        let pool = WorkerPool::new(2);
        let mut outer = vec![vec![0u8; 100]; 4];
        pool.for_each_mut(&mut outer, 3, |inner| {
            par_for_each_mut(inner, ParPolicy::Threads(4), |x| *x += 1);
        });
        assert!(outer.iter().flatten().all(|&x| x == 1));
    }

    #[test]
    fn nested_dispatch_stays_on_the_blocks_own_thread() {
        // One level of fan-out: a dispatch nested in a pool block (here on
        // the global pool, inside a dedicated pool's block) touches every
        // element on the thread running that block, whatever the host. The
        // sleeps give a published inner job's workers time to steal.
        let pool = WorkerPool::new(2);
        let mut outer: Vec<(Option<ThreadId>, Vec<Option<ThreadId>>)> =
            vec![(None, vec![None; 64]); 8];
        pool.for_each_mut(&mut outer, 3, |(block, inner)| {
            *block = Some(std::thread::current().id());
            par_for_each_mut(inner, ParPolicy::Threads(4), |x| {
                std::thread::sleep(std::time::Duration::from_micros(20));
                *x = Some(std::thread::current().id());
            });
        });
        for (block, inner) in &outer {
            assert!(block.is_some());
            assert!(inner.iter().all(|x| x == block));
        }
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
}
