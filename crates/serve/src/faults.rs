//! Deterministic fault injection for the serving pipeline.
//!
//! [`Faults`] is a budget sheet of faults to inject at fixed, named points
//! of the pipeline (plan build, batch execute, batcher pop, submit). Each
//! fault is armed by the test as a countdown; the pipeline consumes one
//! unit per injection point, so a test that arms `refuse_next_allocs(2)`
//! knows *exactly* which two plan builds will see a refused allocation —
//! no randomness, no timing dependence.
//!
//! Only compiled under `cfg(any(test, feature = "chaos"))`; release
//! builds without the `chaos` feature carry none of these branches (the
//! [`crate::server`] hooks compile to constant `false`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The longest [`Faults::hold_queue`] keeps the batcher waiting, so a hold
/// that is never released delays the pipeline but cannot hang it.
const QUEUE_HOLD_MAX: Duration = Duration::from_secs(10);

/// A countdown budget of injectable faults, shared with a server via
/// [`crate::Server::with_faults`]. All methods are callable concurrently
/// with serving traffic.
#[derive(Debug, Default)]
pub struct Faults {
    refuse_allocs: AtomicUsize,
    panic_batches: AtomicUsize,
    kill_workers: AtomicUsize,
    poison_submits: AtomicUsize,
    slow_kernel_ms: AtomicU64,
    stall_queue_ms: AtomicU64,
    hold_queue: AtomicBool,
    injected: AtomicUsize,
}

impl Faults {
    /// A sheet with every budget at zero (no faults fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// The next `n` plan builds report a refused scratch allocation
    /// (`Error::ScratchAlloc`), exercising retry-with-backoff and, once
    /// retries are exhausted, the minimal-schedule degradation path.
    pub fn refuse_next_allocs(&self, n: usize) {
        self.refuse_allocs.fetch_add(n, Ordering::AcqRel);
    }

    /// The next `n` batch executions panic before touching the kernel,
    /// exercising panic isolation (peers re-run individually).
    pub fn panic_next_batches(&self, n: usize) {
        self.panic_batches.fetch_add(n, Ordering::AcqRel);
    }

    /// Before each of the next `n` batch executions, one pool worker of
    /// the executing shard is killed, exercising eager respawn under
    /// load.
    pub fn kill_worker_before_next_batches(&self, n: usize) {
        self.kill_workers.fetch_add(n, Ordering::AcqRel);
    }

    /// The next `n` *submitted* requests are poisoned: any batch carrying
    /// one panics, and on the isolation re-run only the poisoned request
    /// itself panics — its peers must complete.
    pub fn poison_next_submits(&self, n: usize) {
        self.poison_submits.fetch_add(n, Ordering::AcqRel);
    }

    /// Every batch execution sleeps `ms` milliseconds first (a slow
    /// kernel), until reset to 0. Used to pile up the queue for
    /// backpressure and mid-queue-expiry scenarios.
    pub fn slow_kernels_ms(&self, ms: u64) {
        self.slow_kernel_ms.store(ms, Ordering::Release);
    }

    /// The batcher stalls `ms` milliseconds once before its next pop (a
    /// queue stall). Bounded by construction, so a stall can delay but
    /// never hang the pipeline.
    pub fn stall_queue_once_ms(&self, ms: u64) {
        self.stall_queue_ms.store(ms, Ordering::Release);
    }

    /// The batcher waits before its next pop until
    /// [`Faults::release_queue`], so every request submitted meanwhile is
    /// queued when it pops: the batch it forms does not depend on timing.
    /// Armed before [`crate::Server::with_faults`], the hold comes before
    /// the batcher's first pop.
    pub fn hold_queue(&self) {
        self.hold_queue.store(true, Ordering::Release);
    }

    /// Ends a [`Faults::hold_queue`].
    pub fn release_queue(&self) {
        self.hold_queue.store(false, Ordering::Release);
    }

    /// How many faults have actually fired so far (tests assert their
    /// injection really happened).
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Acquire)
    }

    fn take(&self, budget: &AtomicUsize) -> bool {
        let took = budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok();
        if took {
            self.injected.fetch_add(1, Ordering::AcqRel);
        }
        took
    }

    pub(crate) fn take_refused_alloc(&self) -> bool {
        self.take(&self.refuse_allocs)
    }

    pub(crate) fn take_panic_batch(&self) -> bool {
        self.take(&self.panic_batches)
    }

    pub(crate) fn take_kill_worker(&self) -> bool {
        self.take(&self.kill_workers)
    }

    pub(crate) fn take_poison_submit(&self) -> bool {
        self.take(&self.poison_submits)
    }

    pub(crate) fn kernel_delay(&self) -> Option<Duration> {
        match self.slow_kernel_ms.load(Ordering::Acquire) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    pub(crate) fn wait_while_held(&self) {
        if !self.hold_queue.load(Ordering::Acquire) {
            return;
        }
        self.injected.fetch_add(1, Ordering::AcqRel);
        let start = Instant::now();
        while self.hold_queue.load(Ordering::Acquire) && start.elapsed() < QUEUE_HOLD_MAX {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub(crate) fn take_queue_stall(&self) -> Option<Duration> {
        match self.stall_queue_ms.swap(0, Ordering::AcqRel) {
            0 => None,
            ms => {
                self.injected.fetch_add(1, Ordering::AcqRel);
                Some(Duration::from_millis(ms))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_count_down_to_zero() {
        let f = Faults::new();
        assert!(!f.take_refused_alloc(), "unarmed budget never fires");
        f.refuse_next_allocs(2);
        assert!(f.take_refused_alloc());
        assert!(f.take_refused_alloc());
        assert!(!f.take_refused_alloc(), "budget exhausted");
        assert_eq!(f.injected(), 2);
    }

    #[test]
    fn hold_waits_for_release() {
        let f = std::sync::Arc::new(Faults::new());
        f.wait_while_held();
        assert_eq!(f.injected(), 0, "an unarmed hold returns at once");
        f.hold_queue();
        let waiter = {
            let f = std::sync::Arc::clone(&f);
            std::thread::spawn(move || f.wait_while_held())
        };
        while f.injected() == 0 {
            std::thread::yield_now();
        }
        assert!(!waiter.is_finished(), "held until released");
        f.release_queue();
        waiter.join().expect("released");
    }

    #[test]
    fn stall_is_one_shot() {
        let f = Faults::new();
        assert_eq!(f.take_queue_stall(), None);
        f.stall_queue_once_ms(7);
        assert_eq!(f.take_queue_stall(), Some(Duration::from_millis(7)));
        assert_eq!(f.take_queue_stall(), None, "consumed");
    }

    #[test]
    fn slow_kernel_persists_until_reset() {
        let f = Faults::new();
        f.slow_kernels_ms(3);
        assert_eq!(f.kernel_delay(), Some(Duration::from_millis(3)));
        assert_eq!(f.kernel_delay(), Some(Duration::from_millis(3)));
        f.slow_kernels_ms(0);
        assert_eq!(f.kernel_delay(), None);
    }
}
