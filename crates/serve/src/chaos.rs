//! Deterministic fault injection for the serving layer.
//!
//! A [`ChaosPlan`] is a **seeded schedule** of faults keyed on the
//! server-wide flush counter: "panic the worker scoring flush N", "stall
//! the worker scoring flush M for P milliseconds".  Handing the plan to
//! [`crate::Server::spawn_chaotic`] turns a server into its own fault
//! drill — the supervision layer (`DESIGN.md` §13) must fail the affected
//! batch's tickets with [`crate::ServeError::WorkerFailed`], restart the
//! worker, and keep every *other* ticket's answer bit-identical to a
//! fault-free run.
//!
//! Faults trigger **before** scoring, after the batch has been drained
//! and the snapshot resolved, which is the widest-blast-radius instant:
//! the in-flight batch is lost to the panic and must be failed (not
//! hung), while the queue itself — guarded by locks the fault never holds
//! — stays consistent for the restarted worker.
//!
//! [`ChaosPlan::seeded`] drives the combined soak in the crate's `chaos`
//! integration tests, where it is paired with corrupt-snapshot restores
//! ([`crate::SnapshotStore::flip_stored_bit`]) and class-memory bit flips
//! (`DeployedModel::inject_faults`).  Everything is keyed off one `u64`
//! seed, so a failing chaos run is replayable bit-for-bit.

use disthd_linalg::{RngSeed, SeededRng};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A deterministic schedule of injected worker faults, keyed on the
/// server-wide flush counter.
///
/// # Example
///
/// ```
/// use disthd_serve::ChaosPlan;
/// use std::time::Duration;
///
/// // Panic whichever worker claims flush 3; stall flush 5 for 10 ms.
/// let plan = ChaosPlan::panic_at_flushes(&[3])
///     .and_stalls(&[(5, Duration::from_millis(10))]);
/// assert!(plan.is_armed());
/// plan.disarm(); // end of the drill: behave like a fault-free server
/// assert!(!plan.is_armed());
/// ```
#[derive(Debug, Default)]
pub struct ChaosPlan {
    /// Flush numbers whose scoring pass panics.
    panics: Vec<u64>,
    /// Flush numbers whose scoring pass first sleeps (slow-worker stall).
    stalls: Vec<(u64, Duration)>,
    /// Once set, the plan injects nothing more (soak drills disarm before
    /// measuring the post-chaos baseline).
    disarmed: AtomicBool,
}

impl ChaosPlan {
    /// A plan that injects nothing — what [`crate::Server::spawn_with`]
    /// runs under.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan that panics the worker scoring each listed flush number.
    pub fn panic_at_flushes(flushes: &[u64]) -> Self {
        Self {
            panics: flushes.to_vec(),
            ..Self::default()
        }
    }

    /// Adds slow-worker stalls: the worker scoring flush `n` first sleeps
    /// for the paired duration.
    pub fn and_stalls(mut self, stalls: &[(u64, Duration)]) -> Self {
        self.stalls.extend_from_slice(stalls);
        self
    }

    /// Derives a schedule of `panics` worker panics and `stalls` stalls
    /// (each sleeping `pause`), uniformly over the first `horizon` flushes,
    /// from `seed`.  Same seed, same schedule — a failing soak is
    /// replayable bit-for-bit.
    pub fn seeded(seed: u64, horizon: u64, panics: usize, stalls: usize, pause: Duration) -> Self {
        let horizon = horizon.max(1);
        let mut panic_rng = SeededRng::derive_stream(RngSeed(seed), 0);
        let mut stall_rng = SeededRng::derive_stream(RngSeed(seed), 1);
        let mut panic_at: Vec<u64> = (0..panics)
            .map(|_| panic_rng.next_u64() % horizon)
            .collect();
        panic_at.sort_unstable();
        panic_at.dedup();
        let mut stall_at: Vec<u64> = (0..stalls)
            .map(|_| stall_rng.next_u64() % horizon)
            .collect();
        stall_at.sort_unstable();
        stall_at.dedup();
        Self {
            panics: panic_at,
            stalls: stall_at.into_iter().map(|at| (at, pause)).collect(),
            disarmed: AtomicBool::new(false),
        }
    }

    /// Stops injecting: every fault still pending in the schedule is
    /// skipped from now on.  The soak drill calls this before measuring
    /// its post-chaos baseline, which must match a fault-free run.
    pub fn disarm(&self) {
        self.disarmed.store(true, Ordering::Release);
    }

    /// Whether the plan is still live (has faults and was not disarmed).
    pub fn is_armed(&self) -> bool {
        let has_faults = !self.panics.is_empty() || !self.stalls.is_empty();
        has_faults && !self.disarmed.load(Ordering::Acquire)
    }

    /// Fault gate, called by the serve worker after claiming flush number
    /// `flush` and immediately before scoring it.
    pub(crate) fn before_score(&self, flush: u64) {
        if self.disarmed.load(Ordering::Acquire) {
            return;
        }
        if let Some(&(_, pause)) = self.stalls.iter().find(|&&(at, _)| at == flush) {
            std::thread::sleep(pause);
        }
        if self.panics.contains(&flush) {
            // resume_unwind skips the global panic hook: an injected fault
            // is part of the drill, not a bug worth a backtrace in logs.
            resume_unwind(Box::new("chaos injected panic"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = ChaosPlan::seeded(42, 100, 5, 3, Duration::from_millis(1));
        let b = ChaosPlan::seeded(42, 100, 5, 3, Duration::from_millis(1));
        assert_eq!(a.panics, b.panics);
        assert_eq!(a.stalls, b.stalls);
        assert!(a.panics.iter().all(|&f| f < 100));
        assert!(a.stalls.iter().all(|&(f, _)| f < 100));
        assert!(a.is_armed());
        let c = ChaosPlan::seeded(43, 100, 5, 3, Duration::from_millis(1));
        assert_ne!(a.panics, c.panics, "different seeds, different schedules");
    }

    #[test]
    fn disarmed_plans_inject_nothing() {
        let plan = ChaosPlan::panic_at_flushes(&[0]);
        plan.disarm();
        assert!(!plan.is_armed());
        plan.before_score(0); // must not panic
        assert!(!ChaosPlan::none().is_armed());
        ChaosPlan::none().before_score(0);
    }

    #[test]
    fn armed_panic_flush_unwinds() {
        let plan = ChaosPlan::panic_at_flushes(&[7]);
        plan.before_score(6); // off-schedule: nothing
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.before_score(7)));
        assert!(caught.is_err());
    }
}
