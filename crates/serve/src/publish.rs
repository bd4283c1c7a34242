//! Epoch-based snapshot publication: hot-swap that never blocks a reader.
//!
//! The server's scoring workers and its control plane (hot-swap,
//! install, rollback) communicate through a [`PublishedModel`]: an
//! [`Arc`]-wrapped immutable deployment plus a monotonically increasing
//! **epoch** counter.  Writers build a complete replacement generation off
//! to the side, store the new `Arc`, then bump the epoch (release order).
//! Readers hold their own cached `Arc` and, at every **batch boundary**,
//! perform one atomic epoch load (acquire order): if the epoch is
//! unchanged — the overwhelmingly common case — the cached snapshot is
//! reused without touching any lock; only on an actual generation change
//! does the reader take the brief pointer-swap lock to clone the new
//! `Arc`.
//!
//! The consequences this module exists for:
//!
//! * **Writers never block readers' scoring.**  The mutex guards only the
//!   pointer-sized `Arc` clone/store, never a GEMM; an in-flight batch
//!   keeps scoring its own `Arc` and cannot observe the swap.
//! * **A batch never tears.**  A worker resolves its snapshot exactly once
//!   per batch and scores every row of the batch against that one
//!   generation; the retired generation stays alive (refcounted) until the
//!   last in-flight batch drops it.
//! * **A publication is visible by the next batch.**  [`PublishedModel::
//!   publish`] returns only after the epoch bump, and the bump
//!   happens-before any subsequent boundary check that observes it, so
//!   every batch whose boundary check runs after `publish` returns scores
//!   the new (or a newer) generation.

use disthd::DeployedModel;
use disthd_eval::ModelError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The publication cell: one live deployment generation plus its epoch.
///
/// # Example
///
/// ```
/// use disthd_serve::PublishedModel;
///
/// let published = PublishedModel::new(disthd_serve::testkit::tiny_deployment());
/// let mut reader = published.reader();
/// let before = reader.snapshot().clone();
///
/// // No publication yet: the boundary check is one atomic load, no lock.
/// assert!(!reader.refresh());
///
/// // Publish a new generation; the next boundary check picks it up.
/// published.publish(before.as_ref().clone());
/// assert!(reader.refresh());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PublishedModel {
    /// Generation counter; bumped (release) *after* the `Arc` store so a
    /// reader that observes the new epoch (acquire) always finds at least
    /// that generation behind the lock.
    epoch: AtomicU64,
    /// The live generation.  The lock spans only `Arc` clone/store — the
    /// deployment behind it is immutable and scored outside the lock.
    current: Mutex<Arc<DeployedModel>>,
}

impl PublishedModel {
    /// Wraps `model` as generation 0.
    pub fn new(model: DeployedModel) -> Self {
        Self {
            epoch: AtomicU64::new(0),
            current: Mutex::new(Arc::new(model)),
        }
    }

    /// The current publication epoch (acquire).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the live generation together with the epoch it was (at
    /// latest) published under.
    pub fn load(&self) -> (u64, Arc<DeployedModel>) {
        // Epoch first: the snapshot read afterwards is *at least* as new as
        // this epoch, so a reader caching the pair can only err towards one
        // redundant refresh, never a stale miss.
        let epoch = self.epoch.load(Ordering::Acquire);
        let model = Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()));
        (epoch, model)
    }

    /// Publishes `model` as the next generation and returns its epoch.
    /// In-flight readers are untouched; every batch-boundary check after
    /// this returns observes the new generation.
    pub fn publish(&self, model: DeployedModel) -> u64 {
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *current = Arc::new(model);
        // Bump under the lock so concurrent writers' (store, bump) pairs
        // cannot interleave; release pairs with readers' acquire loads.
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Atomically derives the next generation from the live one and
    /// publishes it — the read-modify-write path hot-swapping a class
    /// memory needs so two concurrent swappers cannot lose each other's
    /// update.
    ///
    /// # Errors
    ///
    /// Propagates the derivation's error; nothing is published on failure.
    pub fn publish_with(
        &self,
        derive: impl FnOnce(&DeployedModel) -> Result<DeployedModel, ModelError>,
    ) -> Result<u64, ModelError> {
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let next = derive(current.as_ref())?;
        *current = Arc::new(next);
        Ok(self.epoch.fetch_add(1, Ordering::Release) + 1)
    }

    /// Creates a reader with its own cached generation, primed to the
    /// current publication.
    pub fn reader(&self) -> ModelReader<'_> {
        let (epoch, model) = self.load();
        ModelReader {
            published: self,
            epoch,
            model,
        }
    }
}

/// A scoring worker's view of a [`PublishedModel`]: a cached `Arc` plus
/// the epoch it was loaded at.  Call [`ModelReader::refresh`] at every
/// batch boundary; score the whole batch against [`ModelReader::snapshot`].
#[derive(Debug)]
pub struct ModelReader<'a> {
    published: &'a PublishedModel,
    epoch: u64,
    model: Arc<DeployedModel>,
}

impl ModelReader<'_> {
    /// The batch-boundary check: one atomic acquire load when nothing was
    /// published (the steady state — no lock is touched), one brief
    /// pointer-clone lock when a new generation is live.  Returns whether
    /// the cached snapshot changed.
    pub fn refresh(&mut self) -> bool {
        if self.published.epoch() == self.epoch {
            return false;
        }
        let (epoch, model) = self.published.load();
        self.epoch = epoch;
        self.model = model;
        true
    }

    /// The cached generation every row of the current batch scores
    /// against.  Stable between [`ModelReader::refresh`] calls — this is
    /// what makes a batch impossible to tear.
    pub fn snapshot(&self) -> &Arc<DeployedModel> {
        &self.model
    }

    /// The epoch the cached snapshot was loaded at — what a chaos drill
    /// compares against [`PublishedModel::epoch`] to prove a restarted
    /// worker resumed on a published (never torn) generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use disthd_hd::quantize::QuantizedMatrix;
    use disthd_linalg::Matrix;

    #[test]
    fn refresh_is_a_no_op_until_something_is_published() {
        let published = PublishedModel::new(testkit::tiny_deployment());
        let mut reader = published.reader();
        let before = Arc::clone(reader.snapshot());
        assert!(!reader.refresh());
        assert!(Arc::ptr_eq(reader.snapshot(), &before));
        assert_eq!(published.epoch(), 0);
    }

    #[test]
    fn publish_is_visible_at_the_next_boundary_and_bumps_the_epoch() {
        let published = PublishedModel::new(testkit::tiny_deployment());
        let mut reader = published.reader();
        let old = Arc::clone(reader.snapshot());
        let epoch = published.publish(testkit::tiny_deployment());
        assert_eq!(epoch, 1);
        assert!(reader.refresh());
        assert!(!Arc::ptr_eq(reader.snapshot(), &old));
        // The retired generation is still alive for in-flight batches.
        assert!(old.class_count() > 0);
        assert!(!reader.refresh(), "second boundary check is steady-state");
    }

    #[test]
    fn publish_with_derives_from_the_live_generation() {
        let published = PublishedModel::new(testkit::tiny_deployment());
        let (k, dim) = {
            let (_, model) = published.load();
            let (k, dim) = model.memory_parts().shape();
            (k, dim)
        };
        let width = published.load().1.width();
        let constant = QuantizedMatrix::quantize(&Matrix::filled(k, dim, 1.0), width);
        published
            .publish_with(|live| live.with_swapped_memory(constant))
            .unwrap();
        assert_eq!(published.epoch(), 1);
        // A failed derivation publishes nothing.
        let wrong = QuantizedMatrix::quantize(&Matrix::zeros(k + 1, dim), width);
        assert!(published
            .publish_with(|live| live.with_swapped_memory(wrong))
            .is_err());
        assert_eq!(published.epoch(), 1);
    }

    #[test]
    fn concurrent_publishers_and_readers_never_see_a_torn_generation() {
        let published = PublishedModel::new(testkit::tiny_deployment());
        let query = testkit::tiny_queries(1).remove(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        published.publish(testkit::tiny_deployment());
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    let mut reader = published.reader();
                    for _ in 0..200 {
                        reader.refresh();
                        // Each snapshot is a complete, scorable deployment.
                        let class = reader.snapshot().predict(&query).unwrap();
                        assert!(class < reader.snapshot().class_count());
                    }
                });
            }
        });
        assert_eq!(published.epoch(), 100);
    }
}
