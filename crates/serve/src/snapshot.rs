//! Versioned snapshot/rollback store for deployed models.

use disthd::io::{load_deployed, save_deployed, PersistError};
use disthd::DeployedModel;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Errors from the snapshot store.
#[derive(Debug)]
pub enum SnapshotError {
    /// No snapshot with the requested version exists (evicted or never
    /// taken).
    UnknownVersion(u64),
    /// (De)serialization of the underlying `DHD` stream failed (this is
    /// where a checksum mismatch on a bit-flipped blob surfaces).
    Persist(PersistError),
    /// Every retained snapshot failed to deserialize — there is no
    /// last-known-good version to fall back to.
    NoIntactSnapshot,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnknownVersion(v) => write!(f, "no snapshot with version {v}"),
            SnapshotError::Persist(e) => write!(f, "snapshot persistence failed: {e}"),
            SnapshotError::NoIntactSnapshot => {
                write!(f, "no retained snapshot deserializes cleanly")
            }
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Persist(e) => Some(e),
            SnapshotError::UnknownVersion(_) | SnapshotError::NoIntactSnapshot => None,
        }
    }
}

impl From<PersistError> for SnapshotError {
    fn from(e: PersistError) -> Self {
        SnapshotError::Persist(e)
    }
}

/// A bounded, versioned history of model deployments.
///
/// Every [`SnapshotStore::push`] serializes the deployment to the
/// checksummed `DHD` binary format (the exact bytes that would ship to a
/// device — see [`disthd::io`]) and assigns it a monotonically increasing
/// version.  [`SnapshotStore::restore`] deserializes any retained version,
/// which is the rollback path for a live server: restore, then
/// [`crate::ServerClient::install_model`].  Because each blob carries a
/// trailing checksum, a bit-flipped snapshot fails closed on restore;
/// [`SnapshotStore::restore_or_rollback`] then falls back to the most
/// recent intact version instead of leaving the caller torn.  The store
/// keeps at most `capacity` snapshots, evicting the oldest.
///
/// # Example
///
/// ```
/// use disthd_serve::SnapshotStore;
///
/// let deployment = disthd_serve::testkit::tiny_deployment();
/// let mut store = SnapshotStore::new(4);
/// let v0 = store.push(&deployment)?;
/// let v1 = store.push(&deployment)?;
/// assert_eq!((v0, v1), (0, 1));
/// assert_eq!(store.latest(), Some(1));
/// assert_eq!(store.versions(), vec![0, 1]);
///
/// // Roll back: version 0 deserializes to a working deployment.
/// let mut restored = store.restore(v0)?;
/// let query = disthd_serve::testkit::tiny_queries(1).remove(0);
/// assert!(restored.predict(&query)? < restored.class_count());
///
/// // Evicted or never-taken versions are reported by number.
/// assert!(store.restore(99).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SnapshotStore {
    snapshots: VecDeque<(u64, Vec<u8>)>,
    next_version: u64,
    capacity: usize,
}

impl Default for SnapshotStore {
    /// Eight retained snapshots — a derived default would set capacity 0,
    /// i.e. a store that evicts every snapshot on push and can never roll
    /// back.
    fn default() -> Self {
        Self::new(8)
    }
}

impl SnapshotStore {
    /// Creates a store retaining at most `capacity` snapshots (≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            snapshots: VecDeque::new(),
            next_version: 0,
            capacity: capacity.max(1),
        }
    }

    /// Serializes `model` as a new snapshot and returns its version.
    ///
    /// # Errors
    ///
    /// Propagates [`PersistError`] from serialization (out-of-memory is
    /// the only realistic cause for an in-memory sink).
    pub fn push(&mut self, model: &DeployedModel) -> Result<u64, SnapshotError> {
        let mut bytes = Vec::new();
        save_deployed(model, &mut bytes)?;
        let version = self.next_version;
        self.next_version += 1;
        self.snapshots.push_back((version, bytes));
        while self.snapshots.len() > self.capacity {
            self.snapshots.pop_front();
        }
        Ok(version)
    }

    /// Deserializes the snapshot with `version`.
    ///
    /// # Errors
    ///
    /// * [`SnapshotError::UnknownVersion`] if `version` was evicted or
    ///   never taken;
    /// * [`SnapshotError::Persist`] if the stored bytes fail to load.
    pub fn restore(&self, version: u64) -> Result<DeployedModel, SnapshotError> {
        let (_, bytes) = self
            .snapshots
            .iter()
            .find(|(v, _)| *v == version)
            .ok_or(SnapshotError::UnknownVersion(version))?;
        Ok(load_deployed(bytes.as_slice())?)
    }

    /// Restores `version` if it deserializes cleanly; on corruption
    /// (checksum mismatch, truncation, any structural failure) falls back
    /// to the most recent *other* retained snapshot that does, returning
    /// the version actually restored.
    ///
    /// This is the rollback path a supervisor wants when a stored blob may
    /// have rotted: never install a torn model, prefer the requested
    /// version, otherwise serve the last known good one.
    ///
    /// # Errors
    ///
    /// * [`SnapshotError::UnknownVersion`] if `version` was evicted or
    ///   never taken (no fallback is attempted — asking for a version that
    ///   never existed is a caller bug, not corruption);
    /// * [`SnapshotError::NoIntactSnapshot`] if the requested version and
    ///   every fallback candidate fail to deserialize.
    pub fn restore_or_rollback(&self, version: u64) -> Result<(u64, DeployedModel), SnapshotError> {
        match self.restore(version) {
            Ok(model) => Ok((version, model)),
            Err(SnapshotError::UnknownVersion(v)) => Err(SnapshotError::UnknownVersion(v)),
            Err(_) => self
                .snapshots
                .iter()
                .rev()
                .filter(|(v, _)| *v != version)
                .find_map(|(v, bytes)| {
                    load_deployed(bytes.as_slice())
                        .ok()
                        .map(|model| (*v, model))
                })
                .ok_or(SnapshotError::NoIntactSnapshot),
        }
    }

    /// Restores the most recent retained snapshot that deserializes
    /// cleanly, skipping corrupt ones, and returns its version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NoIntactSnapshot`] if the store is empty or every
    /// retained blob fails to load.
    pub fn restore_latest_good(&self) -> Result<(u64, DeployedModel), SnapshotError> {
        self.snapshots
            .iter()
            .rev()
            .find_map(|(v, bytes)| {
                load_deployed(bytes.as_slice())
                    .ok()
                    .map(|model| (*v, model))
            })
            .ok_or(SnapshotError::NoIntactSnapshot)
    }

    /// Flips one bit of the stored blob for `version` (bit `bit` counted
    /// from the blob's first byte, LSB first); returns `false` if the
    /// version is not retained or the bit is out of range.
    ///
    /// This is the **fault drill** used by the chaos harness: it simulates
    /// storage rot on a real snapshot so tests and the soak bin can prove
    /// the corrupt blob is rejected with a named error and
    /// [`SnapshotStore::restore_or_rollback`] serves the last known good
    /// version instead.
    pub fn flip_stored_bit(&mut self, version: u64, bit: usize) -> bool {
        let Some((_, bytes)) = self.snapshots.iter_mut().find(|(v, _)| *v == version) else {
            return false;
        };
        let Some(byte) = bytes.get_mut(bit / 8) else {
            return false;
        };
        *byte ^= 1 << (bit % 8);
        true
    }

    /// Raw `DHD` bytes of a retained snapshot (e.g. to copy to disk or
    /// ship over the network).
    pub fn bytes(&self, version: u64) -> Option<&[u8]> {
        self.snapshots
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, b)| b.as_slice())
    }

    /// Versions currently retained, oldest first.
    pub fn versions(&self) -> Vec<u64> {
        self.snapshots.iter().map(|(v, _)| *v).collect()
    }

    /// The most recent version, if any snapshot was taken.
    pub fn latest(&self) -> Option<u64> {
        self.snapshots.back().map(|(v, _)| *v)
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no snapshot is retained.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}
