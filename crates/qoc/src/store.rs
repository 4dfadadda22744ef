//! Pulse-library storage.
//!
//! One store backs every [`PulseLibrary`](crate::PulseLibrary): a single
//! `Mutex` over a `HashMap` of entries, a logical clock and a running
//! byte total, with an optional byte budget enforced by least-recently-used
//! eviction. Every `get` and `put` stamps the touched entry with the next
//! clock value, so stamps are unique and the eviction order has no ties.
//!
//! One lock is enough: the pipeline only touches the library from its
//! *serial* phases (classification and replay — see the 4-stage scheme in
//! `epoc::pipeline`), and `epocd` compiles one job at a time, so no two
//! threads contend for it.
//!
//! Persistence (load-on-start / save-on-checkpoint) is layered on top in
//! [`crate::library`].
//!
//! # Determinism
//!
//! Because the library is only touched serially, the LRU clock advances
//! in a deterministic order and eviction decisions are byte-identical at
//! any worker count. [`Store::snapshot`] sorts by key, so persisted files
//! are byte-deterministic too.

use crate::library::{CacheKey, KeyPolicy, PulseEntry};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Applies resident-size deltas to the process-global library gauges.
/// Every put and eviction funnels its accounting through here, so
/// `pulse_lib.resident_bytes` / `pulse_lib.entries` stay correct even
/// when several libraries (the GRAPE and model sections of one compiler,
/// or several compilers) share the one telemetry registry — deltas are
/// commutative where absolute sets would clobber each other.
fn gauge_resident(bytes_delta: i64, entries_delta: i64) {
    epoc_rt::telemetry::gauge_add("pulse_lib.resident_bytes", bytes_delta);
    epoc_rt::telemetry::gauge_add("pulse_lib.entries", entries_delta);
}

/// Estimated resident size of one cache entry: the waveform payload
/// (which dominates), the quantized key cells, and a fixed allowance for
/// map/Arc overhead. An estimate is enough — the budget is a resource
/// guard, not an allocator ledger.
pub fn entry_bytes(key: &CacheKey, entry: &PulseEntry) -> u64 {
    let waveform = entry
        .waveform
        .as_ref()
        .map_or(0, |w| (w.n_channels() * w.n_slots() * 8) as u64);
    waveform + (key.cell_count() * 8) as u64 + 96
}

/// Configuration of a library's store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreConfig {
    /// Byte budget of each library (the `grape` and `model` sections of a
    /// compiler budget separately). `Some` caps the resident size with
    /// LRU eviction; `None` grows unbounded.
    pub budget_bytes: Option<u64>,
}

/// A pulse-library persistence failure. Torn, truncated, or otherwise
/// corrupted library files surface here — callers degrade to a cold
/// cache rather than panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// Reading or writing the library file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The file exists but is not a valid library: truncated JSON, a
    /// checksum mismatch (torn write), an unsupported version, or a
    /// malformed entry.
    Corrupt {
        /// The file involved.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The file stores entries for a different key policy than the
    /// library it was loaded into.
    PolicyMismatch {
        /// The loading library's policy.
        expected: KeyPolicy,
        /// The policy named in the file.
        found: String,
    },
    /// The file stores pulses optimized under a different hardware
    /// profile than the library it was loaded into: serving them would
    /// silently play mis-conditioned waveforms, so the load fails closed
    /// and the caller compiles cold.
    HwProfileMismatch {
        /// The loading library's profile hash (0 = ideal electronics).
        expected: u64,
        /// The profile hash recorded in the file.
        found: u64,
    },
}

impl std::fmt::Display for LibraryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "library file {path}: {message}"),
            Self::Corrupt { path, reason } => {
                write!(f, "library file {path} is corrupt: {reason}")
            }
            Self::PolicyMismatch { expected, found } => write!(
                f,
                "library key-policy mismatch: store uses {expected:?}, file holds '{found}'"
            ),
            Self::HwProfileMismatch { expected, found } => write!(
                f,
                "library hardware-profile mismatch: store expects {expected:016x}, \
                 file holds {found:016x}"
            ),
        }
    }
}

impl std::error::Error for LibraryError {}

/// One entry plus its last-touch stamp on the store's logical clock.
#[derive(Debug)]
struct Slot {
    entry: PulseEntry,
    stamp: u64,
}

/// Everything behind the store's one lock.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Slot>,
    clock: u64,
    bytes: u64,
    evictions: u64,
}

/// The library's entry map, optionally capped by a byte budget.
///
/// The budget is *strict*: inserting an entry evicts least-recently-used
/// entries until the store fits, and an entry that alone exceeds the
/// budget is not stored at all — the caller already holds the computed
/// value, and a later lookup simply recomputes (the schedule stage's
/// recompute rung absorbs exactly this case).
#[derive(Debug, Default)]
pub(crate) struct Store {
    inner: Mutex<Inner>,
    budget: Option<u64>,
}

impl Store {
    /// Creates an empty store with the given configuration.
    pub(crate) fn new(config: &StoreConfig) -> Self {
        Self { inner: Mutex::default(), budget: config.budget_bytes }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retrieves the entry for `key`, refreshing its recency stamp.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<PulseEntry> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(key).map(|slot| {
            slot.stamp = clock;
            slot.entry.clone()
        })
    }

    /// Inserts (or replaces) the entry for `key`, then evicts down to the
    /// budget.
    pub(crate) fn put(&self, key: CacheKey, entry: PulseEntry) {
        let added = entry_bytes(&key, &entry);
        let mut delta = added as i64;
        let mut new_entries = 1i64;
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.insert(key.clone(), Slot { entry, stamp }) {
            let removed = entry_bytes(&key, &old.entry);
            inner.bytes -= removed;
            delta -= removed as i64;
            new_entries = 0;
        }
        inner.bytes += added;
        gauge_resident(delta, new_entries);
        if let Some(budget) = self.budget {
            evict_to(&mut inner, budget);
        }
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Estimated resident bytes of all stored entries (see
    /// [`entry_bytes`]).
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Entries evicted since construction (0 without a budget).
    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// All entries, sorted by key — a deterministic order regardless of
    /// insertion history, hash layout, or recency stamps. The persistence
    /// layer serializes this, so library files are byte-reproducible.
    pub(crate) fn snapshot(&self) -> Vec<(CacheKey, PulseEntry)> {
        let inner = self.lock();
        let mut all: Vec<_> = inner
            .map
            .iter()
            .map(|(k, slot)| (k.clone(), slot.entry.clone()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

/// Evicts least-recently-used entries until `inner` fits `budget`.
fn evict_to(inner: &mut Inner, budget: u64) {
    while inner.bytes > budget && !inner.map.is_empty() {
        // Unique stamps mean a unique minimum: eviction order is a pure
        // function of the access history.
        let victim = inner
            .map
            .iter()
            .min_by_key(|(_, slot)| slot.stamp)
            .map(|(k, _)| k.clone())
            .expect("non-empty store has a minimum");
        if let Some(slot) = inner.map.remove(&victim) {
            let removed = entry_bytes(&victim, &slot.entry);
            inner.bytes -= removed;
            inner.evictions += 1;
            epoc_rt::telemetry::counter_add("pulse_lib.evictions", 1);
            gauge_resident(-(removed as i64), -1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::PulseWaveform;
    use std::sync::Arc;

    /// A distinct key per index: diagonal phase gates quantize to
    /// distinct cells.
    fn key(i: usize) -> CacheKey {
        let u = epoc_circuit::Gate::RZ(0.1 + i as f64 * 0.17).unitary_matrix();
        CacheKey::phase_aware(epoc_linalg::UnitaryKey::new(&u), 0)
    }

    /// An entry whose waveform is `slots` slots on one channel, so
    /// `entry_bytes` grows by 8 per slot.
    fn entry(slots: usize) -> PulseEntry {
        PulseEntry {
            duration: slots as f64 * 2.0,
            fidelity: 0.999,
            n_slots: slots,
            waveform: Some(Arc::new(PulseWaveform::new(
                2.0,
                vec![(0..slots).map(|s| s as f64 * 0.01).collect()],
            ))),
        }
    }

    fn one_entry_bytes() -> u64 {
        entry_bytes(&key(0), &entry(16))
    }

    fn budgeted(bytes: u64) -> Store {
        Store::new(&StoreConfig { budget_bytes: Some(bytes) })
    }

    #[test]
    fn memory_store_round_trips_and_tracks_bytes() {
        let s = Store::default();
        assert_eq!(s.len(), 0);
        s.put(key(0), entry(16));
        assert_eq!(s.len(), 1);
        assert_eq!(s.approx_bytes(), one_entry_bytes());
        assert_eq!(s.get(&key(0)), Some(entry(16)));
        assert_eq!(s.get(&key(1)), None);
        // Replacement swaps the byte accounting, not doubles it.
        s.put(key(0), entry(32));
        assert_eq!(s.len(), 1);
        assert_eq!(s.approx_bytes(), entry_bytes(&key(0), &entry(32)));
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_identical_across_layouts() {
        // Opposite insertion orders leave the map in different internal
        // layouts; the snapshots must still agree.
        let forward = Store::default();
        let backward = Store::default();
        for i in 0..8 {
            forward.put(key(i), entry(i + 1));
        }
        for i in (0..8).rev() {
            backward.put(key(i), entry(i + 1));
        }
        let a = forward.snapshot();
        let b = backward.snapshot();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "snapshot unsorted");
    }

    #[test]
    fn budget_is_respected() {
        // Room for 3 of the 16-slot entries.
        let per_entry = one_entry_bytes();
        let s = budgeted(per_entry * 3);
        for i in 0..10 {
            s.put(key(i), entry(16));
        }
        assert!(
            s.approx_bytes() <= per_entry * 3,
            "budget exceeded: {} > {}",
            s.approx_bytes(),
            per_entry * 3
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.evictions(), 7);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let per_entry = one_entry_bytes();
        let run = || -> Vec<(CacheKey, PulseEntry)> {
            let s = budgeted(per_entry * 2);
            s.put(key(0), entry(16));
            s.put(key(1), entry(16));
            // Touch key 0 so key 1 becomes the LRU victim.
            assert!(s.get(&key(0)).is_some());
            s.put(key(2), entry(16));
            assert!(s.get(&key(0)).is_some(), "recently-used entry evicted");
            assert!(s.get(&key(1)).is_none(), "LRU entry survived");
            assert!(s.get(&key(2)).is_some());
            s.snapshot()
        };
        // The same op sequence leaves byte-identical state.
        assert_eq!(run(), run());
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let s = budgeted(64);
        s.put(key(0), entry(512));
        assert_eq!(s.len(), 0, "entry larger than the whole budget was kept");
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn library_error_display_names_the_file() {
        let e = LibraryError::Corrupt { path: "lib.json".into(), reason: "torn".into() };
        assert!(e.to_string().contains("lib.json"));
        assert!(e.to_string().contains("torn"));
        let m = LibraryError::PolicyMismatch {
            expected: KeyPolicy::PhaseAware,
            found: "phase_sensitive".into(),
        };
        assert!(m.to_string().contains("phase_sensitive"));
    }
}
