//! Epoch-pinned publication ring: one writer at a time publishes immutable
//! values as numbered epochs, many lock-free readers pin one epoch each.
//!
//! [`EpochStore`] is the one protocol behind both live-update paths of the
//! serving stack: the catalog's [`SnapshotStore`](crate::SnapshotStore)
//! (one [`IndexSnapshot`](crate::IndexSnapshot) per epoch) and the model
//! hot-swap [`ModelStore`](crate::ModelStore) (one
//! [`ModelEpoch`](crate::ModelEpoch) per epoch). Both are type aliases of
//! this store; their modules add only payload-specific constructors,
//! publishing and stats. The ring, its counters and its safety argument
//! live here and nowhere else.

use std::cell::UnsafeCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use qrw_tensor::sync::Mutex;

/// One slot of the publication ring.
///
/// The `UnsafeCell` is the price of a lock-free reader path: std has no
/// atomic `Arc` load, so the cell is guarded by protocol instead of by a
/// lock (see the safety argument on [`EpochStore`]).
struct Slot<T> {
    /// Number of in-flight readers pinning this slot's value.
    pins: AtomicU64,
    /// The value, written only by the (mutex-serialised) writer and only
    /// while the slot is neither current nor pinned.
    cell: UnsafeCell<Option<Arc<T>>>,
}

/// Counter snapshot of an [`EpochStore`]. The payload stores map it onto
/// their own reports (`churn_stats()`, `swap_stats()`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct EpochStats {
    /// Epoch a `pin()` issued now would observe.
    pub current_epoch: u64,
    /// Values published since the store was created (the initial value is
    /// not counted).
    pub published: u64,
    /// Superseded values dropped from the ring.
    pub reclaimed: u64,
    /// Times the writer had to spin because every non-current slot was
    /// pinned.
    pub publish_stalls: u64,
    /// Reader retries after losing a race with a concurrent publish.
    pub pin_retries: u64,
    /// Pins currently held across all slots.
    pub pinned_now: u64,
    /// Publishes abandoned before publication (e.g. the commit failed);
    /// readers stayed on the last good epoch.
    pub failed_publishes: u64,
    /// Writers that panicked before publishing and were contained by the
    /// caller; readers stayed on the last good epoch.
    pub writer_panics: u64,
}

/// Epoch-pinned store: serialised writers, many lock-free readers.
///
/// # Safety protocol
///
/// All atomics use `SeqCst`, so every thread agrees on one total order of
/// the operations below.
///
/// Reader ([`pin`](Self::pin)):
/// 1. `idx = current.load()`
/// 2. `slots[idx].pins.fetch_add(1)`         (announce)
/// 3. re-check `current.load() == idx` — retry from 1 on mismatch
/// 4. clone the `Arc` out of `slots[idx].cell`
///
/// Writer (`publish_with`), under the writer mutex:
/// 1. pick a victim slot `v != current` with `pins == 0`
/// 2. mutate `slots[v].cell` (drop the stale Arc, store the new one)
/// 3. `current.store(v)`                      (publication point)
///
/// Why the reader's step 4 never races the writer's step 2: the writer
/// mutates a cell only while that slot is **not current** and **unpinned**
/// (checked after the reader's announce would be visible, because both
/// sides are `SeqCst`). A reader dereferences a cell only after its
/// re-check passed, i.e. its pin was registered while the slot *was*
/// current — and from that point the slot's pin count stays nonzero until
/// the reader unpins, so no writer will select it as a victim. If the
/// reader's announce lands *after* the writer began recycling the slot,
/// then the writer's `current.store` to some other slot (or to this slot,
/// step 3, which happens strictly after step 2 completed) is ordered
/// before the reader's re-check load, so the re-check either still sees
/// `idx` current — meaning the cell mutation had already completed and
/// the reader clones the *new* valid Arc — or fails and the reader
/// retries. Either way the cell is never read mid-mutation. The payload
/// type plays no role in the argument.
///
/// Reclamation: dropping the stale `Arc` in writer step 2 *is* the
/// reclaim (the value deallocates when the last reader's pinned clone
/// drops). [`reclaim`](Self::reclaim) additionally sweeps non-current
/// unpinned slots eagerly so memory is not held hostage by ring slots
/// that publishing happens not to revisit.
pub struct EpochStore<T> {
    slots: Box<[Slot<T>]>,
    /// Index of the slot holding the current epoch.
    current: AtomicUsize,
    /// Serialises publish/reclaim. Readers never touch it.
    writer: Mutex<()>,
    /// Epoch of the current value, mirrored for lock-free reporting.
    epoch: AtomicU64,
    published: AtomicU64,
    reclaimed: AtomicU64,
    publish_stalls: AtomicU64,
    pin_retries: AtomicU64,
    failed_publishes: AtomicU64,
    writer_panics: AtomicU64,
}

// SAFETY: the UnsafeCell contents are only mutated under the writer mutex
// and only for slots no reader can be dereferencing (see the protocol
// above); everything else is atomics and Arc. Readers on any thread clone
// the `Arc<T>` out, hence the `Send + Sync` bound on `T`.
unsafe impl<T: Send + Sync> Send for EpochStore<T> {}
unsafe impl<T: Send + Sync> Sync for EpochStore<T> {}

impl<T> EpochStore<T> {
    /// Default ring size: enough slots that a writer rarely stalls on
    /// slow readers, small enough that at most a handful of superseded
    /// epochs linger.
    pub(crate) const DEFAULT_SLOTS: usize = 8;

    /// A store serving `initial` as epoch `epoch`, with a ring of `slots`
    /// slots (clamped to at least 2: one current slot plus one to publish
    /// into).
    pub(crate) fn with_initial(epoch: u64, initial: T, slots: usize) -> Arc<Self> {
        let mut first = Some(Arc::new(initial));
        Arc::new(EpochStore {
            slots: (0..slots.max(2))
                .map(|_| Slot { pins: AtomicU64::new(0), cell: UnsafeCell::new(first.take()) })
                .collect(),
            current: AtomicUsize::new(0),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(epoch),
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            publish_stalls: AtomicU64::new(0),
            pin_retries: AtomicU64::new(0),
            failed_publishes: AtomicU64::new(0),
            writer_panics: AtomicU64::new(0),
        })
    }

    /// Pins the current epoch for the duration of the returned guard.
    /// Lock-free: two `SeqCst` RMWs on the happy path.
    pub fn pin(self: &Arc<Self>) -> Pinned<T> {
        loop {
            let idx = self.current.load(SeqCst);
            self.slots[idx].pins.fetch_add(1, SeqCst);
            if self.current.load(SeqCst) == idx {
                // SAFETY: re-check passed with our pin registered, so the
                // writer cannot be mutating this cell (protocol above).
                let value = unsafe { (*self.slots[idx].cell.get()).clone() }
                    .expect("current slot always holds a value");
                return Pinned { store: Arc::clone(self), slot: idx, value };
            }
            // Lost a race with a publish that moved `current`; unpin and
            // retry against the new slot.
            self.slots[idx].pins.fetch_sub(1, SeqCst);
            self.pin_retries.fetch_add(1, SeqCst);
        }
    }

    /// Epoch of the value a `pin()` issued now would observe.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Publishes a new epoch, retiring (and possibly reclaiming) an old
    /// slot. `make` runs inside the writer's critical section with the
    /// current epoch and returns the new epoch and its value, so epochs
    /// numbered from the current one are installed in order even with
    /// concurrent publishers. Spins (with `yield_now`, counted in
    /// `publish_stalls`) while every non-current slot is pinned. Returns
    /// the new epoch.
    pub(crate) fn publish_with(&self, make: impl FnOnce(u64) -> (u64, T)) -> u64 {
        let _guard = self.writer.lock();
        let (epoch, value) = make(self.epoch.load(SeqCst));
        let value = Some(Arc::new(value));
        let victim = loop {
            if let Some(v) = self.idle_slots().next() {
                break v;
            }
            self.publish_stalls.fetch_add(1, SeqCst);
            std::thread::yield_now();
        };
        self.recycle(victim, value);
        self.epoch.store(epoch, SeqCst);
        self.current.store(victim, SeqCst);
        self.published.fetch_add(1, SeqCst);
        epoch
    }

    /// Eagerly drops superseded values whose slots are unpinned. Returns
    /// how many were reclaimed.
    pub fn reclaim(&self) -> usize {
        let _guard = self.writer.lock();
        self.idle_slots().filter(|&i| self.recycle(i, None)).count()
    }

    /// Total pins currently held across all slots.
    pub fn pinned_now(&self) -> u64 {
        self.slots.iter().map(|s| s.pins.load(SeqCst)).sum()
    }

    /// Records a publish abandoned before publication.
    pub(crate) fn record_failed_publish(&self) {
        self.failed_publishes.fetch_add(1, SeqCst);
    }

    /// Records a writer panic contained before publication.
    pub(crate) fn record_writer_panic(&self) {
        self.writer_panics.fetch_add(1, SeqCst);
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> EpochStats {
        EpochStats {
            current_epoch: self.epoch.load(SeqCst),
            published: self.published.load(SeqCst),
            reclaimed: self.reclaimed.load(SeqCst),
            publish_stalls: self.publish_stalls.load(SeqCst),
            pin_retries: self.pin_retries.load(SeqCst),
            pinned_now: self.pinned_now(),
            failed_publishes: self.failed_publishes.load(SeqCst),
            writer_panics: self.writer_panics.load(SeqCst),
        }
    }

    /// Slots that are neither current nor pinned: the only ones the writer
    /// may mutate.
    fn idle_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let cur = self.current.load(SeqCst);
        (0..self.slots.len()).filter(move |&i| i != cur && self.slots[i].pins.load(SeqCst) == 0)
    }

    /// Replaces slot `i`'s value, dropping the stale one (counted as
    /// reclaimed). Returns whether there was a stale value. The caller
    /// holds the writer mutex and took `i` from [`idle_slots`](Self::idle_slots).
    fn recycle(&self, i: usize, value: Option<Arc<T>>) -> bool {
        // SAFETY: writer mutex held, slot `i` is not current and has zero
        // pins; per the protocol no reader can be (or begin) dereferencing
        // it before `current` points at it again.
        let stale = std::mem::replace(unsafe { &mut *self.slots[i].cell.get() }, value);
        let reclaimed = stale.is_some();
        if reclaimed {
            self.reclaimed.fetch_add(1, SeqCst);
        }
        reclaimed
    }
}

/// A pinned epoch: holds the slot's pin until dropped, keeping the value
/// alive and un-recyclable for the whole request. Dereferences to the
/// value.
pub struct Pinned<T> {
    store: Arc<EpochStore<T>>,
    slot: usize,
    value: Arc<T>,
}

impl<T> Deref for Pinned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Drop for Pinned<T> {
    fn drop(&mut self) {
        self.store.slots[self.slot].pins.fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Payload `(epoch, !epoch)`: a reader that saw a value torn from its
    /// epoch would find the two halves disagreeing.
    type Store = EpochStore<(u64, u64)>;

    fn store(slots: usize) -> Arc<Store> {
        Store::with_initial(0, (0, !0), slots)
    }

    fn publish_next(store: &Store) -> u64 {
        store.publish_with(|cur| (cur + 1, (cur + 1, !(cur + 1))))
    }

    #[test]
    fn pin_sees_the_published_epoch() {
        let store = store(Store::DEFAULT_SLOTS);
        let pin0 = store.pin();
        assert_eq!(*pin0, (0, !0));
        assert_eq!(publish_next(&store), 1);
        // The old pin still sees epoch 0.
        assert_eq!(*pin0, (0, !0));
        assert_eq!(*store.pin(), (1, !1));
        assert_eq!(store.current_epoch(), 1);
    }

    #[test]
    fn pinned_epochs_survive_until_unpinned() {
        let store = store(Store::DEFAULT_SLOTS);
        let pin = store.pin();
        for _ in 0..20 {
            publish_next(&store);
        }
        // The pinned epoch is immutable regardless of churn.
        assert_eq!(*pin, (0, !0));
        assert_eq!(store.current_epoch(), 20);
        assert_eq!(store.pinned_now(), 1);
        drop(pin);
        assert_eq!(store.pinned_now(), 0);
        let stats = store.stats();
        assert_eq!(stats.published, 20);
        assert!(store.reclaim() > 0 || stats.reclaimed > 0);
    }

    #[test]
    fn publish_waits_for_pins_instead_of_tearing() {
        // A 2-slot ring: publishing while both slots are pinned must
        // stall, not overwrite a pinned slot.
        let store = store(2);
        let pin0 = store.pin();
        publish_next(&store);
        let pin1 = store.pin();
        assert_eq!(pin1.0, 1);

        let s2 = Arc::clone(&store);
        let publisher = std::thread::spawn(move || publish_next(&s2));
        while store.stats().publish_stalls == 0 {
            std::thread::yield_now();
        }
        assert_eq!(store.current_epoch(), 1, "stalled publish must not be visible");
        drop(pin0);
        assert_eq!(publisher.join().unwrap(), 2);
        assert_eq!(store.current_epoch(), 2);
        assert_eq!(*pin1, (1, !1), "held pin unaffected by the publish");
    }

    #[test]
    fn concurrent_pins_always_see_a_whole_epoch() {
        // Hammer pin/publish from many threads; every pinned value must
        // agree with itself and never run behind an earlier pin.
        let store = store(Store::DEFAULT_SLOTS);
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (store, stop, started) =
                    (Arc::clone(&store), Arc::clone(&stop), Arc::clone(&started));
                std::thread::spawn(move || {
                    let (mut seen, mut last) = (0u64, 0u64);
                    loop {
                        let pin = store.pin();
                        assert_eq!(pin.1, !pin.0, "epoch {} paired with the wrong value", pin.0);
                        assert!(pin.0 >= last, "pins went back from {last} to {}", pin.0);
                        last = pin.0;
                        seen += 1;
                        if seen == 1 {
                            started.fetch_add(1, SeqCst);
                        }
                        if stop.load(SeqCst) {
                            return seen;
                        }
                    }
                })
            })
            .collect();
        // Publish only once every reader is pinning.
        while started.load(SeqCst) < 4 {
            std::thread::yield_now();
        }
        for _ in 0..200 {
            publish_next(&store);
        }
        stop.store(true, SeqCst);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        let stats = store.stats();
        assert_eq!(stats.published, 200);
        assert!(stats.reclaimed > 0, "ring must recycle superseded epochs");
        assert_eq!(stats.pinned_now, 0);
    }
}
