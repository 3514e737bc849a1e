//! Epoch-pinned model store: zero-downtime rewriter hot-swap.
//!
//! The online-learning loop (crate `qrw-online`) retrains the q2q model
//! concurrently with serving and swaps the frozen result into the
//! runtime. That swap must obey the same invariant the live catalog
//! already enforces for index snapshots ([`super::snapshot`]):
//!
//! > **Torn-swap invariant.** A request never observes a partially
//! > swapped model. Every rewrite the request performs across its whole
//! > degradation-ladder walk comes from exactly one immutable model
//! > epoch, stamped into the response.
//!
//! [`ModelStore`] is the generic [`EpochStore`] ring (shared with the
//! catalog's [`SnapshotStore`](super::SnapshotStore); protocol and safety
//! argument in [`crate::epoch`]) applied to models: readers pin one epoch
//! per request ([`ModelStore::pin`]), the trainer publishes frozen models
//! as new epochs ([`ModelStore::publish`]), and superseded epochs are
//! reclaimed only once unpinned. A swap whose checkpoint commit fails is
//! never published — serving degrades to the last good epoch and the
//! failure is counted in [`SwapStats`] for `health_report()`.
//!
//! Epoch numbering starts at 1: a [`SearchResponse`](super::SearchResponse)
//! with `model_epoch == 0` means "served without a model store" (the
//! frozen single-model configuration every earlier layer uses).

use std::sync::Arc;

use qrw_core::pipeline::QueryRewriter;

use crate::epoch::{EpochStore, Pinned};

/// A rewriter shared across serving threads.
pub type SharedRewriter = Arc<dyn QueryRewriter + Send + Sync>;

/// One immutable published model epoch.
#[derive(Clone)]
pub struct ModelEpoch {
    epoch: u64,
    rewriter: SharedRewriter,
}

impl ModelEpoch {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn rewriter(&self) -> &(dyn QueryRewriter + Send + Sync) {
        self.rewriter.as_ref()
    }
}

impl std::fmt::Debug for ModelEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEpoch")
            .field("epoch", &self.epoch)
            .field("rewriter", &self.rewriter.name())
            .finish()
    }
}

/// Counter snapshot of a [`ModelStore`], surfaced through the online
/// loop's `health_report()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Epoch a `pin()` issued now would observe.
    pub current_epoch: u64,
    /// Models published since the store was created (the initial model is
    /// epoch 1 but not counted as a publish).
    pub epochs_published: u64,
    /// Superseded models dropped from the ring.
    pub epochs_reclaimed: u64,
    /// Attempted swaps that failed before publication (e.g. the frozen
    /// checkpoint commit died); serving stayed on the last good epoch.
    pub swap_failures: u64,
    /// Times the publisher had to spin because every non-current slot was
    /// pinned.
    pub publish_stalls: u64,
    /// Reader retries after losing a race with a concurrent publish.
    pub pin_retries: u64,
    /// Pins currently held across all slots.
    pub pinned_now: u64,
}

/// The model hot-swap store: an [`EpochStore`] of rewriters, numbered
/// from 1 by the store itself.
pub type ModelStore = EpochStore<ModelEpoch>;

/// A pinned model epoch; dereferences to its [`ModelEpoch`].
pub type PinnedModel = Pinned<ModelEpoch>;

impl ModelStore {
    /// A store serving `initial` as epoch 1.
    pub fn new(initial: SharedRewriter) -> Arc<Self> {
        Self::with_slots(initial, Self::DEFAULT_SLOTS)
    }

    /// A store with an explicit ring size (clamped to at least 2: one
    /// current slot plus one to publish into).
    pub fn with_slots(initial: SharedRewriter, slots: usize) -> Arc<Self> {
        Self::with_initial(1, ModelEpoch { epoch: 1, rewriter: initial }, slots)
    }

    /// Publishes `rewriter` as the next model epoch and returns it. The
    /// number is taken inside the writer's critical section, so concurrent
    /// publishers install dense epochs in order.
    pub fn publish(&self, rewriter: SharedRewriter) -> u64 {
        self.publish_with(|current| {
            let epoch = current + 1;
            (epoch, ModelEpoch { epoch, rewriter })
        })
    }

    /// Records a swap that failed before publication (checkpoint commit
    /// error, freeze failure); serving stays on the last good epoch.
    pub fn record_swap_failure(&self) {
        self.record_failed_publish();
    }

    /// Counter snapshot for `health_report()`.
    pub fn swap_stats(&self) -> SwapStats {
        let s = self.stats();
        SwapStats {
            current_epoch: s.current_epoch,
            epochs_published: s.published,
            epochs_reclaimed: s.reclaimed,
            swap_failures: s.failed_publishes,
            publish_stalls: s.publish_stalls,
            pin_retries: s.pin_retries,
            pinned_now: s.pinned_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

    /// A rewriter whose single rewrite names the epoch it was built for,
    /// so a torn swap would be visible as an epoch/output mismatch.
    struct TagRewriter {
        tag: u64,
        name: String,
    }

    impl TagRewriter {
        fn shared(tag: u64) -> SharedRewriter {
            Arc::new(TagRewriter { tag, name: format!("tag-{tag}") })
        }
    }

    impl QueryRewriter for TagRewriter {
        fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
            vec![vec![format!("epoch{}", self.tag)]]
        }

        fn name(&self) -> &str {
            &self.name
        }
    }

    fn tag_of(pin: &PinnedModel) -> u64 {
        let out = pin.rewriter().rewrite(&[], 1);
        out[0][0].strip_prefix("epoch").unwrap().parse().unwrap()
    }

    #[test]
    fn swap_failures_are_counted_without_changing_the_epoch() {
        let store = ModelStore::new(TagRewriter::shared(1));
        store.record_swap_failure();
        store.record_swap_failure();
        let stats = store.swap_stats();
        assert_eq!(stats.swap_failures, 2);
        assert_eq!(stats.current_epoch, 1);
        assert_eq!(stats.epochs_published, 0);
        assert_eq!(tag_of(&store.pin()), 1);
    }

    #[test]
    fn concurrent_publishers_stay_ordered() {
        // Several publishers race while a reader pins in a loop. The store
        // must hand out distinct, dense epochs, install them in order (so
        // `current_epoch()` never goes back and ends on the last one), and
        // pair every pinned model with the epoch it was published under.
        const PUBLISHERS: u64 = 8;
        const EACH: u64 = 2000;
        let store = ModelStore::new(TagRewriter::shared(0));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (store, stop) = (Arc::clone(&store), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (mut last, mut seen) = (0, Vec::new());
                while !stop.load(SeqCst) {
                    let current = store.current_epoch();
                    assert!(current >= last, "current epoch went back from {last} to {current}");
                    last = current;
                    let pin = store.pin();
                    seen.push((pin.epoch(), tag_of(&pin)));
                }
                seen
            })
        };
        let start = Arc::new(std::sync::Barrier::new(PUBLISHERS as usize));
        let publishers: Vec<_> = (0..PUBLISHERS)
            .map(|p| {
                let (store, start) = (Arc::clone(&store), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut floor = 0;
                    let mut published = Vec::new();
                    for tag in (1..=EACH).map(|i| p * 10_000 + i) {
                        let before = store.current_epoch();
                        assert!(before >= floor, "current epoch {before} fell below {floor}");
                        let epoch = store.publish(TagRewriter::shared(tag));
                        // Nothing older may be installed over this epoch.
                        floor = floor.max(epoch);
                        let current = store.current_epoch();
                        assert!(current >= floor, "current epoch {current} fell below {floor}");
                        floor = current;
                        published.push((epoch, tag));
                    }
                    published
                })
            })
            .collect();
        let mut tag_of_epoch: std::collections::BTreeMap<u64, u64> = [(1, 0)].into();
        for h in publishers {
            for (epoch, tag) in h.join().unwrap() {
                assert!(tag_of_epoch.insert(epoch, tag).is_none(), "epoch {epoch} assigned twice");
            }
        }
        stop.store(true, SeqCst);
        let seen = reader.join().unwrap();
        let last = 1 + PUBLISHERS * EACH;
        assert!(tag_of_epoch.keys().copied().eq(1..=last), "epochs must be dense");
        assert_eq!(store.current_epoch(), last);
        assert_eq!(store.pin().epoch(), last);
        for (epoch, tag) in seen {
            assert_eq!(tag_of_epoch[&epoch], tag, "epoch {epoch} pinned the wrong model");
        }
    }
}
