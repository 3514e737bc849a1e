//! Epoch-pinned snapshot layer: live catalog mutation under traffic.
//!
//! The serving stack so far assumed a frozen [`InvertedIndex`] built
//! before the first request. Production catalogs churn — items are added,
//! edited and delisted while the engine serves — so this module provides
//! the missing coordination layer under one hard invariant:
//!
//! > **Torn-read invariant.** A request never observes a partially
//! > applied mutation batch. Every read the request performs (degradation
//! > ladder, merged-tree traversal, top-k ranking) sees exactly one
//! > immutable epoch of the catalog.
//!
//! The mechanism:
//!
//! * Writers ([`CatalogWriter`]) apply a [`MutationBatch`] to a *private
//!   copy* of the current index (copy-on-write at segment granularity:
//!   the batch seals into a [`Segment`], the chain of sealed segments is
//!   the durable catalog), then publish the result as a new immutable
//!   [`IndexSnapshot`] epoch.
//! * Readers pin one epoch for the whole request via
//!   [`SnapshotStore::pin`], and old epochs are reclaimed only once
//!   unpinned. [`SnapshotStore`] is the generic [`EpochStore`] ring over
//!   index snapshots; its lock-free protocol and safety argument live in
//!   [`crate::epoch`].
//! * Persistence rides the PR-3 `CheckpointStore` discipline: each epoch
//!   commit writes the sealed segment set + FNV-sealed `MANIFEST` +
//!   `LATEST` pointer via temp+fsync+rename, so a kill at **any byte**
//!   leaves the previous epoch recoverable ([`CatalogWriter::recover`]).
//!   The writer persists *before* publishing: a crash mid-commit never
//!   exposes an epoch that recovery cannot reproduce.
//! * Failure is graceful: a writer that panics or whose commit fails
//!   leaves serving on the last good epoch; the store's [`ChurnStats`]
//!   surface through `health_report()` and the writer records `publish`
//!   obs spans (readers record `pin`).
//!
//! [`ChurnFaultInjector`] drives the failure paths deterministically:
//! kill-at-byte during a segment commit, writer panic at a chosen batch,
//! and a publish gate for reclaim/publish race schedules.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use qrw_core::fault::FaultPlan;
use qrw_core::{CheckpointStore, ResumeError, TrainFaultInjector, WriteSink};
use qrw_obs::Tracer;

use crate::epoch::{EpochStore, Pinned};
use crate::health::ChurnStats;
use crate::index::InvertedIndex;
use crate::kv::RewriteCache;
use crate::segment::{replay, MutationBatch, Segment};

/// One immutable published catalog epoch.
#[derive(Clone, Debug)]
pub struct IndexSnapshot {
    epoch: u64,
    index: InvertedIndex,
}

impl IndexSnapshot {
    pub fn new(epoch: u64, index: InvertedIndex) -> Self {
        IndexSnapshot { epoch, index }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

/// The live catalog's epoch store: an [`EpochStore`] of index snapshots,
/// stamped with the writer's epoch.
pub type SnapshotStore = EpochStore<IndexSnapshot>;

/// A pinned catalog epoch; dereferences to its [`IndexSnapshot`].
pub type PinnedSnapshot = Pinned<IndexSnapshot>;

impl SnapshotStore {
    /// A store serving `initial` as its first epoch.
    pub fn new(initial: IndexSnapshot) -> Arc<Self> {
        Self::with_slots(initial, Self::DEFAULT_SLOTS)
    }

    /// A store with an explicit ring size (clamped to at least 2: one
    /// current slot plus one to publish into).
    pub fn with_slots(initial: IndexSnapshot, slots: usize) -> Arc<Self> {
        Self::with_initial(initial.epoch, initial, slots)
    }

    /// Publishes `snapshot` under its own epoch, retiring (and possibly
    /// reclaiming) an old slot. Waits while every non-current slot is
    /// pinned.
    pub fn publish(&self, snapshot: IndexSnapshot) -> u64 {
        self.publish_with(|_| (snapshot.epoch, snapshot))
    }

    /// Counter snapshot for `health_report()`.
    pub fn churn_stats(&self) -> ChurnStats {
        let s = self.stats();
        ChurnStats {
            live_catalog: true,
            current_epoch: s.current_epoch,
            epochs_published: s.published,
            epochs_reclaimed: s.reclaimed,
            publish_stalls: s.publish_stalls,
            pin_retries: s.pin_retries,
            pinned_now: s.pinned_now,
            writer_panics: s.writer_panics,
            publish_failures: s.failed_publishes,
        }
    }
}

impl PinnedSnapshot {
    pub fn snapshot(&self) -> &IndexSnapshot {
        self
    }
}

/// Errors surfaced by the catalog writer.
#[derive(Debug)]
pub enum CatalogError {
    /// Persisting the sealed segment set failed; serving stays on the
    /// last good epoch.
    Io(std::io::Error),
    /// No valid epoch could be recovered from the directory.
    Resume(ResumeError),
    /// A persisted segment failed to decode during recovery.
    Corrupt(String),
    /// The writer panicked inside `apply_resilient`; serving stays on the
    /// last good epoch.
    WriterPanic,
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog commit I/O failure: {e}"),
            CatalogError::Resume(e) => write!(f, "catalog recovery failed: {e}"),
            CatalogError::Corrupt(m) => write!(f, "catalog segment corrupt: {m}"),
            CatalogError::WriterPanic => write!(f, "catalog writer panicked; last good epoch kept"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Deterministic fault plan for the churn paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnFault {
    /// No injected fault.
    None,
    /// Kill the process (torn write at the final path, all later writes
    /// fail) once the commit stream reaches this cumulative byte offset.
    KillAtByte(u64),
    /// Panic inside the writer while applying this batch (0-based count
    /// of `apply` calls).
    PanicAtBatch(u64),
    /// Gate the publish of this batch: `apply` blocks after persisting,
    /// just before publication, until [`ChurnFaultInjector::release`] —
    /// lets tests schedule pins across the publish/reclaim boundary.
    StallPublishAtBatch(u64),
}

/// Injects deterministic churn faults into a [`CatalogWriter`]: the
/// catalog analogue of `qrw_core::TrainFaultInjector` (which it reuses
/// for the byte-exact kill semantics).
pub struct ChurnFaultInjector {
    plan: ChurnFault,
    sink: TrainFaultInjector,
    batches_seen: AtomicU64,
    gate_open: AtomicBool,
    stalled: AtomicBool,
}

impl ChurnFaultInjector {
    pub fn new(plan: ChurnFault) -> Arc<Self> {
        let sink_plan = match plan {
            ChurnFault::KillAtByte(off) => FaultPlan::KillAtByte(off),
            _ => FaultPlan::None,
        };
        Arc::new(ChurnFaultInjector {
            plan,
            sink: TrainFaultInjector::new(sink_plan),
            batches_seen: AtomicU64::new(0),
            gate_open: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
        })
    }

    pub fn none() -> Arc<Self> {
        Self::new(ChurnFault::None)
    }

    pub fn kill_at_byte(offset: u64) -> Arc<Self> {
        Self::new(ChurnFault::KillAtByte(offset))
    }

    pub fn panic_at_batch(batch: u64) -> Arc<Self> {
        Self::new(ChurnFault::PanicAtBatch(batch))
    }

    pub fn stall_publish_at_batch(batch: u64) -> Arc<Self> {
        Self::new(ChurnFault::StallPublishAtBatch(batch))
    }

    /// Cumulative bytes the commit stream has written (for sizing
    /// kill-point sweeps).
    pub fn total_bytes(&self) -> u64 {
        self.sink.total_bytes()
    }

    /// True once a `KillAtByte` fault has fired.
    pub fn killed(&self) -> bool {
        self.sink.killed()
    }

    /// True while a `StallPublishAtBatch` fault holds the writer at the
    /// publish gate.
    pub fn stalled(&self) -> bool {
        self.stalled.load(SeqCst)
    }

    /// Opens the publish gate of a stalled writer.
    pub fn release(&self) {
        self.gate_open.store(true, SeqCst);
    }

    /// Writer hook: start of `apply` for batch `n` (may panic).
    fn on_batch_start(&self) -> u64 {
        let n = self.batches_seen.fetch_add(1, SeqCst);
        if self.plan == ChurnFault::PanicAtBatch(n) {
            panic!("injected writer panic at batch {n}");
        }
        n
    }

    /// Writer hook: after persistence, before publication (may block).
    fn before_publish(&self, batch: u64) {
        if self.plan == ChurnFault::StallPublishAtBatch(batch) {
            self.stalled.store(true, SeqCst);
            while !self.gate_open.load(SeqCst) {
                std::thread::yield_now();
            }
            self.stalled.store(false, SeqCst);
        }
    }
}

/// Adapter handing the injector to `CheckpointStore` as its write sink.
struct ChurnSink(Arc<ChurnFaultInjector>);

impl WriteSink for ChurnSink {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.0.sink.write_atomic(path, bytes)
    }
}

/// The single writer of a live catalog: applies mutation batches
/// copy-on-write, persists the sealed segment set (commit point), then
/// publishes the new epoch.
pub struct CatalogWriter {
    store: Arc<SnapshotStore>,
    ckpt: Option<CheckpointStore>,
    segments: Vec<Segment>,
    next_epoch: u64,
    faults: Option<Arc<ChurnFaultInjector>>,
    tracer: Option<Tracer>,
}

/// File name of segment `i` inside an epoch's checkpoint directory.
fn segment_name(i: usize) -> String {
    format!("seg-{i:06}.qrwg")
}

impl CatalogWriter {
    /// An in-memory catalog (no persistence) bootstrapped from `docs` as
    /// epoch 0.
    pub fn bootstrap<I>(docs: I) -> (Arc<SnapshotStore>, CatalogWriter)
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        Self::bootstrap_inner(docs, None, None).expect("in-memory bootstrap cannot fail")
    }

    /// A persistent catalog rooted at `dir`: epoch 0 is committed to disk
    /// before the store is returned.
    pub fn bootstrap_persistent<I>(
        docs: I,
        dir: &Path,
    ) -> Result<(Arc<SnapshotStore>, CatalogWriter), CatalogError>
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        Self::bootstrap_inner(docs, Some(CheckpointStore::new(dir)), None)
    }

    /// A persistent catalog whose commit stream runs through `faults`.
    pub fn with_injector<I>(
        docs: I,
        dir: &Path,
        faults: Arc<ChurnFaultInjector>,
    ) -> Result<(Arc<SnapshotStore>, CatalogWriter), CatalogError>
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        let ckpt = CheckpointStore::with_sink(dir, Box::new(ChurnSink(Arc::clone(&faults))));
        Self::bootstrap_inner(docs, Some(ckpt), Some(faults))
    }

    fn bootstrap_inner<I>(
        docs: I,
        ckpt: Option<CheckpointStore>,
        faults: Option<Arc<ChurnFaultInjector>>,
    ) -> Result<(Arc<SnapshotStore>, CatalogWriter), CatalogError>
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        let docs: Vec<Vec<String>> = docs.into_iter().collect();
        let base = Segment::base_of(docs.iter().map(Vec::as_slice));
        let index = replay(std::slice::from_ref(&base));
        let writer = CatalogWriter {
            store: SnapshotStore::new(IndexSnapshot::new(0, index)),
            ckpt,
            segments: vec![base],
            next_epoch: 1,
            faults,
            tracer: None,
        };
        writer.persist(0)?;
        Ok((Arc::clone(&writer.store), writer))
    }

    /// Recovers the catalog from `dir`: finds the newest valid epoch via
    /// the `LATEST` pointer (falling back to a manifest-verified scan),
    /// decodes its sealed segment set, and replays it. The rebuilt index
    /// is bit-for-bit the one the writer published at that epoch.
    pub fn recover(dir: &Path) -> Result<(Arc<SnapshotStore>, CatalogWriter), CatalogError> {
        let ckpt = CheckpointStore::new(dir);
        let (epoch, epoch_dir) = ckpt.latest_valid().map_err(CatalogError::Resume)?;
        let mut segments = Vec::new();
        loop {
            let path = epoch_dir.join(segment_name(segments.len()));
            if !path.exists() {
                break;
            }
            let bytes = std::fs::read(&path).map_err(CatalogError::Io)?;
            let seg = Segment::decode(&bytes)
                .map_err(|e| CatalogError::Corrupt(format!("{}: {e}", path.display())))?;
            segments.push(seg);
        }
        if segments.is_empty() {
            return Err(CatalogError::Corrupt(format!(
                "epoch {epoch} checkpoint holds no segments"
            )));
        }
        let index = replay(&segments);
        let store = SnapshotStore::new(IndexSnapshot::new(epoch, index));
        let writer = CatalogWriter {
            store: Arc::clone(&store),
            ckpt: Some(ckpt),
            segments,
            next_epoch: epoch + 1,
            faults: None,
            tracer: None,
        };
        Ok((store, writer))
    }

    /// Attaches a tracer: each commit records a `publish` span with
    /// `epoch` / `ops` / `segments` attributes.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The store this writer publishes into.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Number of sealed segments in the current chain.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Applies one batch: seal → copy-on-write apply → persist (commit
    /// point) → publish. On error the store still serves the last good
    /// epoch and `publish_failures` is bumped.
    ///
    /// May panic if a `PanicAtBatch` fault fires (or the engine has a
    /// genuine bug); use [`apply_resilient`](Self::apply_resilient) to
    /// contain that.
    pub fn apply(&mut self, batch: MutationBatch) -> Result<u64, CatalogError> {
        let batch_no = match &self.faults {
            Some(f) => f.on_batch_start(),
            None => 0,
        };
        let epoch = self.next_epoch;
        let seg = Segment::seal(batch);
        let ops = seg.ops().len();

        // Copy-on-write: clone the currently served index privately, then
        // apply. Readers keep hitting the old epoch untouched.
        let mut index = self.store.pin().index().clone();
        seg.apply(&mut index);

        // Persist the extended segment chain FIRST. Only a durable commit
        // record may become visible to readers: a kill anywhere in this
        // commit leaves `LATEST`/scan pointing at the previous epoch.
        self.segments.push(seg);
        if let Err(e) = self.persist(epoch) {
            self.segments.pop();
            self.store.record_failed_publish();
            return Err(e);
        }

        if let Some(f) = &self.faults {
            f.before_publish(batch_no);
        }

        let mut span = self.tracer.as_ref().map(|t| {
            let trace = t.next_trace();
            t.span(trace, None, "publish")
        });
        if let Some(s) = span.as_mut() {
            s.attr("epoch", epoch);
            s.attr("ops", ops);
            s.attr("segments", self.segments.len());
        }
        self.next_epoch += 1;
        self.store.publish(IndexSnapshot::new(epoch, index));
        Ok(epoch)
    }

    /// [`apply`](Self::apply) behind `catch_unwind`: a panicking writer
    /// (injected or genuine) is contained, counted in `writer_panics`,
    /// and serving continues on the last good epoch.
    pub fn apply_resilient(&mut self, batch: MutationBatch) -> Result<u64, CatalogError> {
        match catch_unwind(AssertUnwindSafe(|| self.apply(batch))) {
            Ok(result) => result,
            Err(_) => {
                self.store.record_writer_panic();
                Err(CatalogError::WriterPanic)
            }
        }
    }

    /// Compacts the catalog into a single base segment and publishes the
    /// result as a new epoch. The remap table (old id → new id, `None`
    /// for tombstoned docs) is returned and, when `cache` is given,
    /// applied to the rewrite cache: entries whose doc-id hints reference
    /// remapped docs are rewritten in place, entries referencing deleted
    /// docs are dropped.
    pub fn compact(
        &mut self,
        cache: Option<&RewriteCache>,
    ) -> Result<(u64, Vec<Option<usize>>), CatalogError> {
        let epoch = self.next_epoch;
        let mut index = self.store.pin().index().clone();
        let remap = index.compact();
        let base = Segment::base_of((0..index.len()).map(|i| index.doc_tokens(i)));
        let saved = std::mem::replace(&mut self.segments, vec![base]);
        if let Err(e) = self.persist(epoch) {
            self.segments = saved;
            self.store.record_failed_publish();
            return Err(e);
        }
        let mut span = self.tracer.as_ref().map(|t| {
            let trace = t.next_trace();
            t.span(trace, None, "publish")
        });
        if let Some(s) = span.as_mut() {
            s.attr("epoch", epoch);
            s.attr("compacted", true);
        }
        self.next_epoch += 1;
        self.store.publish(IndexSnapshot::new(epoch, index));
        if let Some(cache) = cache {
            cache.apply_remap(&remap);
        }
        Ok((epoch, remap))
    }

    /// Eagerly reclaims superseded epochs, recording a `reclaim` span
    /// when any were freed.
    pub fn reclaim(&self) -> usize {
        let freed = self.store.reclaim();
        if freed > 0 {
            if let Some(t) = &self.tracer {
                let trace = t.next_trace();
                let mut span = t.span(trace, None, "reclaim");
                span.attr("freed", freed);
            }
        }
        freed
    }

    /// Writes the current segment chain as epoch `epoch`'s checkpoint.
    fn persist(&self, epoch: u64) -> Result<(), CatalogError> {
        let Some(ckpt) = &self.ckpt else { return Ok(()) };
        let names: Vec<String> = (0..self.segments.len()).map(segment_name).collect();
        let members: Vec<(&str, Vec<u8>)> = self
            .segments
            .iter()
            .zip(&names)
            .map(|(seg, name)| (name.as_str(), seg.encode()))
            .collect();
        ckpt.save(epoch, &members).map_err(CatalogError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn docs() -> Vec<Vec<String>> {
        vec![toks("red shoes men"), toks("black shoes women"), toks("red phone case")]
    }

    /// Scratch dir helper (core's TestDir is crate-private).
    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let pid = std::process::id();
            let seq = {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                SEQ.fetch_add(1, SeqCst)
            };
            let p = std::env::temp_dir().join(format!("qrw_snap_{tag}_{pid}_{seq}"));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn concurrent_pins_always_see_a_whole_epoch() {
        // Hammer pin/publish from many threads; every observed snapshot
        // must be internally consistent (epoch == live_len - 3 by
        // construction, each epoch adds exactly one doc).
        let (store, mut writer) = CatalogWriter::bootstrap(docs());
        let stop = Arc::new(AtomicBool::new(false));
        // The writer starts only once every reader has pinned once, so a
        // writer that finishes before the readers are scheduled cannot
        // leave a reader with nothing observed.
        let started = Arc::new(std::sync::Barrier::new(5));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            readers.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                loop {
                    let pin = store.pin();
                    if seen == 0 {
                        started.wait();
                    }
                    assert_eq!(
                        pin.index().live_len() as u64,
                        pin.epoch() + 3,
                        "epoch {} paired with wrong index state",
                        pin.epoch()
                    );
                    seen += 1;
                    if stop.load(SeqCst) {
                        break;
                    }
                }
                seen
            }));
        }
        started.wait();
        for i in 0..200 {
            writer.apply(MutationBatch::new().add_doc(toks(&format!("churn doc{i}")))).unwrap();
        }
        stop.store(true, SeqCst);
        let seen: Vec<u64> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(seen.iter().all(|&n| n >= 1), "every reader pins at least once: {seen:?}");
        let total: u64 = seen.iter().sum();
        assert!(total > 0);
        let stats = store.churn_stats();
        assert_eq!(stats.epochs_published, 200);
        assert!(stats.epochs_reclaimed > 0, "ring must recycle superseded epochs");
    }

    #[test]
    fn persist_then_recover_is_bit_for_bit() {
        let dir = TempDir::new("roundtrip");
        let fp_last;
        {
            let (store, mut writer) =
                CatalogWriter::bootstrap_persistent(docs(), dir.path()).unwrap();
            writer.apply(MutationBatch::new().add_doc(toks("blue hat")).remove_doc(0)).unwrap();
            writer
                .apply(MutationBatch::new().update_doc(1, toks("black boots women")))
                .unwrap();
            fp_last = store.pin().index().fingerprint();
        }
        let (store, writer) = CatalogWriter::recover(dir.path()).unwrap();
        let pin = store.pin();
        assert_eq!(pin.epoch(), 2);
        assert_eq!(pin.index().fingerprint(), fp_last, "recovery must be bit-for-bit");
        assert_eq!(writer.segment_count(), 3);
    }

    #[test]
    fn recovery_after_mid_commit_kill_restores_previous_epoch() {
        let dir = TempDir::new("kill");
        // Measure a clean run to find the commit byte range of epoch 2.
        let clean = TempDir::new("kill_clean");
        let probe = ChurnFaultInjector::none();
        let (store, mut writer) =
            CatalogWriter::with_injector(docs(), clean.path(), Arc::clone(&probe)).unwrap();
        writer.apply(MutationBatch::new().add_doc(toks("blue hat"))).unwrap();
        let before = probe.total_bytes();
        writer.apply(MutationBatch::new().add_doc(toks("green scarf"))).unwrap();
        let fp_epoch1 = {
            let mut idx = InvertedIndex::build(docs());
            idx.add_doc(toks("blue hat"));
            idx.fingerprint()
        };
        drop(store);

        // Kill in the middle of epoch 2's commit.
        let kill = ChurnFaultInjector::kill_at_byte(before + 10);
        let (store, mut writer) =
            CatalogWriter::with_injector(docs(), dir.path(), Arc::clone(&kill)).unwrap();
        writer.apply(MutationBatch::new().add_doc(toks("blue hat"))).unwrap();
        let err = writer.apply(MutationBatch::new().add_doc(toks("green scarf")));
        assert!(err.is_err(), "commit through a dead sink must fail");
        assert!(kill.killed());
        // Serving survives on the last good epoch.
        assert_eq!(store.current_epoch(), 1);
        assert_eq!(store.churn_stats().publish_failures, 1);

        // A fresh process recovers epoch 1 bit-for-bit.
        let (recovered, _w) = CatalogWriter::recover(dir.path()).unwrap();
        let pin = recovered.pin();
        assert_eq!(pin.epoch(), 1);
        assert_eq!(pin.index().fingerprint(), fp_epoch1);
    }

    #[test]
    fn panicking_writer_leaves_last_good_epoch() {
        let dir = TempDir::new("panic");
        let faults = ChurnFaultInjector::panic_at_batch(1);
        let (store, mut writer) =
            CatalogWriter::with_injector(docs(), dir.path(), faults).unwrap();
        writer.apply_resilient(MutationBatch::new().add_doc(toks("blue hat"))).unwrap();
        let err = writer.apply_resilient(MutationBatch::new().add_doc(toks("green scarf")));
        assert!(matches!(err, Err(CatalogError::WriterPanic)));
        assert_eq!(store.current_epoch(), 1, "panic must not publish");
        assert_eq!(store.churn_stats().writer_panics, 1);
        // The writer remains usable for the next batch.
        let e = writer.apply_resilient(MutationBatch::new().add_doc(toks("green scarf"))).unwrap();
        assert_eq!(e, 2);
        assert_eq!(store.pin().index().live_len(), 5);
    }

    #[test]
    fn stall_gate_schedules_a_pin_across_the_publish() {
        let dir = TempDir::new("stall");
        let faults = ChurnFaultInjector::stall_publish_at_batch(0);
        let (store, mut writer) =
            CatalogWriter::with_injector(docs(), dir.path(), Arc::clone(&faults)).unwrap();
        let handle = std::thread::spawn(move || {
            writer.apply(MutationBatch::new().add_doc(toks("blue hat"))).unwrap();
            writer
        });
        while !faults.stalled() {
            std::thread::yield_now();
        }
        // The batch is persisted but not published: readers still pin 0.
        let pin = store.pin();
        assert_eq!(pin.epoch(), 0);
        faults.release();
        let writer = handle.join().unwrap();
        assert_eq!(store.current_epoch(), 1);
        // The pre-publish pin still reads its whole epoch.
        assert_eq!(pin.epoch(), 0);
        assert_eq!(pin.index().live_len(), 3);
        drop(pin);
        assert!(writer.reclaim() <= 1);
    }

    #[test]
    fn compact_publishes_a_remapped_epoch_and_fixes_cache_hints() {
        let dir = TempDir::new("compact");
        let (store, mut writer) =
            CatalogWriter::bootstrap_persistent(docs(), dir.path()).unwrap();
        writer.apply(MutationBatch::new().remove_doc(0)).unwrap();
        let cache = RewriteCache::new();
        cache.insert_with_docs(&toks("shoes"), vec![toks("footwear")], vec![1]);
        cache.insert_with_docs(&toks("men shoes"), vec![toks("sneakers")], vec![0]);
        let (epoch, remap) = writer.compact(Some(&cache)).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(remap[0], None);
        assert_eq!(remap[1], Some(0));
        // Hint referencing the surviving doc was rewritten; the one
        // referencing the deleted doc was dropped.
        assert_eq!(cache.doc_hints(&toks("shoes")), Some(vec![0]));
        assert!(cache.peek_scoped(crate::CacheScope::default(), &toks("men shoes")).is_none());
        // Compaction survives recovery.
        let (rec, w) = CatalogWriter::recover(dir.path()).unwrap();
        assert_eq!(rec.pin().epoch(), 2);
        assert_eq!(w.segment_count(), 1);
        assert_eq!(rec.pin().index().fingerprint(), store.pin().index().fingerprint());
    }

    #[test]
    fn failed_persist_keeps_segment_chain_consistent() {
        let dir = TempDir::new("failpersist");
        let kill = ChurnFaultInjector::kill_at_byte(0);
        // Bootstrap itself commits epoch 0 through the dead sink.
        let err = CatalogWriter::with_injector(docs(), dir.path(), kill);
        assert!(err.is_err(), "epoch-0 commit through a dead sink must fail");
    }
}
