//! One seeded fault schedule for every layer's failure drills.
//!
//! Production failure modes — a model that panics, errors or stalls, a
//! process killed mid-checkpoint, silent media corruption, a full disk, a
//! wedged core, a poisoned shard — are rare enough that ordinary tests
//! never see them. A [`Faults`] schedule makes them reproducible. It is an
//! ordered list of rules, each a [`Site`] (where the fault lands), a
//! trigger (when it fires) and a [`Fault`] (what happens), plus one
//! SplitMix64 stream seeded at construction for the probability triggers.
//!
//! Every hook site asks [`Faults::hit`] and applies what it gets back. The
//! checkpoint write path is a site too: `Faults` implements [`WriteSink`],
//! so a checkpoint store writing through it suffers the schedule's kills,
//! bit flips and full disks at exact write offsets.
//!
//! A hit tries the site's rules in order, and the first rule that fires
//! wins. Every rule of the site still counts the visit, so count triggers
//! ("the nth", "the first n", "from the nth") see every visit. A
//! probability rule takes exactly one draw each time it is tried, even at
//! p = 0, and no draw once an earlier rule has fired: three probability
//! rules on [`Site::Rewriter`] give the panic → error → latency stream.
//!
//! Everything is deterministic: the same schedule against the same call
//! sequence fires at the same calls and the same bytes. Latency is charged
//! to the caller's deadline budget synthetically, so no test ever sleeps.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::Duration;

use qrw_tensor::rng::StdRng;
use qrw_tensor::sync::Mutex;

use crate::persist::{DiskSink, WriteSink};

/// Where a fault lands: one hook site of the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// The online rung's rewriter call.
    Rewriter,
    /// One atomic write through the schedule's [`WriteSink`].
    CheckpointWrite,
    /// The start of a catalog writer's batch.
    WriterBatch,
    /// A catalog writer between persisting a batch and publishing it.
    PublishGate,
    /// One traversal of this document shard (hedged retries included).
    Shard(usize),
    /// One move of a shard rebalance, before it is applied.
    RebalanceStep,
    /// A runtime worker homed to this scheduler shard, once per run.
    WorkerHome(usize),
    /// The runtime's serve call for this request id.
    Request(u64),
}

/// What happens when a rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The call panics.
    Panic,
    /// The model returns an error instead of output.
    ModelError,
    /// The call takes this much extra time, charged synthetically to the
    /// caller's deadline budget.
    Latency(Duration),
    /// The process dies here. The write in progress lands torn at its
    /// final path, cut at the rule's byte offset (empty under any other
    /// trigger), and every later write fails; a rebalance stops at this
    /// move.
    Kill,
    /// This bit (mod payload length) of the write's payload is flipped,
    /// and the write otherwise succeeds.
    BitFlip(u64),
    /// The write fails with a disk-full error, leaving its target
    /// untouched.
    DiskFull,
    /// The hit blocks until [`Faults::release`].
    Hold,
    /// The worker is wedged: it takes no work for the whole run.
    Wedge,
}

/// When a rule fires, counted in visits of its site.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    Always,
    Nth(u64),
    FirstN(u64),
    FromNth(u64),
    /// The checkpoint write whose payload holds this cumulative offset.
    AtByte(u64),
    Prob(f64),
}

#[derive(Debug)]
struct Rule {
    site: Site,
    trigger: Trigger,
    fault: Fault,
}

#[derive(Debug)]
struct State {
    rng: StdRng,
    /// Per rule: visits of its site so far.
    seen: Vec<u64>,
    fired: u64,
    bytes: u64,
    writes: u64,
    dead: bool,
}

/// A seeded, ordered list of fault rules; see the [module docs](self).
/// Shared behind `Arc` by the layers it arms.
#[derive(Debug)]
pub struct Faults {
    rules: Vec<Rule>,
    state: Mutex<State>,
    held: AtomicBool,
    released: AtomicBool,
}

impl Default for Faults {
    fn default() -> Self {
        Faults::new(0)
    }
}

impl Faults {
    /// An empty schedule whose probability rules draw from `seed`.
    pub fn new(seed: u64) -> Self {
        Faults {
            rules: Vec::new(),
            state: Mutex::new(State {
                rng: StdRng::seed_from_u64(seed),
                seen: Vec::new(),
                fired: 0,
                bytes: 0,
                writes: 0,
                dead: false,
            }),
            held: AtomicBool::new(false),
            released: AtomicBool::new(false),
        }
    }

    fn rule(mut self, site: Site, trigger: Trigger, fault: Fault) -> Self {
        self.rules.push(Rule { site, trigger, fault });
        self.state.lock().seen.push(0);
        self
    }

    /// `fault` on every visit of `site`.
    pub fn always(self, site: Site, fault: Fault) -> Self {
        self.rule(site, Trigger::Always, fault)
    }

    /// `fault` on the `n`th visit of `site` only (0-based).
    pub fn nth(self, site: Site, n: u64, fault: Fault) -> Self {
        self.rule(site, Trigger::Nth(n), fault)
    }

    /// `fault` on the first `n` visits of `site`.
    pub fn first_n(self, site: Site, n: u64, fault: Fault) -> Self {
        self.rule(site, Trigger::FirstN(n), fault)
    }

    /// `fault` on the `n`th visit of `site` (0-based) and every later one.
    pub fn from_nth(self, site: Site, n: u64, fault: Fault) -> Self {
        self.rule(site, Trigger::FromNth(n), fault)
    }

    /// `fault` on the checkpoint write whose payload holds cumulative byte
    /// `offset` of the write stream.
    pub fn at_byte(self, offset: u64, fault: Fault) -> Self {
        self.rule(Site::CheckpointWrite, Trigger::AtByte(offset), fault)
    }

    /// `fault` with probability `p` on each visit of `site` that reaches
    /// this rule; one seeded draw per such visit.
    pub fn prob(self, site: Site, p: f64, fault: Fault) -> Self {
        self.rule(site, Trigger::Prob(p), fault)
    }

    /// The fault for this visit of `site`, if a rule fires. A [`Fault::Hold`]
    /// blocks here until [`release`](Self::release) before it returns.
    pub fn hit(&self, site: Site) -> Option<Fault> {
        self.fire(site, 0).map(|(fault, _)| fault)
    }

    /// [`hit`](Self::hit) for a visit carrying `len` payload bytes (a
    /// checkpoint write); also returns how many of those bytes precede a
    /// byte-offset trigger (0 for other triggers).
    fn fire(&self, site: Site, len: u64) -> Option<(Fault, u64)> {
        let mut st = self.state.lock();
        let start = st.bytes;
        if site == Site::CheckpointWrite {
            st.bytes += len;
            st.writes += 1;
        }
        let mut hit = None;
        for (i, rule) in self.rules.iter().enumerate().filter(|(_, r)| r.site == site) {
            let n = st.seen[i];
            st.seen[i] += 1;
            if hit.is_some() {
                continue;
            }
            let keep = match rule.trigger {
                Trigger::Always => Some(0),
                Trigger::Nth(k) => (n == k).then_some(0),
                Trigger::FirstN(k) => (n < k).then_some(0),
                Trigger::FromNth(k) => (n >= k).then_some(0),
                Trigger::AtByte(off) => (start <= off && off < start + len).then(|| off - start),
                Trigger::Prob(p) => st.rng.gen_bool(p).then_some(0),
            };
            hit = keep.map(|keep| (rule.fault, keep));
        }
        if let Some((fault, _)) = hit {
            st.fired += 1;
            st.dead |= fault == Fault::Kill;
        }
        drop(st);
        if let Some((Fault::Hold, _)) = hit {
            self.held.store(true, SeqCst);
            while !self.released.load(SeqCst) {
                std::thread::yield_now();
            }
            self.held.store(false, SeqCst);
        }
        hit
    }

    /// Faults fired so far, over every rule.
    pub fn fired(&self) -> u64 {
        self.state.lock().fired
    }

    /// Cumulative payload bytes offered to the write sink, the torn
    /// write's full intended payload included.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    /// Writes offered to the write sink.
    pub fn total_writes(&self) -> u64 {
        self.state.lock().writes
    }

    /// Whether a [`Fault::Kill`] has fired.
    pub fn killed(&self) -> bool {
        self.state.lock().dead
    }

    /// True while a [`Fault::Hold`] blocks a caller.
    pub fn held(&self) -> bool {
        self.held.load(SeqCst)
    }

    /// Lets every present and future [`Fault::Hold`] through.
    pub fn release(&self) {
        self.released.store(true, SeqCst);
    }
}

/// The checkpoint write site: a real [`DiskSink`] write path with the
/// schedule's write faults injected.
impl WriteSink for Faults {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.killed() {
            return Err(io::Error::other("fault injector: process is dead"));
        }
        match self.fire(Site::CheckpointWrite, bytes.len() as u64) {
            Some((Fault::Kill, keep)) => {
                // Torn write at the final path — deliberately NOT the
                // atomic path; this is the disaster the checksums and
                // manifests exist to catch.
                std::fs::write(path, &bytes[..keep as usize])?;
                Err(io::Error::other("fault injector: killed mid-write"))
            }
            Some((Fault::BitFlip(bit), _)) if !bytes.is_empty() => {
                let mut flipped = bytes.to_vec();
                let bit = (bit as usize) % (flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                DiskSink.write_atomic(path, &flipped)
            }
            Some((Fault::DiskFull, _)) => Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "fault injector: no space left on device",
            )),
            _ => DiskSink.write_atomic(path, bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::testutil::TestDir;

    #[test]
    fn same_seed_same_fault_sequence() {
        let cfg = || {
            Faults::new(7)
                .prob(Site::Rewriter, 0.2, Fault::Panic)
                .prob(Site::Rewriter, 0.3, Fault::ModelError)
                .prob(Site::Rewriter, 0.3, Fault::Latency(Duration::from_millis(50)))
        };
        let a = cfg();
        let b = cfg();
        let seq_a: Vec<Option<Fault>> = (0..100).map(|_| a.hit(Site::Rewriter)).collect();
        let seq_b: Vec<Option<Fault>> = (0..100).map(|_| b.hit(Site::Rewriter)).collect();
        assert_eq!(seq_a, seq_b);
        // With these probabilities all four outcomes occur.
        for want in [None, Some(Fault::Panic), Some(Fault::ModelError)] {
            assert!(seq_a.contains(&want), "{want:?} never drawn");
        }
        assert!(seq_a.iter().any(|f| matches!(f, Some(Fault::Latency(_)))));
    }

    #[test]
    fn always_constructors_are_total() {
        let always = |f| Faults::new(1).always(Site::Rewriter, f).hit(Site::Rewriter);
        assert_eq!(always(Fault::Panic), Some(Fault::Panic));
        assert_eq!(always(Fault::ModelError), Some(Fault::ModelError));
        let d = Duration::from_millis(10);
        assert_eq!(always(Fault::Latency(d)), Some(Fault::Latency(d)));
        assert_eq!(Faults::new(1).hit(Site::Rewriter), None);
    }

    #[test]
    fn first_firing_rule_wins_and_every_rule_counts_the_visit() {
        let f = Faults::default()
            .first_n(Site::WriterBatch, 1, Fault::Panic)
            // Shadowed on visit 0, so it never fires and never blocks.
            .nth(Site::WriterBatch, 0, Fault::Hold)
            // Counts visit 0 although the first rule fired there.
            .nth(Site::WriterBatch, 1, Fault::ModelError);
        let seq: Vec<Option<Fault>> = (0..3).map(|_| f.hit(Site::WriterBatch)).collect();
        assert_eq!(seq, vec![Some(Fault::Panic), Some(Fault::ModelError), None]);
        assert_eq!(f.fired(), 2);
        assert_eq!(f.hit(Site::PublishGate), None, "rules fire only at their own site");
    }

    #[test]
    fn injector_counts_and_exhausts() {
        let inj =
            Faults::new(0).first_n(Site::Shard(2), 2, Fault::Latency(Duration::from_millis(50)));
        let mut spent = Duration::ZERO;
        let mut on_traverse = |shard| {
            if let Some(Fault::Latency(d)) = inj.hit(Site::Shard(shard)) {
                spent += d;
            }
        };
        on_traverse(0); // wrong shard: no-op
        assert_eq!(inj.fired(), 0);
        on_traverse(2);
        on_traverse(2);
        on_traverse(2); // exhausted
        assert_eq!(inj.fired(), 2);
        assert_eq!(spent, Duration::from_millis(100));

        let p = Faults::new(0).first_n(Site::Shard(1), 1, Fault::Panic);
        let on_traverse = |shard| {
            if p.hit(Site::Shard(shard)) == Some(Fault::Panic) {
                panic!("injected shard panic (shard {shard})");
            }
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| on_traverse(1)));
        assert!(caught.is_err());
        assert_eq!(p.fired(), 1);
        // Once fired, the shard is healthy again.
        on_traverse(1);
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn none_passes_through_and_counts() {
        let dir = TestDir::new("fault-none");
        let sink = Faults::default();
        sink.write_atomic(&dir.join("a"), b"hello").unwrap();
        sink.write_atomic(&dir.join("b"), b"world!").unwrap();
        assert_eq!(sink.total_bytes(), 11);
        assert_eq!(sink.total_writes(), 2);
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"world!");
    }

    #[test]
    fn kill_tears_exactly_at_offset_and_stays_dead() {
        let dir = TestDir::new("fault-kill");
        let sink = Faults::default().at_byte(7, Fault::Kill);
        sink.write_atomic(&dir.join("a"), b"hello").unwrap(); // bytes 0..5
        let err = sink.write_atomic(&dir.join("b"), b"world!").unwrap_err();
        assert!(err.to_string().contains("killed"), "{err}");
        assert!(sink.killed());
        // b holds the torn prefix: bytes 5..7 of the stream = "wo".
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"wo");
        // The process is dead: nothing further lands.
        assert!(sink.write_atomic(&dir.join("c"), b"x").is_err());
        assert!(!dir.join("c").exists());
    }

    #[test]
    fn bit_flip_corrupts_one_bit_of_the_targeted_write() {
        let dir = TestDir::new("fault-flip");
        let sink = Faults::default().nth(Site::CheckpointWrite, 1, Fault::BitFlip(9));
        sink.write_atomic(&dir.join("a"), b"aa").unwrap();
        sink.write_atomic(&dir.join("b"), b"aa").unwrap();
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"aa");
        let b = std::fs::read(dir.join("b")).unwrap();
        assert_eq!(b, vec![b'a', b'a' ^ 0x02]); // bit 9 = byte 1, bit 1
    }

    #[test]
    fn disk_full_fails_cleanly_without_writing() {
        let dir = TestDir::new("fault-full");
        let sink = Faults::default().from_nth(Site::CheckpointWrite, 1, Fault::DiskFull);
        sink.write_atomic(&dir.join("a"), b"ok").unwrap();
        let err = sink.write_atomic(&dir.join("b"), b"nope").unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        assert!(!dir.join("b").exists());
        // Disk stays full, but the process is alive: later writes also
        // fail cleanly rather than panicking.
        assert!(sink.write_atomic(&dir.join("c"), b"x").is_err());
    }
}
