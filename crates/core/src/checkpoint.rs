//! Crash-safe training checkpoints: versioned checkpoint directories, a
//! commit protocol, and the full-trainer-state binary codec.
//!
//! Algorithm 1 runs for days at production scale, so a killed trainer must
//! resume *bit-for-bit* — the same standard as the KV-cache decode
//! equivalence. The protocol:
//!
//! 1. Every checkpoint is its own subdirectory `ckpt-<step>/` containing
//!    `forward.qrw`, `backward.qrw` (v2 `QRWT`, CRC-framed), and
//!    `trainer.qrws` (everything else: Adam moments, step count, Noam
//!    position, [`TrainMode`], shuffle-RNG state, the training curve and
//!    sentinel counters).
//! 2. Each file is written through the atomic temp + fsync + rename path
//!    ([`WriteSink`]).
//! 3. A [`Manifest`] (sizes + FNV-1a digests of all three members) is written
//!    **last** — it is the commit record. A crash before the manifest
//!    rename leaves a subdirectory that verification rejects.
//! 4. A top-level `LATEST` file names the newest committed subdirectory.
//!    [`CheckpointStore::latest_valid`] follows it, re-verifies the whole
//!    manifest, and on any failure falls back to scanning `ckpt-*`
//!    directories newest-first — so a kill at *any* byte offset, a bit
//!    flip, or a full disk always resolves to the previous good
//!    checkpoint or a typed error, never to silently-wrong state.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use qrw_tensor::serialize::{crc32, CheckpointError};

use crate::config::TrainConfig;
use crate::cyclic::{CurvePoint, TrainHealthReport, TrainMode, TrainingCurve};
use crate::persist::{DiskSink, Manifest, WriteSink};

/// Member file names inside a checkpoint directory.
pub const FORWARD_FILE: &str = "forward.qrw";
pub const BACKWARD_FILE: &str = "backward.qrw";
pub const TRAINER_FILE: &str = "trainer.qrws";
pub const MANIFEST_FILE: &str = "MANIFEST";
pub const LATEST_FILE: &str = "LATEST";

/// Why a resume could not produce a trainer.
#[derive(Debug)]
pub enum ResumeError {
    /// Filesystem failure outside checkpoint contents.
    Io(io::Error),
    /// A member file failed its typed `QRWT` validation.
    Checkpoint(CheckpointError),
    /// The trainer-state file is corrupt or structurally invalid.
    State(String),
    /// No committed-and-valid checkpoint exists under the directory.
    NoCheckpoint,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "resume I/O error: {e}"),
            ResumeError::Checkpoint(e) => write!(f, "resume checkpoint error: {e}"),
            ResumeError::State(msg) => write!(f, "resume trainer-state error: {msg}"),
            ResumeError::NoCheckpoint => write!(f, "no valid checkpoint to resume from"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<io::Error> for ResumeError {
    fn from(e: io::Error) -> Self {
        ResumeError::Io(e)
    }
}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

/// A directory of versioned training checkpoints plus the sink used to
/// write them (tests write through a `Faults` schedule instead).
pub struct CheckpointStore {
    dir: PathBuf,
    sink: Box<dyn WriteSink>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore").field("dir", &self.dir).finish()
    }
}

impl CheckpointStore {
    /// A store writing through the real filesystem sink.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into(), sink: Box::new(DiskSink) }
    }

    /// A store writing through an injected sink (fault-injection tests).
    pub fn with_sink(dir: impl Into<PathBuf>, sink: Box<dyn WriteSink>) -> CheckpointStore {
        CheckpointStore { dir: dir.into(), sink }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one fully-committed checkpoint for `step`: members, then
    /// manifest, then the `LATEST` pointer. Any error (including an
    /// injected kill) leaves previously committed checkpoints untouched.
    pub fn save(&self, step: u64, members: &[(&str, Vec<u8>)]) -> io::Result<()> {
        let sub_name = format!("ckpt-{step:012}");
        let sub = self.dir.join(&sub_name);
        fs::create_dir_all(&sub)?;
        for (name, bytes) in members {
            self.sink.write_atomic(&sub.join(name), bytes)?;
        }
        let member_refs: Vec<(&str, &[u8])> =
            members.iter().map(|(n, b)| (*n, b.as_slice())).collect();
        let manifest = Manifest::of_members(&member_refs);
        self.sink.write_atomic(&sub.join(MANIFEST_FILE), &manifest.to_bytes())?;
        self.sink.write_atomic(&self.dir.join(LATEST_FILE), sub_name.as_bytes())
    }

    /// The newest checkpoint directory whose manifest fully verifies.
    ///
    /// Follows `LATEST` first; if the pointer is missing, stale, or points
    /// at a corrupt directory, scans `ckpt-*` newest-first (the
    /// rollback-to-last-good path).
    pub fn latest_valid(&self) -> Result<(u64, PathBuf), ResumeError> {
        if let Some((step, path)) = self.pointer_candidate() {
            if Self::verify_dir(&path).is_ok() {
                return Ok((step, path));
            }
        }
        let mut candidates = self.list_checkpoints()?;
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        for (step, path) in candidates {
            if Self::verify_dir(&path).is_ok() {
                return Ok((step, path));
            }
        }
        Err(ResumeError::NoCheckpoint)
    }

    /// All `ckpt-<step>` subdirectories (committed or not), unsorted.
    pub fn list_checkpoints(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(step) = name.strip_prefix("ckpt-").and_then(|s| s.parse::<u64>().ok()) {
                if entry.path().is_dir() {
                    out.push((step, entry.path()));
                }
            }
        }
        Ok(out)
    }

    /// Full commit check for one checkpoint directory: manifest present,
    /// parseable, sealed, and every member matches its size and CRC.
    pub fn verify_dir(path: &Path) -> Result<(), ResumeError> {
        let manifest_bytes = fs::read(path.join(MANIFEST_FILE))?;
        let manifest =
            Manifest::parse(&manifest_bytes).map_err(ResumeError::State)?;
        manifest.verify(path)?;
        Ok(())
    }

    fn pointer_candidate(&self) -> Option<(u64, PathBuf)> {
        let name = fs::read_to_string(self.dir.join(LATEST_FILE)).ok()?;
        let name = name.trim();
        // The pointer must name a direct child of the store.
        if name.contains(['/', '\\']) || !name.starts_with("ckpt-") {
            return None;
        }
        let step = name.strip_prefix("ckpt-")?.parse::<u64>().ok()?;
        Some((step, self.dir.join(name)))
    }
}

// ---------------------------------------------------------------------------
// Trainer-state codec (`trainer.qrws`)
// ---------------------------------------------------------------------------

const STATE_MAGIC: &[u8; 4] = b"QRWS";
const STATE_VERSION: u32 = 1;

/// Everything beyond the two models' weights that Algorithm 1 needs to
/// continue bit-for-bit: optimizer moments, schedule position, warm-up
/// mode, shuffle-RNG state, the training curve so far, and the sentinel
/// counters.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerState {
    pub config: TrainConfig,
    pub d_model: usize,
    pub step: u64,
    pub mode: TrainMode,
    pub rng_state: u64,
    pub adam_steps: u64,
    /// Moments of the forward model's parameters, keyed by name.
    pub adam_forward: Vec<(String, Vec<f32>, Vec<f32>)>,
    /// Moments of the backward model's parameters, keyed by name.
    pub adam_backward: Vec<(String, Vec<f32>, Vec<f32>)>,
    pub curve: TrainingCurve,
    pub health: TrainHealthReport,
    /// Spike-detector baseline (recent healthy losses) and consecutive
    /// spike count — persisted so a resumed run replays sentinel
    /// decisions exactly as the uninterrupted run would.
    pub spike_window_vals: Vec<f32>,
    pub spike_consecutive: u32,
}

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn f32(&mut self, x: f32) {
        self.u32(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f32(x);
        }
    }

    fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("trainer state truncated at byte {}", self.pos));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| "trainer state contains non-UTF-8 string".to_string())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.u32()? as usize;
        if self.buf.len() - self.pos < n.saturating_mul(4) {
            return Err("trainer state float vector overruns buffer".to_string());
        }
        (0..n).map(|_| self.f32()).collect()
    }
}

/// One parameter's Adam moments: `(name, m, v)`.
type Moments = Vec<(String, Vec<f32>, Vec<f32>)>;

fn encode_moments(w: &mut ByteWriter, moments: &Moments) {
    w.u32(moments.len() as u32);
    for (name, m, v) in moments {
        w.str(name);
        w.f32s(m);
        w.f32s(v);
    }
}

fn decode_moments(r: &mut ByteReader) -> Result<Moments, String> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name = r.str()?;
        let m = r.f32s()?;
        let v = r.f32s()?;
        if m.len() != v.len() {
            return Err(format!("moment vectors for '{name}' have mismatched lengths"));
        }
        out.push((name, m, v));
    }
    Ok(out)
}

/// Serializes a [`TrainerState`] to the sealed `QRWS` layout.
pub fn encode_state(state: &TrainerState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.buf.extend_from_slice(STATE_MAGIC);
    w.u32(STATE_VERSION);
    let c = &state.config;
    w.u64(c.steps);
    w.u64(c.warmup_steps);
    w.u64(c.batch_size as u64);
    w.u64(c.beam_width as u64);
    w.u64(c.top_n as u64);
    w.f32(c.lambda);
    w.f32(c.lr_factor);
    w.u64(c.noam_warmup);
    w.f32(c.grad_clip);
    w.u64(c.eval_every);
    w.u64(c.seed);
    w.u8(c.parallel as u8);
    w.u64(c.spike_window as u64);
    w.f32(c.spike_factor);
    w.u32(c.spike_patience);
    w.u32(c.max_rollbacks);
    w.u64(c.checkpoint_every);
    w.u64(state.d_model as u64);
    w.u64(state.step);
    w.u8(match state.mode {
        TrainMode::Separate => 0,
        TrainMode::Joint => 1,
    });
    w.u64(state.rng_state);
    w.u64(state.adam_steps);
    encode_moments(&mut w, &state.adam_forward);
    encode_moments(&mut w, &state.adam_backward);
    w.u32(state.curve.points.len() as u32);
    for p in &state.curve.points {
        w.u64(p.step);
        w.f32(p.ppl_q2t);
        w.f32(p.ppl_t2q);
        w.f32(p.log_prob);
        w.f32(p.accuracy);
        w.u64(p.skipped_steps);
        w.u64(p.rollbacks);
        w.u64(p.nan_grad_events);
    }
    let h = &state.health;
    w.u64(h.nan_loss_events);
    w.u64(h.nan_grad_events);
    w.u64(h.skipped_steps);
    w.u64(h.loss_spikes);
    w.u64(h.rollbacks);
    w.u64(h.checkpoints_written);
    w.f32s(&state.spike_window_vals);
    w.u32(state.spike_consecutive);
    w.seal()
}

/// Decodes a sealed `QRWS` buffer, rejecting truncation, corruption
/// (CRC), bad magic and unknown versions.
pub fn decode_state(bytes: &[u8]) -> Result<TrainerState, ResumeError> {
    if bytes.len() < 12 {
        return Err(ResumeError::State("trainer state too short".into()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored {
        return Err(ResumeError::State("trainer state checksum mismatch".into()));
    }
    let mut r = ByteReader { buf: body, pos: 0 };
    let run = |r: &mut ByteReader| -> Result<TrainerState, String> {
        if r.take(4)? != STATE_MAGIC {
            return Err("bad trainer state magic".into());
        }
        let version = r.u32()?;
        if version != STATE_VERSION {
            return Err(format!("unsupported trainer state version {version}"));
        }
        let config = TrainConfig {
            steps: r.u64()?,
            warmup_steps: r.u64()?,
            batch_size: r.u64()? as usize,
            beam_width: r.u64()? as usize,
            top_n: r.u64()? as usize,
            lambda: r.f32()?,
            lr_factor: r.f32()?,
            noam_warmup: r.u64()?,
            grad_clip: r.f32()?,
            eval_every: r.u64()?,
            seed: r.u64()?,
            parallel: r.u8()? != 0,
            spike_window: r.u64()? as usize,
            spike_factor: r.f32()?,
            spike_patience: r.u32()?,
            max_rollbacks: r.u32()?,
            checkpoint_every: r.u64()?,
        };
        let d_model = r.u64()? as usize;
        let step = r.u64()?;
        let mode = match r.u8()? {
            0 => TrainMode::Separate,
            1 => TrainMode::Joint,
            other => return Err(format!("unknown train mode tag {other}")),
        };
        let rng_state = r.u64()?;
        let adam_steps = r.u64()?;
        let adam_forward = decode_moments(r)?;
        let adam_backward = decode_moments(r)?;
        let n_points = r.u32()? as usize;
        let mut curve = TrainingCurve::default();
        for _ in 0..n_points {
            curve.points.push(CurvePoint {
                step: r.u64()?,
                ppl_q2t: r.f32()?,
                ppl_t2q: r.f32()?,
                log_prob: r.f32()?,
                accuracy: r.f32()?,
                skipped_steps: r.u64()?,
                rollbacks: r.u64()?,
                nan_grad_events: r.u64()?,
            });
        }
        let health = TrainHealthReport {
            nan_loss_events: r.u64()?,
            nan_grad_events: r.u64()?,
            skipped_steps: r.u64()?,
            loss_spikes: r.u64()?,
            rollbacks: r.u64()?,
            checkpoints_written: r.u64()?,
        };
        let spike_window_vals = r.f32s()?;
        let spike_consecutive = r.u32()?;
        if r.pos != r.buf.len() {
            return Err(format!("{} trailing bytes in trainer state", r.buf.len() - r.pos));
        }
        Ok(TrainerState {
            config,
            d_model,
            step,
            mode,
            rng_state,
            adam_steps,
            adam_forward,
            adam_backward,
            curve,
            health,
            spike_window_vals,
            spike_consecutive,
        })
    };
    run(&mut r).map_err(ResumeError::State)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::testutil::TestDir;

    fn sample_state() -> TrainerState {
        TrainerState {
            config: TrainConfig { steps: 12, seed: 5, ..Default::default() },
            d_model: 32,
            step: 7,
            mode: TrainMode::Joint,
            rng_state: 0xDEAD_BEEF_1234_5678,
            adam_steps: 14,
            adam_forward: vec![("enc.w".into(), vec![0.1, -0.5], vec![0.01, 0.02])],
            adam_backward: vec![("dec.w".into(), vec![1.5], vec![2.5])],
            curve: TrainingCurve {
                points: vec![CurvePoint {
                    step: 5,
                    ppl_q2t: 3.5,
                    ppl_t2q: 4.5,
                    log_prob: -2.0,
                    accuracy: 0.5,
                    skipped_steps: 1,
                    rollbacks: 0,
                    nan_grad_events: 2,
                }],
            },
            health: TrainHealthReport {
                nan_loss_events: 1,
                nan_grad_events: 2,
                skipped_steps: 1,
                loss_spikes: 3,
                rollbacks: 0,
                checkpoints_written: 4,
            },
            spike_window_vals: vec![2.25, 2.5],
            spike_consecutive: 1,
        }
    }

    #[test]
    fn trainer_state_round_trips() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn trainer_state_rejects_corruption_and_truncation() {
        let bytes = encode_state(&sample_state());
        for cut in 0..bytes.len() {
            assert!(decode_state(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_state(&bad).is_err(), "bit flip at byte {i} accepted");
        }
    }

    #[test]
    fn store_commits_and_finds_latest() {
        let dir = TestDir::new("ckpt-store");
        let store = CheckpointStore::new(dir.path());
        assert!(matches!(store.latest_valid(), Err(ResumeError::NoCheckpoint)));
        store.save(5, &[("a.bin", b"aaa".to_vec()), ("b.bin", b"b".to_vec())]).unwrap();
        store.save(10, &[("a.bin", b"AAA".to_vec()), ("b.bin", b"B".to_vec())]).unwrap();
        let (step, path) = store.latest_valid().unwrap();
        assert_eq!(step, 10);
        assert_eq!(fs::read(path.join("a.bin")).unwrap(), b"AAA");
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_good() {
        let dir = TestDir::new("ckpt-fallback");
        let store = CheckpointStore::new(dir.path());
        store.save(1, &[("a.bin", b"one".to_vec())]).unwrap();
        store.save(2, &[("a.bin", b"two".to_vec())]).unwrap();
        // Corrupt the newest member after commit (bit-flip on disk).
        let victim = dir.path().join("ckpt-000000000002/a.bin");
        let mut bytes = fs::read(&victim).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();
        let (step, path) = store.latest_valid().unwrap();
        assert_eq!(step, 1);
        assert_eq!(fs::read(path.join("a.bin")).unwrap(), b"one");
    }

    #[test]
    fn uncommitted_dir_is_never_selected() {
        let dir = TestDir::new("ckpt-uncommitted");
        let store = CheckpointStore::new(dir.path());
        store.save(3, &[("a.bin", b"good".to_vec())]).unwrap();
        // A crash right before the manifest write: members exist, no
        // MANIFEST. Also point LATEST at it, as if the pointer write from
        // a previous run survived but the manifest did not.
        let partial = dir.path().join("ckpt-000000000009");
        fs::create_dir_all(&partial).unwrap();
        fs::write(partial.join("a.bin"), b"partial").unwrap();
        fs::write(dir.path().join(LATEST_FILE), "ckpt-000000000009").unwrap();
        let (step, _) = store.latest_valid().unwrap();
        assert_eq!(step, 3);
    }

    #[test]
    fn malicious_latest_pointer_is_ignored() {
        let dir = TestDir::new("ckpt-pointer");
        let store = CheckpointStore::new(dir.path());
        store.save(2, &[("a.bin", b"ok".to_vec())]).unwrap();
        fs::write(dir.path().join(LATEST_FILE), "../../etc").unwrap();
        let (step, _) = store.latest_valid().unwrap();
        assert_eq!(step, 2);
    }
}
