//! Model persistence: checkpointing trained models to disk so offline
//! training (the paper's GPU-side job) and online serving (the CPU-side
//! KV-precompute and q2q deployment) can run as separate processes.
//!
//! Every file goes through the **atomic write path**: bytes are written to
//! a temporary file in the destination directory, fsynced, then renamed
//! over the target (and the directory fsynced). A process killed at any
//! byte offset therefore leaves either the old file or the new file —
//! never a torn one — and the v2 `QRWT` checksums reject whatever garbage
//! a non-atomic writer could have left behind.
//!
//! Multi-file checkpoints (a [`JointModel`]'s forward/backward pair, the
//! trainer state in [`crate::checkpoint`]) are committed by a [`Manifest`]
//! written *last*: it lists every member file with its size and FNV-1a digest, so
//! a crash between member writes is detected as a manifest mismatch
//! instead of silently loading a half-old half-new pair.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use qrw_nmt::Seq2Seq;
use qrw_tensor::serialize::{self, crc32, fnv1a64};

use crate::cyclic::JointModel;

/// Destination for checkpoint bytes. The production implementation is
/// [`DiskSink`]; the resilience tests write through a
/// [`Faults`](crate::fault::Faults) schedule to simulate kills, bit flips
/// and full disks at exact write offsets.
///
/// `Send + Sync` so a store owning a boxed sink can move to a dedicated
/// writer thread (the live-catalog writer does exactly that) and be
/// shared behind `Arc`.
pub trait WriteSink: Send + Sync {
    /// Atomically replaces `path` with `bytes`.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// A shared sink: lets a test keep a handle on the sink it hands to a
/// store.
impl<T: WriteSink + ?Sized> WriteSink for std::sync::Arc<T> {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        (**self).write_atomic(path, bytes)
    }
}

/// The real filesystem sink: write-to-temp + fsync + rename + dir fsync.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskSink;

impl WriteSink for DiskSink {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let file_name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
        let tmp = path.with_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
        {
            use std::io::Write;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Persist the rename itself: fsync the containing directory.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// One member file of a multi-file checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the manifest's directory (no separators).
    pub name: String,
    pub size: u64,
    /// FNV-1a 64 digest of `name ∥ bytes` (see `member_digest`).
    pub digest: u64,
}

/// Content fingerprint of a member file.
///
/// This must NOT be CRC32: members are themselves CRC-sealed formats
/// (v2 `QRWT`, `QRWS`), and CRC's GF(2) linearity makes every sealed file
/// of a given length hash to the same value — with the standard register,
/// the fixed residue `0x2144DF1C` — so a CRC32 manifest would call *any*
/// valid member a match for any other of equal length (e.g. a crash
/// window where a newer save overwrote one half of a pair). FNV-1a is
/// non-linear, and tagging with the name pins each member to its slot, so
/// even swapping two members within one checkpoint is caught.
fn member_digest(name: &str, bytes: &[u8]) -> u64 {
    fnv1a64(name.as_bytes(), bytes)
}

/// The commit record of a multi-file checkpoint: member names, sizes and
/// FNV-1a digests, sealed by a whole-manifest CRC and written *after*
/// every member. A checkpoint without a matching manifest is not a
/// checkpoint.
///
/// On-disk layout (text, one entry per line):
///
/// ```text
/// QRWM 1
/// entry <size> <fnv1a64-hex> <name>
/// seal <crc32-hex of all preceding bytes>
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Builds a manifest over `(name, bytes)` members about to be written.
    pub fn of_members(members: &[(&str, &[u8])]) -> Manifest {
        Manifest {
            entries: members
                .iter()
                .map(|(name, bytes)| {
                    assert!(
                        !name.contains(['/', '\\', ' ', '\n']),
                        "manifest member names must be bare file names: {name:?}"
                    );
                    ManifestEntry {
                        name: name.to_string(),
                        size: bytes.len() as u64,
                        digest: member_digest(name, bytes),
                    }
                })
                .collect(),
        }
    }

    /// Serializes to the sealed text layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::from("QRWM 1\n");
        for e in &self.entries {
            out.push_str(&format!("entry {} {:016x} {}\n", e.size, e.digest, e.name));
        }
        let seal = crc32(out.as_bytes());
        out.push_str(&format!("seal {seal:08x}\n"));
        out.into_bytes()
    }

    /// Parses and seal-checks a manifest file's bytes.
    pub fn parse(bytes: &[u8]) -> Result<Manifest, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "manifest is not UTF-8".to_string())?;
        let mut entries = Vec::new();
        let mut consumed = 0usize;
        let mut lines = text.split_inclusive('\n');
        match lines.next() {
            Some("QRWM 1\n") => consumed += "QRWM 1\n".len(),
            _ => return Err("bad manifest header".into()),
        }
        for line in lines {
            let trimmed = line.strip_suffix('\n').ok_or("manifest not newline-terminated")?;
            if let Some(rest) = trimmed.strip_prefix("entry ") {
                let mut parts = rest.splitn(3, ' ');
                let size = parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or("bad manifest entry size")?;
                let digest = parts
                    .next()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or("bad manifest entry digest")?;
                let name = parts.next().filter(|n| !n.is_empty()).ok_or("bad manifest entry name")?;
                entries.push(ManifestEntry { name: name.to_string(), size, digest });
                consumed += line.len();
            } else if let Some(rest) = trimmed.strip_prefix("seal ") {
                let seal =
                    u32::from_str_radix(rest, 16).map_err(|_| "bad manifest seal".to_string())?;
                if crc32(&bytes[..consumed]) != seal {
                    return Err("manifest seal mismatch (corrupt manifest)".into());
                }
                return Ok(Manifest { entries });
            } else {
                return Err(format!("unrecognized manifest line: {trimmed:?}"));
            }
        }
        Err("manifest missing seal (truncated)".into())
    }

    /// Verifies every listed member on disk in `dir`: existence, size and
    /// FNV digest. Any deviation is an `InvalidData` error naming the file.
    pub fn verify(&self, dir: &Path) -> io::Result<()> {
        for e in &self.entries {
            let path = dir.join(&e.name);
            let bytes = fs::read(&path).map_err(|err| {
                io::Error::new(
                    err.kind(),
                    format!("manifest member {} unreadable: {err}", path.display()),
                )
            })?;
            if bytes.len() as u64 != e.size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "manifest member {} has size {} (manifest says {})",
                        path.display(),
                        bytes.len(),
                        e.size
                    ),
                ));
            }
            if member_digest(&e.name, &bytes) != e.digest {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("manifest member {} fails its digest", path.display()),
                ));
            }
        }
        Ok(())
    }
}

/// Saves one model's parameters to `path` through the atomic write path.
pub fn save_model(model: &Seq2Seq, path: impl AsRef<Path>) -> io::Result<()> {
    save_model_with(model, path, &DiskSink)
}

/// [`save_model`] with an explicit sink (fault-injection entry point).
pub fn save_model_with(
    model: &Seq2Seq,
    path: impl AsRef<Path>,
    sink: &dyn WriteSink,
) -> io::Result<()> {
    sink.write_atomic(path.as_ref(), &serialize::save(model.params()))
}

/// Restores parameters into an already-constructed model of the same
/// configuration (parameters are matched by name and shape). Torn or
/// bit-flipped checkpoints fail with a typed
/// [`CheckpointError`](qrw_tensor::serialize::CheckpointError) wrapped as
/// `InvalidData`.
pub fn load_model(model: &Seq2Seq, path: impl AsRef<Path>) -> io::Result<()> {
    let bytes = fs::read(path)?;
    serialize::load(model.params(), &bytes)?;
    Ok(())
}

/// Saves a joint model as `<stem>.forward.qrw` + `<stem>.backward.qrw`,
/// committed by `<stem>.manifest` written last. A crash anywhere in the
/// sequence leaves a pair that [`load_joint`] either fully restores (old
/// or new) or rejects — never a mixed forward/backward pair.
pub fn save_joint(model: &JointModel, stem: impl AsRef<Path>) -> io::Result<()> {
    save_joint_with(model, stem, &DiskSink)
}

/// [`save_joint`] with an explicit sink (fault-injection entry point).
pub fn save_joint_with(
    model: &JointModel,
    stem: impl AsRef<Path>,
    sink: &dyn WriteSink,
) -> io::Result<()> {
    let stem = stem.as_ref();
    let fwd_path = with_suffix(stem, "forward");
    let bwd_path = with_suffix(stem, "backward");
    let fwd = serialize::save(model.forward.params());
    let bwd = serialize::save(model.backward.params());
    let manifest = Manifest::of_members(&[
        (&file_name_of(&fwd_path), &fwd),
        (&file_name_of(&bwd_path), &bwd),
    ]);
    sink.write_atomic(&fwd_path, &fwd)?;
    sink.write_atomic(&bwd_path, &bwd)?;
    sink.write_atomic(&manifest_path(stem), &manifest.to_bytes())
}

/// Restores a joint model saved with [`save_joint`], verifying the
/// manifest (presence, sizes, CRCs of both members) before touching any
/// parameter, so a half-written pair is rejected wholesale.
pub fn load_joint(model: &JointModel, stem: impl AsRef<Path>) -> io::Result<()> {
    let stem = stem.as_ref();
    let manifest_bytes = fs::read(manifest_path(stem)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("joint checkpoint {} has no readable manifest: {e}", stem.display()),
        )
    })?;
    let manifest = Manifest::parse(&manifest_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let dir = stem.parent().map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
    manifest.verify(&dir)?;
    load_model(&model.forward, with_suffix(stem, "forward"))?;
    load_model(&model.backward, with_suffix(stem, "backward"))
}

fn with_suffix(stem: &Path, which: &str) -> PathBuf {
    let mut name = stem.as_os_str().to_os_string();
    name.push(format!(".{which}.qrw"));
    PathBuf::from(name)
}

fn manifest_path(stem: &Path) -> PathBuf {
    let mut name = stem.as_os_str().to_os_string();
    name.push(".manifest");
    PathBuf::from(name)
}

fn file_name_of(path: &Path) -> String {
    path.file_name().expect("checkpoint paths have file names").to_string_lossy().into_owned()
}

/// Unique, self-cleaning temporary directories for tests. Pid-only naming
/// collides across tests running in one process; this combines pid, a
/// per-process counter and the test's own label, and removes the tree on
/// drop.
#[cfg(test)]
pub(crate) mod testutil {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub struct TestDir {
        path: PathBuf,
    }

    impl TestDir {
        pub fn new(label: &str) -> TestDir {
            let path = std::env::temp_dir().join(format!(
                "qrw-{label}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TestDir { path }
        }

        pub fn path(&self) -> &Path {
            &self.path
        }

        pub fn join(&self, name: &str) -> PathBuf {
            self.path.join(name)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TestDir;
    use super::*;
    use qrw_nmt::ModelConfig;

    #[test]
    fn model_roundtrip_preserves_behaviour() {
        let dir = TestDir::new("persist-model");
        let path = dir.join("model.qrw");
        let a = Seq2Seq::new(ModelConfig::tiny_transformer(20), 1);
        let lp = a.log_prob(&[5, 6], &[7]);
        save_model(&a, &path).unwrap();

        let b = Seq2Seq::new(ModelConfig::tiny_transformer(20), 2);
        assert_ne!(b.log_prob(&[5, 6], &[7]), lp);
        load_model(&b, &path).unwrap();
        assert_eq!(b.log_prob(&[5, 6], &[7]), lp);
    }

    #[test]
    fn joint_roundtrip() {
        let dir = TestDir::new("persist-joint");
        let stem = dir.join("joint");
        let cfg = ModelConfig::tiny_transformer(20);
        let a = JointModel::new(Seq2Seq::new(cfg.clone(), 1), Seq2Seq::new(cfg.clone(), 2));
        save_joint(&a, &stem).unwrap();
        let b = JointModel::new(Seq2Seq::new(cfg.clone(), 3), Seq2Seq::new(cfg, 4));
        load_joint(&b, &stem).unwrap();
        assert_eq!(
            a.forward.log_prob(&[5], &[6]),
            b.forward.log_prob(&[5], &[6])
        );
        assert_eq!(
            a.backward.log_prob(&[6], &[5]),
            b.backward.log_prob(&[6], &[5])
        );
    }

    #[test]
    fn load_into_mismatched_config_fails() {
        let dir = TestDir::new("persist-mismatch");
        let path = dir.join("mismatch.qrw");
        let a = Seq2Seq::new(ModelConfig::tiny_transformer(20), 1);
        save_model(&a, &path).unwrap();
        let mut bigger = ModelConfig::tiny_transformer(20);
        bigger.d_model = 16;
        bigger.d_ff = 32;
        let b = Seq2Seq::new(bigger, 1);
        assert!(load_model(&b, &path).is_err());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let a = Seq2Seq::new(ModelConfig::tiny_transformer(20), 1);
        assert!(load_model(&a, "/nonexistent/nope.qrw").is_err());
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = TestDir::new("persist-atomic");
        let path = dir.join("m.qrw");
        DiskSink.write_atomic(&path, b"payload-one").unwrap();
        DiskSink.write_atomic(&path, b"payload-two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload-two");
        let leftovers: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    }

    #[test]
    fn manifest_round_trips_and_seals() {
        let m = Manifest::of_members(&[("a.qrw", b"aaaa".as_slice()), ("b.qrw", b"bb")]);
        let bytes = m.to_bytes();
        assert_eq!(Manifest::parse(&bytes).unwrap(), m);
        // Any corruption of the manifest text fails the seal (or parse).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::parse(&bad).is_err(), "corruption at byte {i} accepted");
        }
        // Truncations are rejected too.
        for cut in 0..bytes.len() {
            assert!(Manifest::parse(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn joint_pair_with_mismatched_member_is_rejected_wholesale() {
        let dir = TestDir::new("persist-joint-torn");
        let stem = dir.join("joint");
        let cfg = ModelConfig::tiny_transformer(20);
        let a = JointModel::new(Seq2Seq::new(cfg.clone(), 1), Seq2Seq::new(cfg.clone(), 2));
        save_joint(&a, &stem).unwrap();
        // Simulate a crash window: the forward file was re-written by a
        // newer save but the manifest still describes the old pair.
        let b = JointModel::new(Seq2Seq::new(cfg.clone(), 9), Seq2Seq::new(cfg.clone(), 10));
        save_model(&b.forward, with_suffix(&stem, "forward")).unwrap();
        let c = JointModel::new(Seq2Seq::new(cfg.clone(), 5), Seq2Seq::new(cfg, 6));
        let before = c.forward.log_prob(&[5], &[6]);
        let err = load_joint(&c, &stem).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Nothing was loaded: verification happens before any mutation.
        assert_eq!(c.forward.log_prob(&[5], &[6]), before);
    }

    #[test]
    fn joint_without_manifest_is_rejected() {
        let dir = TestDir::new("persist-joint-nomanifest");
        let stem = dir.join("joint");
        let cfg = ModelConfig::tiny_transformer(20);
        let a = JointModel::new(Seq2Seq::new(cfg.clone(), 1), Seq2Seq::new(cfg.clone(), 2));
        save_joint(&a, &stem).unwrap();
        fs::remove_file(manifest_path(&stem)).unwrap();
        let b = JointModel::new(Seq2Seq::new(cfg.clone(), 3), Seq2Seq::new(cfg, 4));
        assert!(load_joint(&b, &stem).is_err());
    }
}
