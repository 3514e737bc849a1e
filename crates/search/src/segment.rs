//! Sealed catalog segments: the durable unit of index mutation.
//!
//! A live catalog evolves as a sequence of **mutation batches** (document
//! add / update / remove). Each batch seals into a [`Segment`] — an
//! append-only operation log with a CRC-32-guarded binary encoding — and
//! the full ordered segment set *is* the catalog: replaying every segment
//! onto an empty [`InvertedIndex`] deterministically reconstructs the
//! index bit-for-bit (same docs, same tombstones, same counters). That
//! replay determinism is what makes crash recovery exact: the snapshot
//! layer persists the sealed segment set through the PR-3
//! `CheckpointStore` discipline and recovery replays whatever set the
//! last durable `MANIFEST` sealed.
//!
//! The CRC-32 seal here guards a *single segment file* against torn or
//! bit-flipped bytes, which is exactly what CRC is for. The cross-file
//! commit record (the `MANIFEST`) still uses FNV-1a-64 member digests —
//! plain CRC-32 stays banned there because every sealed segment file ends
//! in its own CRC trailer, and CRC-32 of any CRC-terminated message is the
//! constant residue `0x2144DF1C`, so a manifest-of-CRCs could not tell
//! segment files apart (see `qrw_core::persist`).

use crate::index::InvertedIndex;
use qrw_tensor::serialize::crc32;

/// Magic prefix of the segment encoding ("QRW seGment").
pub const SEGMENT_MAGIC: &[u8; 4] = b"QRWG";
/// Current encoding version.
pub const SEGMENT_VERSION: u32 = 1;

/// One catalog mutation. Document ids are *global* ids in the epoch the
/// batch is applied against (insertion order, tombstones included).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogOp {
    /// Index a new document; it receives the next global id.
    Add { tokens: Vec<String> },
    /// Tombstone a document. Removing an already-dead or out-of-range id
    /// is a recorded no-op (replay stays deterministic either way).
    Remove { doc: u64 },
    /// Replace a document's tokens: tombstone `doc`, add the new tokens
    /// under a fresh id.
    Update { doc: u64, tokens: Vec<String> },
}

/// A batch of catalog mutations a writer applies atomically: readers
/// observe either none of the batch or all of it (via epoch publication),
/// never a prefix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationBatch {
    pub ops: Vec<CatalogOp>,
}

impl MutationBatch {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_doc(mut self, tokens: Vec<String>) -> Self {
        self.ops.push(CatalogOp::Add { tokens });
        self
    }

    pub fn remove_doc(mut self, doc: usize) -> Self {
        self.ops.push(CatalogOp::Remove { doc: doc as u64 });
        self
    }

    pub fn update_doc(mut self, doc: usize, tokens: Vec<String>) -> Self {
        self.ops.push(CatalogOp::Update { doc: doc as u64, tokens });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// A sealed mutation batch: the immutable, durable form of one catalog
/// epoch transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    ops: Vec<CatalogOp>,
}

impl Segment {
    /// Seals a batch into a segment.
    pub fn seal(batch: MutationBatch) -> Self {
        Segment { ops: batch.ops }
    }

    /// The base segment of a catalog: pure adds reproducing `docs` in
    /// order. Compaction collapses a segment chain into one of these.
    pub fn base_of<I, D>(docs: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator,
        D::Item: AsRef<str>,
    {
        Segment {
            ops: docs
                .into_iter()
                .map(|d| CatalogOp::Add {
                    tokens: d.into_iter().map(|t| t.as_ref().to_owned()).collect(),
                })
                .collect(),
        }
    }

    pub fn ops(&self) -> &[CatalogOp] {
        &self.ops
    }

    /// Applies the op log to an index in order. Deterministic: the same
    /// segment applied to equal indexes yields equal indexes.
    pub fn apply(&self, index: &mut InvertedIndex) {
        for op in &self.ops {
            match op {
                CatalogOp::Add { tokens } => {
                    index.add_doc(tokens);
                }
                CatalogOp::Remove { doc } => {
                    index.remove_doc(*doc as usize);
                }
                CatalogOp::Update { doc, tokens } => {
                    index.remove_doc(*doc as usize);
                    index.add_doc(tokens);
                }
            }
        }
    }

    /// Binary encoding:
    ///
    /// ```text
    /// "QRWG" | u32 version | u32 op_count | ops... | u32 crc32(prefix)
    /// ```
    ///
    /// Each op is a `u8` tag (0 = Add, 1 = Remove, 2 = Update) followed by
    /// its payload; strings are `u32` length + UTF-8 bytes. All integers
    /// little-endian. The trailing CRC-32 covers every preceding byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 16);
        out.extend_from_slice(SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                CatalogOp::Add { tokens } => {
                    out.push(0);
                    encode_tokens(&mut out, tokens);
                }
                CatalogOp::Remove { doc } => {
                    out.push(1);
                    out.extend_from_slice(&doc.to_le_bytes());
                }
                CatalogOp::Update { doc, tokens } => {
                    out.push(2);
                    out.extend_from_slice(&doc.to_le_bytes());
                    encode_tokens(&mut out, tokens);
                }
            }
        }
        let seal = crc32(&out);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    /// Decodes and verifies a sealed segment. Any torn, truncated,
    /// bit-flipped or trailing-garbage input is an error — recovery treats
    /// a segment that fails to decode as "the commit never happened".
    pub fn decode(bytes: &[u8]) -> Result<Segment, String> {
        if bytes.len() < SEGMENT_MAGIC.len() + 4 + 4 + 4 {
            return Err(format!("segment too short: {} bytes", bytes.len()));
        }
        let (body, seal) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(seal.try_into().unwrap());
        let got = crc32(body);
        if want != got {
            return Err(format!("segment CRC mismatch: stored {want:#010x}, computed {got:#010x}"));
        }
        let mut r = Reader { buf: body, pos: 0 };
        let magic = r.take(4)?;
        if magic != SEGMENT_MAGIC {
            return Err(format!("bad segment magic: {magic:?}"));
        }
        let version = r.u32()?;
        if version != SEGMENT_VERSION {
            return Err(format!("unsupported segment version {version}"));
        }
        let count = r.u32()? as usize;
        let mut ops = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let tag = r.u8()?;
            ops.push(match tag {
                0 => CatalogOp::Add { tokens: r.tokens()? },
                1 => CatalogOp::Remove { doc: r.u64()? },
                2 => CatalogOp::Update { doc: r.u64()?, tokens: r.tokens()? },
                t => return Err(format!("unknown segment op tag {t}")),
            });
        }
        if r.pos != body.len() {
            return Err(format!(
                "segment has {} trailing bytes after {} ops",
                body.len() - r.pos,
                count
            ));
        }
        Ok(Segment { ops })
    }
}

fn encode_tokens(out: &mut Vec<u8>, tokens: &[String]) {
    out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
    for t in tokens {
        out.extend_from_slice(&(t.len() as u32).to_le_bytes());
        out.extend_from_slice(t.as_bytes());
    }
}

/// Bounds-checked little-endian cursor over the segment body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "segment truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("segment token not UTF-8: {e}"))
    }

    fn tokens(&mut self) -> Result<Vec<String>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.string()?);
        }
        Ok(out)
    }
}

/// Replays an ordered segment chain onto an empty index. This is the
/// recovery path: the result is bit-for-bit the index the writer held
/// when it sealed the last segment of the chain.
pub fn replay(segments: &[Segment]) -> InvertedIndex {
    let mut index = InvertedIndex::new();
    for seg in segments {
        seg.apply(&mut index);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn sample() -> Segment {
        Segment::seal(
            MutationBatch::new()
                .add_doc(toks("red shoes men"))
                .add_doc(toks("black shoes women"))
                .remove_doc(0)
                .update_doc(1, toks("black boots women")),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let seg = sample();
        let bytes = seg.encode();
        let back = Segment::decode(&bytes).unwrap();
        assert_eq!(seg, back);
    }

    #[test]
    fn every_torn_prefix_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                Segment::decode(&bytes[..cut]).is_err(),
                "torn prefix of {cut}/{} bytes decoded successfully",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    Segment::decode(&bad).is_err(),
                    "bit flip at byte {i} bit {bit} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Segment::decode(&bytes).is_err());
    }

    #[test]
    fn replay_matches_direct_application() {
        let mut direct = InvertedIndex::new();
        direct.add_doc(toks("red shoes men"));
        direct.add_doc(toks("black shoes women"));
        direct.remove_doc(0);
        direct.remove_doc(1);
        direct.add_doc(toks("black boots women"));

        let replayed = replay(&[sample()]);
        assert_eq!(replayed.fingerprint(), direct.fingerprint());
        assert_eq!(replayed.live_len(), 1);
        assert_eq!(replayed.brute_force_and(&toks("boots")), vec![2]);
    }

    #[test]
    fn replay_is_deterministic_across_chains() {
        let chain = vec![
            Segment::seal(MutationBatch::new().add_doc(toks("a b")).add_doc(toks("b c"))),
            Segment::seal(MutationBatch::new().remove_doc(0).add_doc(toks("c d"))),
            Segment::seal(MutationBatch::new().update_doc(1, toks("b c e"))),
        ];
        let x = replay(&chain);
        let y = replay(&chain);
        assert_eq!(x.fingerprint(), y.fingerprint());
    }

    #[test]
    fn base_of_reproduces_live_docs() {
        let mut idx = InvertedIndex::build(vec![toks("a b"), toks("c d"), toks("e f")]);
        idx.remove_doc(1);
        idx.compact();
        let base = Segment::base_of((0..idx.len()).map(|i| idx.doc_tokens(i)));
        let rebuilt = replay(std::slice::from_ref(&base));
        assert_eq!(rebuilt.fingerprint(), idx.fingerprint());
    }

    #[test]
    fn remove_of_dead_or_oob_id_is_a_stable_no_op() {
        let seg = Segment::seal(
            MutationBatch::new().add_doc(toks("a")).remove_doc(0).remove_doc(0).remove_doc(42),
        );
        let idx = replay(std::slice::from_ref(&seg));
        assert_eq!(idx.live_len(), 0);
        assert_eq!(idx.len(), 1);
    }
}
