//! Checkpoint serialization for parameter sets.
//!
//! A deliberately tiny binary format (no external schema). Version 2 — the
//! format this module writes — frames every record and the whole file with
//! CRC32 checksums so a torn or bit-flipped checkpoint is *rejected* with a
//! typed [`CheckpointError`] instead of being silently loaded as garbage
//! weights:
//!
//! ```text
//! magic "QRWT" | version u32 = 2 | record count u32
//! per record:   name_len u32 | name | rows u32 | cols u32 | f32 data …
//!               | record crc32 u32          (over the record's own bytes)
//! file trailer: crc32 u32                   (over every preceding byte)
//! ```
//!
//! Version 1 (the original unchecked layout, identical minus both CRC
//! layers) is still parsed for backward compatibility, with only bounds
//! checking — the explicit version gate below is the documented migration
//! path. Loading matches records by name and checks shapes, so a
//! checkpoint can be restored into a freshly-constructed model of the same
//! configuration. Non-finite payload values are rejected in either
//! version: a trained weight or Adam moment is always finite, so a NaN/Inf
//! in a checkpoint means corruption (or a diverged run) and must not load.

use std::collections::HashMap;

use crate::param::ParamSet;
use crate::quant::QuantizedMatrix;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"QRWT";
/// The checkpoint version this module writes for f32 parameter sets.
pub const VERSION: u32 = 2;
/// The legacy unchecked version this module still reads.
pub const VERSION_V1: u32 = 1;
/// The quantized-record version ([`save_quantized`] / [`parse_quantized`]).
/// Deliberately a *different* version under the same magic: a v2 reader
/// sees a quantized checkpoint as `UnsupportedVersion(3)` instead of
/// misinterpreting i8 payloads as f32 weights, and vice versa.
pub const VERSION_V3: u32 = 3;

/// Typed checkpoint failure. Every way a checkpoint buffer can be
/// unusable maps to a distinct variant, so callers (and the kill-point /
/// bit-flip fault-injection tests) can assert *why* a load failed rather
/// than string-matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than the smallest valid header.
    TooShort,
    /// The first four bytes are not `QRWT`.
    BadMagic,
    /// A version the invoked reader does not handle: [`parse`] reads
    /// v1/v2 (f32), [`parse_quantized`] reads v3 (i8) — never each
    /// other's.
    UnsupportedVersion(u32),
    /// Ran out of bytes mid-structure; the payload names which one.
    Truncated(&'static str),
    /// `rows * cols` overflows, or a length prefix exceeds the buffer.
    ShapeOverflow,
    /// A parameter name is not valid UTF-8.
    BadUtf8,
    /// A record's CRC32 does not match its bytes (bit flip / torn write).
    RecordChecksum { index: usize },
    /// The whole-file CRC32 trailer does not match.
    FileChecksum,
    /// A payload value is NaN or infinite.
    NonFinite { name: String },
    /// The model expects a parameter the checkpoint lacks.
    MissingParam(String),
    /// Same name, different shape.
    ShapeMismatch {
        name: String,
        checkpoint: (usize, usize),
        model: (usize, usize),
    },
    /// Trailing bytes after the file trailer (framing is exact in v2).
    TrailingBytes,
    /// A well-framed quantized record whose contents the matrix rejects
    /// (a `-128` payload byte); the reason says which check fired.
    InvalidRecord { name: String, reason: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::TooShort => write!(f, "checkpoint too short"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (f32 reader: 1, 2; quantized reader: 3)"
                )
            }
            CheckpointError::Truncated(what) => write!(f, "truncated {what}"),
            CheckpointError::ShapeOverflow => write!(f, "parameter shape overflow"),
            CheckpointError::BadUtf8 => write!(f, "parameter name is not UTF-8"),
            CheckpointError::RecordChecksum { index } => {
                write!(f, "record {index} checksum mismatch (corrupt checkpoint)")
            }
            CheckpointError::FileChecksum => {
                write!(f, "file checksum mismatch (corrupt checkpoint)")
            }
            CheckpointError::NonFinite { name } => {
                write!(f, "non-finite value in parameter '{name}'")
            }
            CheckpointError::MissingParam(name) => {
                write!(f, "checkpoint is missing parameter '{name}'")
            }
            CheckpointError::ShapeMismatch { name, checkpoint, model } => write!(
                f,
                "shape mismatch for '{name}': checkpoint {checkpoint:?}, model {model:?}"
            ),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::InvalidRecord { name, reason } => {
                write!(f, "invalid quantized record '{name}': {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for std::io::Error {
    fn from(e: CheckpointError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

fn crc_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    })
}

fn crc_feed(mut c: u32, bytes: &[u8]) -> u32 {
    let table = crc_table();
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_feed(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit over `tag ∥ bytes`.
///
/// This exists because CRC32 cannot fingerprint CRC-sealed files. CRC is
/// linear over GF(2), and any message that *ends with its own CRC32*
/// (little-endian) — i.e. every well-formed sealed file like the v2
/// `QRWT` checkpoint — hashes to the fixed residue `0x2144DF1C`; by the
/// same linearity, any choice of initial register state gives equal
/// digests for equal-length sealed files regardless of their content. A
/// manifest fingerprinting such members with CRC32 would accept one
/// valid file swapped for another. FNV-1a's multiply is non-linear, so
/// it has no such degeneracy.
pub fn fnv1a64(tag: &[u8], bytes: &[u8]) -> u64 {
    Fnv1a::default().bytes(tag).bytes(bytes).finish()
}

/// Streaming FNV-1a 64: the one hash the whole stack keys on — MANIFEST
/// seals ([`fnv1a64`]), rewrite-cache stripes and session scopes,
/// document and mailbox routing, and the per-query sampling seeds. Each
/// caller folds its input through the same byte step; the token and query
/// folds add separators so differently split inputs hash apart.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn byte(self, b: u8) -> Self {
        Fnv1a((self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
    }

    pub fn bytes(self, bytes: &[u8]) -> Self {
        bytes.iter().fold(self, |h, &b| h.byte(b))
    }

    /// Each token's bytes then a `0xff` separator, so `["ab","c"]` and
    /// `["a","bc"]` hash apart.
    pub fn tokens(self, tokens: &[String]) -> Self {
        tokens.iter().fold(self, |h, t| h.bytes(t.as_bytes()).byte(0xff))
    }

    /// Each query's [`tokens`](Self::tokens) then a `0xfe` separator, so
    /// `[["a","b"]]` and `[["a"],["b"]]` hash apart.
    pub fn queries(self, queries: &[Vec<String>]) -> Self {
        queries.iter().fold(self, |h, q| h.tokens(q).byte(0xfe))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn put_u32_le(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Serializes all parameters of `params` into a v2 checkpoint buffer.
pub fn save(params: &ParamSet) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32_le(&mut buf, VERSION);
    put_u32_le(&mut buf, params.len() as u32);
    let mut record = Vec::new();
    for p in params {
        record.clear();
        let name = p.name();
        let bytes = name.as_bytes();
        put_u32_le(&mut record, bytes.len() as u32);
        record.extend_from_slice(bytes);
        let v = p.value();
        put_u32_le(&mut record, v.rows() as u32);
        put_u32_le(&mut record, v.cols() as u32);
        for &x in v.data() {
            record.extend_from_slice(&x.to_le_bytes());
        }
        let rec_crc = crc32(&record);
        put_u32_le(&mut record, rec_crc);
        buf.extend_from_slice(&record);
    }
    let file_crc = crc32(&buf);
    put_u32_le(&mut buf, file_crc);
    buf
}

/// A bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Truncated(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u32_le(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn get_f32_le(&mut self, what: &'static str) -> Result<f32, CheckpointError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Parses a checkpoint into `(name, tensor)` records, verifying CRCs for
/// v2 buffers and bounds for both versions. Corrupt input never yields
/// records — it yields a typed [`CheckpointError`].
pub fn parse(buf: &[u8]) -> Result<Vec<(String, Tensor)>, CheckpointError> {
    if buf.len() < 12 {
        return Err(CheckpointError::TooShort);
    }
    let mut r = Reader { buf };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.get_u32_le("version")?;
    let checked = match version {
        VERSION_V1 => false,
        VERSION => true,
        other => return Err(CheckpointError::UnsupportedVersion(other)),
    };
    if checked {
        // Whole-file CRC first: a single flipped bit anywhere fails fast.
        if buf.len() < 16 {
            return Err(CheckpointError::Truncated("file trailer"));
        }
        let (body, trailer) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if crc32(body) != stored {
            return Err(CheckpointError::FileChecksum);
        }
    }
    let count = r.get_u32_le("record count")? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for index in 0..count {
        let record_start = buf.len() - r.remaining();
        let name_len = r.get_u32_le("record header")? as usize;
        if r.remaining() < name_len {
            return Err(CheckpointError::Truncated("parameter name"));
        }
        let name = String::from_utf8(r.take(name_len, "parameter name")?.to_vec())
            .map_err(|_| CheckpointError::BadUtf8)?;
        let rows = r.get_u32_le("record shape")? as usize;
        let cols = r.get_u32_le("record shape")? as usize;
        let n = rows.checked_mul(cols).ok_or(CheckpointError::ShapeOverflow)?;
        if r.remaining() < n.saturating_mul(4) {
            return Err(CheckpointError::Truncated("tensor data"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let x = r.get_f32_le("tensor data")?;
            if !x.is_finite() {
                return Err(CheckpointError::NonFinite { name });
            }
            data.push(x);
        }
        if checked {
            let record_end = buf.len() - r.remaining();
            let stored = r.get_u32_le("record checksum")?;
            if crc32(&buf[record_start..record_end]) != stored {
                return Err(CheckpointError::RecordChecksum { index });
            }
        }
        out.push((name, Tensor::from_vec(rows, cols, data)));
    }
    if checked && r.remaining() != 4 {
        // Exactly the file trailer must remain.
        return Err(if r.remaining() < 4 {
            CheckpointError::Truncated("file trailer")
        } else {
            CheckpointError::TrailingBytes
        });
    }
    Ok(out)
}

/// Restores parameter values by name into `params`.
///
/// Every parameter in `params` must have a same-shaped record in the
/// checkpoint; extra records are ignored.
pub fn load(params: &ParamSet, buf: &[u8]) -> Result<(), CheckpointError> {
    let records = parse(buf)?;
    let by_name: HashMap<&str, &Tensor> =
        records.iter().map(|(n, t)| (n.as_str(), t)).collect();
    for p in params {
        let name = p.name();
        let t = by_name
            .get(name.as_str())
            .ok_or_else(|| CheckpointError::MissingParam(name.clone()))?;
        if t.shape() != p.shape() {
            return Err(CheckpointError::ShapeMismatch {
                name,
                checkpoint: t.shape(),
                model: p.shape(),
            });
        }
        p.set_value((*t).clone());
    }
    Ok(())
}

/// Serializes named quantized matrices into a v3 checkpoint buffer.
///
/// Same CRC framing discipline as v2 (per-record + whole-file), new
/// record body:
///
/// ```text
/// magic "QRWT" | version u32 = 3 | record count u32
/// per record:   name_len u32 | name | rows u32 | cols u32
///               | f32 row scales (rows) … | i8 data (rows*cols) …
///               | record crc32 u32
/// file trailer: crc32 u32
/// ```
pub fn save_quantized(records: &[(&str, &QuantizedMatrix)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32_le(&mut buf, VERSION_V3);
    put_u32_le(&mut buf, records.len() as u32);
    let mut record = Vec::new();
    for (name, m) in records {
        record.clear();
        let bytes = name.as_bytes();
        put_u32_le(&mut record, bytes.len() as u32);
        record.extend_from_slice(bytes);
        put_u32_le(&mut record, m.rows() as u32);
        put_u32_le(&mut record, m.cols() as u32);
        for &s in m.scales() {
            record.extend_from_slice(&s.to_le_bytes());
        }
        record.extend(m.data().iter().map(|&q| q as u8));
        let rec_crc = crc32(&record);
        put_u32_le(&mut record, rec_crc);
        buf.extend_from_slice(&record);
    }
    let file_crc = crc32(&buf);
    put_u32_le(&mut buf, file_crc);
    buf
}

/// Parses a v3 quantized checkpoint into `(name, matrix)` records with
/// the same hostility as [`parse`]: CRCs verified first, every length
/// bounds-checked, scales must be finite and non-negative, framing must
/// be exact. v1/v2 buffers are rejected with
/// [`CheckpointError::UnsupportedVersion`] — an f32 checkpoint is never
/// reinterpreted as i8 payloads.
pub fn parse_quantized(buf: &[u8]) -> Result<Vec<(String, QuantizedMatrix)>, CheckpointError> {
    if buf.len() < 12 {
        return Err(CheckpointError::TooShort);
    }
    let mut r = Reader { buf };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.get_u32_le("version")?;
    if version != VERSION_V3 {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if buf.len() < 16 {
        return Err(CheckpointError::Truncated("file trailer"));
    }
    let (body, trailer) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(body) != stored {
        return Err(CheckpointError::FileChecksum);
    }
    let count = r.get_u32_le("record count")? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for index in 0..count {
        let record_start = buf.len() - r.remaining();
        let name_len = r.get_u32_le("record header")? as usize;
        if r.remaining() < name_len {
            return Err(CheckpointError::Truncated("parameter name"));
        }
        let name = String::from_utf8(r.take(name_len, "parameter name")?.to_vec())
            .map_err(|_| CheckpointError::BadUtf8)?;
        let rows = r.get_u32_le("record shape")? as usize;
        let cols = r.get_u32_le("record shape")? as usize;
        let n = rows.checked_mul(cols).ok_or(CheckpointError::ShapeOverflow)?;
        if r.remaining() < rows.saturating_mul(4).saturating_add(n) {
            return Err(CheckpointError::Truncated("quantized data"));
        }
        let mut scales = Vec::with_capacity(rows);
        for _ in 0..rows {
            let s = r.get_f32_le("row scales")?;
            if !s.is_finite() || s < 0.0 {
                return Err(CheckpointError::NonFinite { name });
            }
            scales.push(s);
        }
        let data: Vec<i8> = r.take(n, "quantized data")?.iter().map(|&b| b as i8).collect();
        let record_end = buf.len() - r.remaining();
        let stored = r.get_u32_le("record checksum")?;
        if crc32(&buf[record_start..record_end]) != stored {
            return Err(CheckpointError::RecordChecksum { index });
        }
        let matrix = QuantizedMatrix::from_parts(rows, cols, data, scales)
            .map_err(|reason| CheckpointError::InvalidRecord { name: name.clone(), reason })?;
        out.push((name, matrix));
    }
    if r.remaining() != 4 {
        return Err(if r.remaining() < 4 {
            CheckpointError::Truncated("file trailer")
        } else {
            CheckpointError::TrailingBytes
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ParamSet {
        let mut set = ParamSet::new();
        set.add("w", Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        set.add("b", Tensor::row(vec![-1.5, 0.25]));
        set
    }

    /// The v1 writer, kept verbatim for compatibility tests.
    fn save_v1(params: &ParamSet) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u32_le(&mut buf, VERSION_V1);
        put_u32_le(&mut buf, params.len() as u32);
        for p in params {
            let name = p.name();
            let bytes = name.as_bytes();
            put_u32_le(&mut buf, bytes.len() as u32);
            buf.extend_from_slice(bytes);
            let v = p.value();
            put_u32_le(&mut buf, v.rows() as u32);
            put_u32_le(&mut buf, v.cols() as u32);
            for &x in v.data() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn roundtrip_restores_values() {
        let src = sample_set();
        let bytes = save(&src);
        let dst = sample_set();
        for p in &dst {
            p.set_value(Tensor::zeros(p.shape().0, p.shape().1));
        }
        load(&dst, &bytes).unwrap();
        for (a, b) in src.iter().zip(dst.iter()) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn v1_checkpoints_still_load() {
        let src = sample_set();
        let bytes = save_v1(&src);
        let dst = sample_set();
        for p in &dst {
            p.set_value(Tensor::zeros(p.shape().0, p.shape().1));
        }
        load(&dst, &bytes).unwrap();
        for (a, b) in src.iter().zip(dst.iter()) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load(&sample_set(), b"NOPE\0\0\0\0\0\0\0\0").unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = save(&sample_set());
        bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
        let err = parse(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion(7));
    }

    #[test]
    fn rejects_missing_param() {
        let mut partial = ParamSet::new();
        partial.add("w", Tensor::zeros(2, 2));
        let bytes = save(&partial);
        let err = load(&sample_set(), &bytes).unwrap_err();
        assert_eq!(err, CheckpointError::MissingParam("b".into()));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut other = ParamSet::new();
        other.add("w", Tensor::zeros(3, 3));
        other.add("b", Tensor::row(vec![0.0, 0.0]));
        let bytes = save(&other);
        let err = load(&sample_set(), &bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let bytes = save(&sample_set());
        let err = load(&sample_set(), &bytes[..bytes.len() - 3]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated(_) | CheckpointError::FileChecksum),
            "{err}"
        );
    }

    #[test]
    fn rejects_every_single_bit_flip() {
        let bytes = save(&sample_set());
        // Flipping any one bit anywhere must fail the file CRC (or an
        // earlier structural check) — never load silently.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    parse(&corrupt).is_err(),
                    "bit flip at byte {byte} bit {bit} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn rejects_non_finite_payload() {
        // Build a v2 buffer with a NaN and *valid* CRCs: the finiteness
        // check itself must fire, not the checksum.
        let mut set = ParamSet::new();
        set.add("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let mut bytes = save(&set);
        // Overwrite the second payload float (offset: 12 header + 4 name_len
        // + 1 name + 8 shape + 4 first float).
        let off = 12 + 4 + 1 + 8 + 4;
        bytes[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        // Re-seal both CRCs so only the NaN is "wrong".
        let rec_end = off + 4;
        let rec_crc = crc32(&bytes[12..rec_end]);
        bytes[rec_end..rec_end + 4].copy_from_slice(&rec_crc.to_le_bytes());
        let body_len = bytes.len() - 4;
        let file_crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&file_crc.to_le_bytes());
        let err = parse(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::NonFinite { name: "w".into() });
    }

    fn sample_quant() -> Vec<(String, QuantizedMatrix)> {
        let a = QuantizedMatrix::from_rows(&Tensor::from_vec(2, 3, vec![0.5, -1.0, 0.25, 2.0, 0.0, -0.125]));
        let b = QuantizedMatrix::from_rows(&Tensor::row(vec![1.0, -1.0]));
        vec![("student.out".into(), a), ("student.ff".into(), b)]
    }

    #[test]
    fn quantized_roundtrip_is_exact() {
        let records = sample_quant();
        let refs: Vec<(&str, &QuantizedMatrix)> =
            records.iter().map(|(n, m)| (n.as_str(), m)).collect();
        let bytes = save_quantized(&refs);
        let back = parse_quantized(&bytes).unwrap();
        assert_eq!(back.len(), records.len());
        for ((n0, m0), (n1, m1)) in records.iter().zip(&back) {
            assert_eq!(n0, n1);
            assert_eq!(m0, m1);
        }
    }

    /// The version gate both ways: a v2 (f32) reader must reject a v3
    /// quantized checkpoint with a *typed* error, and the v3 reader must
    /// reject v1/v2 f32 files rather than reinterpret their payloads.
    #[test]
    fn version_gate_separates_f32_and_quantized_readers() {
        let records = sample_quant();
        let refs: Vec<(&str, &QuantizedMatrix)> =
            records.iter().map(|(n, m)| (n.as_str(), m)).collect();
        let v3 = save_quantized(&refs);
        assert_eq!(parse(&v3).unwrap_err(), CheckpointError::UnsupportedVersion(3));
        assert_eq!(load(&sample_set(), &v3).unwrap_err(), CheckpointError::UnsupportedVersion(3));

        let v2 = save(&sample_set());
        assert_eq!(parse_quantized(&v2).unwrap_err(), CheckpointError::UnsupportedVersion(2));
        let v1 = save_v1(&sample_set());
        assert_eq!(parse_quantized(&v1).unwrap_err(), CheckpointError::UnsupportedVersion(1));
        // And v1/v2 still load through the f32 reader (no regression).
        assert!(parse(&v1).is_ok());
        assert!(parse(&v2).is_ok());
    }

    #[test]
    fn quantized_rejects_every_single_bit_flip() {
        let records = sample_quant();
        let refs: Vec<(&str, &QuantizedMatrix)> =
            records.iter().map(|(n, m)| (n.as_str(), m)).collect();
        let bytes = save_quantized(&refs);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    parse_quantized(&corrupt).is_err(),
                    "bit flip at byte {byte} bit {bit} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn quantized_rejects_hostile_structures() {
        // Truncation at every prefix length: typed error, never a panic.
        let records = sample_quant();
        let refs: Vec<(&str, &QuantizedMatrix)> =
            records.iter().map(|(n, m)| (n.as_str(), m)).collect();
        let bytes = save_quantized(&refs);
        for cut in 0..bytes.len() {
            assert!(parse_quantized(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        // A negative / non-finite scale with re-sealed CRCs must fail the
        // finiteness check itself, not the checksum.
        let m = QuantizedMatrix::from_rows(&Tensor::row(vec![1.0, 2.0]));
        let mut evil = save_quantized(&[("w", &m)]);
        let off = 12 + 4 + 1 + 8; // header, name_len, "w", rows+cols
        evil[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let rec_end = evil.len() - 8; // record crc + file crc
        let rec_crc = crc32(&evil[12..rec_end]);
        evil[rec_end..rec_end + 4].copy_from_slice(&rec_crc.to_le_bytes());
        let body_len = evil.len() - 4;
        let file_crc = crc32(&evil[..body_len]);
        evil[body_len..].copy_from_slice(&file_crc.to_le_bytes());
        assert_eq!(
            parse_quantized(&evil).unwrap_err(),
            CheckpointError::NonFinite { name: "w".into() }
        );
    }

    /// A `-128` payload byte in a v3 blob with re-sealed CRCs: the code
    /// range check itself must fire (the quantizer never emits -128).
    #[test]
    fn quantized_rejects_minus_128_payload() {
        let m = QuantizedMatrix::from_rows(&Tensor::row(vec![1.0, 2.0]));
        let mut evil = save_quantized(&[("w", &m)]);
        let off = 12 + 4 + 1 + 8 + 4; // header, name_len, "w", rows+cols, one scale
        evil[off] = 0x80;
        let rec_end = evil.len() - 8;
        let rec_crc = crc32(&evil[12..rec_end]);
        evil[rec_end..rec_end + 4].copy_from_slice(&rec_crc.to_le_bytes());
        let body_len = evil.len() - 4;
        let file_crc = crc32(&evil[..body_len]);
        evil[body_len..].copy_from_slice(&file_crc.to_le_bytes());
        assert!(matches!(
            parse_quantized(&evil).unwrap_err(),
            CheckpointError::InvalidRecord { name, .. } if name == "w"
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_files_hit_the_crc_residue_but_fnv_distinguishes_them() {
        // Every sealed file ends with its own CRC32, so plain crc32 over
        // the whole file is the constant residue — for ANY content. This
        // is why manifests fingerprint members with FNV-1a, not CRC32.
        let seal = |payload: &[u8]| {
            let mut m = payload.to_vec();
            let c = crc32(&m);
            put_u32_le(&mut m, c);
            m
        };
        let a = seal(b"payload-A");
        let b = seal(b"payload-B");
        assert_eq!(crc32(&a), 0x2144_DF1C);
        assert_eq!(crc32(&a), crc32(&b), "residue degeneracy");
        // FNV-1a is non-linear: content matters again.
        assert_ne!(fnv1a64(b"tag", &a), fnv1a64(b"tag", &b));
        // Standard FNV-1a 64 check value, and tag ∥ bytes concatenation.
        assert_eq!(fnv1a64(b"", b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"ab", b"c"), fnv1a64(b"", b"abc"));
    }

    /// Pins `fnv1a64`'s output: it seals every MANIFEST, so a changed bit
    /// would make existing checkpoints unreadable.
    #[test]
    fn fnv1a64_golden_values() {
        assert_eq!(fnv1a64(b"", b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"IDX1", b"hello"), 0x918D_1801_AD3F_89E9);
        assert_eq!(fnv1a64(b"tag", &[0, 1, 2, 255]), 0x65BD_A180_C9B4_7803);
    }
}
