//! Disk persistence for [`SolutionStore`]: a versioned binary snapshot
//! that round-trips the store bitwise.
//!
//! The store is the one piece of fleet state worth keeping across process
//! lifetimes — it is exactly the accumulated warm-start capital the paper's
//! tracking experiment builds period over period. This module lowers a
//! store to the workspace serde shim's [`Value`] tree, encodes that tree as
//! tag-length-value bytes, and writes it with an atomic temp-file-plus-
//! rename, so a daemon killed mid-flush never leaves a truncated file
//! behind.
//!
//! ## File layout
//!
//! All integers and floats are little-endian.
//!
//! | bytes | field |
//! |---|---|
//! | 8 | [`MAGIC`] |
//! | 4 | [`FORMAT_VERSION`] (`u32`) |
//! | 8 | body length (`u64`) |
//! | 8 | body checksum (`u64`, see below) |
//! | … | body: one encoded [`Value`] |
//!
//! A value is one tag byte followed by its payload:
//!
//! | tag | value | payload |
//! |---|---|---|
//! | `0` | `Null` | — |
//! | `1` / `2` | `Bool(false)` / `Bool(true)` | — |
//! | `3` | `Num` | 8 bytes of raw `f64` bits |
//! | `4` | `Str` | `u32` byte length, UTF-8 bytes |
//! | `5` | `Seq` | `u32` count, that many values |
//! | `6` | `Map` | `u32` count, that many (key, value) pairs; a key is a `u32` byte length and UTF-8 bytes, untagged |
//! | `7` | `Seq` of numbers only | `u32` count, 8 bytes of raw `f64` bits per item |
//!
//! A sequence whose items are all numbers — load vectors and warm-start
//! payloads, almost the whole file — always takes tag `7`, so the encoding
//! of a tree is unique.
//!
//! ## Checksum
//!
//! The checksum is FNV-1a over the body read as little-endian 8-byte
//! words, then over its trailing bytes one at a time, then over the body
//! length. Every word enters through a bijective step, so any change
//! confined to one word — every single flipped bit — always changes the
//! checksum. It detects corruption; it does not authenticate: anyone who
//! can write the file can write a matching checksum.
//!
//! ## Loading
//!
//! [`SolutionStore::load`] checks the magic, the version, the body length
//! and the checksum before decoding anything. The decoder bounds-checks
//! every read, refuses a count that the remaining body could not hold
//! before allocating for it, and caps nesting at [`MAX_DEPTH`]. Every
//! malformed file is an [`io::ErrorKind::InvalidData`] error, never a
//! panic — and so is an entry whose load vector does not have its group's
//! dimension, which a lookup in that group could not measure.
//!
//! ## Determinism and bitwise fidelity
//!
//! Lookups are keyed by `(distance, insertion index)`, so persistence must
//! preserve *insertion order* exactly: groups are written sorted by
//! `(case id, structure, dim)` and entries in insertion order, and nothing
//! is derived on load. Numbers travel as their raw bits, and the shim
//! lowers the non-finite floats to the marker strings `"inf"`, `"-inf"`
//! and `"nan"`, so a reloaded store answers every `nearest` query with the
//! same entry at the same bit-identical distance and payload as the
//! original, and the same store always saves to the same bytes.
//!
//! ## Versioning
//!
//! The header carries [`FORMAT_VERSION`], and the tree repeats it in its
//! `version` field; loading any other version fails with a descriptive
//! error rather than misinterpreting the bytes. Bump the version whenever
//! the encoding or the shape of the tree changes. There is no reader for
//! older versions: a version-2 (JSON) or version-3 store file is refused,
//! and deleting it costs only the warm starts it held.

use crate::{GroupKey, SolutionStore, StoredEntry};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// On-disk format version; see the module docs of `persist.rs` for the contract.
/// Version 3 replaced the JSON text with the binary snapshot. Version 4
/// dropped the store's tuning, its insertion stamps and each entry's norm:
/// the tree is the version and the groups' entries, loads and payloads.
pub(crate) const FORMAT_VERSION: u32 = 4;

/// The first eight bytes of every snapshot. The leading non-ASCII byte
/// keeps any text file — a version-2 JSON store included — from matching.
pub const MAGIC: [u8; 8] = *b"\x89GSTORE\n";

/// Deepest nesting the decoder accepts (and the encoder writes). A store
/// tree is about eight levels deep.
pub(crate) const MAX_DEPTH: usize = 64;

const HEADER_LEN: usize = 28;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_NUM: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_SEQ: u8 = 5;
const TAG_MAP: u8 = 6;
const TAG_NUMS: u8 = 7;

impl<P: Serialize> Serialize for SolutionStore<P> {
    fn to_value(&self) -> Value {
        let mut keys: Vec<&GroupKey> = self.groups.keys().collect();
        keys.sort_by(|a, b| {
            (a.case_id.as_str(), a.structure, a.dim).cmp(&(b.case_id.as_str(), b.structure, b.dim))
        });
        let groups = keys
            .into_iter()
            .map(|key| {
                let entries = self.groups[key]
                    .iter()
                    .map(|e| {
                        Value::Map(vec![
                            ("loads".to_string(), e.loads.to_value()),
                            ("payload".to_string(), e.payload.to_value()),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    ("case_id".to_string(), Value::Str(key.case_id.clone())),
                    // u64 hashes exceed f64's exact-integer range, so the
                    // structure signature travels as a decimal string.
                    (
                        "structure".to_string(),
                        Value::Str(key.structure.to_string()),
                    ),
                    ("dim".to_string(), Value::Num(key.dim as f64)),
                    ("entries".to_string(), Value::Seq(entries)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("version".to_string(), Value::Num(FORMAT_VERSION as f64)),
            ("groups".to_string(), Value::Seq(groups)),
        ])
    }
}

impl<P: Deserialize> Deserialize for SolutionStore<P> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let version: u64 = serde::field(v, "version")?;
        if version != u64::from(FORMAT_VERSION) {
            return Err(DeError::custom(format!(
                "solution store format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let groups_v = match v.get("groups") {
            Some(Value::Seq(items)) => items,
            _ => return Err(DeError::custom("expected sequence for `groups`")),
        };
        let mut groups = HashMap::new();
        for gv in groups_v {
            let case_id: String = serde::field(gv, "case_id")?;
            let structure_s: String = serde::field(gv, "structure")?;
            let structure: u64 = structure_s
                .parse()
                .map_err(|_| DeError::custom("structure signature is not a u64"))?;
            let dim: usize = serde::field(gv, "dim")?;
            let entries_v = match gv.get("entries") {
                Some(Value::Seq(items)) => items,
                _ => return Err(DeError::custom("expected sequence for `entries`")),
            };
            let mut group = Vec::with_capacity(entries_v.len());
            for ev in entries_v {
                let loads: Vec<f64> = serde::field(ev, "loads")?;
                if loads.len() != dim {
                    return Err(DeError::custom(format!(
                        "an entry of case `{case_id}` holds {} loads in a group of dimension {dim}",
                        loads.len()
                    )));
                }
                let payload_v = ev
                    .get("payload")
                    .ok_or_else(|| DeError::custom("missing field `payload`"))?;
                let payload = P::from_value(payload_v)
                    .map_err(|e| DeError::custom(format!("field `payload`: {e}")))?;
                group.push(Arc::new(StoredEntry { loads, payload }));
            }
            groups.insert(
                GroupKey {
                    case_id,
                    structure,
                    dim,
                },
                group,
            );
        }
        Ok(SolutionStore { groups })
    }
}

impl<P: Serialize> SolutionStore<P> {
    /// Write the store to `path` atomically: encode the snapshot to
    /// `path` + `.tmp` in the same directory, then rename over the target.
    /// Readers never observe a partially written snapshot.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let bytes = encode_snapshot(&self.to_value())?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }
}

impl<P: Deserialize> SolutionStore<P> {
    /// Read a store previously written by [`SolutionStore::save`]. Fails
    /// with `InvalidData` on any malformed, corrupt or version-skewed file
    /// (see the module docs of `persist.rs`).
    pub fn load(path: &Path) -> io::Result<SolutionStore<P>> {
        SolutionStore::from_snapshot(&std::fs::read(path)?)
    }

    /// [`load`](SolutionStore::load) from the bytes of a file.
    fn from_snapshot(bytes: &[u8]) -> io::Result<SolutionStore<P>> {
        let tree = decode_snapshot(bytes)?;
        SolutionStore::from_value(&tree).map_err(|e| invalid(format!("solution store: {e}")))
    }
}

impl<P: Deserialize + Serialize> SolutionStore<P> {
    /// [`load`](SolutionStore::load) if `path` exists, otherwise an empty
    /// store — the daemon-startup idiom.
    pub fn load_or_default(path: &Path) -> io::Result<SolutionStore<P>> {
        if path.exists() {
            SolutionStore::load(path)
        } else {
            Ok(SolutionStore::new())
        }
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// FNV-1a over the body's little-endian words, its tail bytes, then its
/// length (see the module docs of `persist.rs`).
fn checksum(body: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let (words, tail) = body.as_chunks::<8>();
    words
        .iter()
        .map(|w| u64::from_le_bytes(*w))
        .chain(tail.iter().map(|&b| u64::from(b)))
        .chain(std::iter::once(body.len() as u64))
        .fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// The whole file for `tree`: header, then the encoded body.
fn encode_snapshot(tree: &Value) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    encode(tree, 0, &mut body)?;
    Ok(frame(&body))
}

/// Prefix `body` with the header that [`decode_snapshot`] checks.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn encode(v: &Value, depth: usize, out: &mut Vec<u8>) -> io::Result<()> {
    if depth >= MAX_DEPTH && matches!(v, Value::Seq(_) | Value::Map(_)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("value tree nests deeper than {MAX_DEPTH} levels"),
        ));
    }
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Num(n) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out)?;
        }
        Value::Seq(items) if items.iter().all(|item| matches!(item, Value::Num(_))) => {
            out.push(TAG_NUMS);
            encode_count(items.len(), out)?;
            for item in items {
                if let Value::Num(n) = item {
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            encode_count(items.len(), out)?;
            for item in items {
                encode(item, depth + 1, out)?;
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            encode_count(entries.len(), out)?;
            for (key, value) in entries {
                encode_str(key, out)?;
                encode(value, depth + 1, out)?;
            }
        }
    }
    Ok(())
}

fn encode_count(n: usize, out: &mut Vec<u8>) -> io::Result<()> {
    let n = u32::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{n} items exceed the snapshot's u32 count"),
        )
    })?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn encode_str(s: &str, out: &mut Vec<u8>) -> io::Result<()> {
    encode_count(s.len(), out)?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Check the header of a whole file and decode its body.
fn decode_snapshot(bytes: &[u8]) -> io::Result<Value> {
    if !bytes.starts_with(&MAGIC) {
        let text = bytes.iter().find(|b| !b.is_ascii_whitespace());
        return Err(invalid(if text == Some(&b'{') {
            format!(
                "solution store file is a version-2 JSON snapshot; this build reads only \
                 binary snapshots (format version {FORMAT_VERSION}); delete the file to \
                 start from an empty store"
            )
        } else {
            "not a solution store snapshot (bad magic)".to_string()
        }));
    }
    let truncated = || {
        invalid(format!(
            "solution store snapshot truncated in its header ({} bytes)",
            bytes.len()
        ))
    };
    let (version, rest) = bytes[MAGIC.len()..]
        .split_first_chunk::<4>()
        .ok_or_else(truncated)?;
    let (len, rest) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
    let (sum, body) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
    let version = u32::from_le_bytes(*version);
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "solution store snapshot format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let (len, sum) = (u64::from_le_bytes(*len), u64::from_le_bytes(*sum));
    if len != body.len() as u64 {
        return Err(invalid(format!(
            "solution store snapshot declares a {len}-byte body but {} bytes follow the header",
            body.len()
        )));
    }
    if sum != checksum(body) {
        return Err(invalid("solution store snapshot fails its checksum"));
    }
    let mut decoder = Decoder { body, pos: 0 };
    let tree = decoder
        .value(0)
        .map_err(|e| invalid(format!("solution store snapshot: {e}")))?;
    if decoder.pos != body.len() {
        return Err(invalid(format!(
            "solution store snapshot: trailing bytes after the value at byte {}",
            decoder.pos
        )));
    }
    Ok(tree)
}

/// A bounds-checked reader over a snapshot body.
struct Decoder<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let rest = &self.body[self.pos..];
        if n > rest.len() {
            return Err(format!("body ends inside a value at byte {}", self.pos));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let bytes = self.take(N)?;
        Ok(std::array::from_fn(|i| bytes[i]))
    }

    /// A `u32` count of items that take at least `min_bytes` each, refused
    /// before anything is allocated for it if the rest of the body could
    /// not hold that many.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let at = self.pos;
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n.saturating_mul(min_bytes) > self.body.len() - self.pos {
            return Err(format!("count {n} at byte {at} overruns the body"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, String> {
        let at = self.pos;
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| format!("invalid UTF-8 in the string at byte {at}"))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        let at = self.pos;
        let [tag] = self.array()?;
        if depth >= MAX_DEPTH && matches!(tag, TAG_SEQ | TAG_MAP | TAG_NUMS) {
            return Err(format!(
                "values nest deeper than {MAX_DEPTH} levels at byte {at}"
            ));
        }
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_NUM => Value::Num(f64::from_le_bytes(self.array()?)),
            TAG_STR => Value::Str(self.string()?),
            TAG_NUMS => {
                let n = self.count(8)?;
                let (words, _) = self.take(8 * n)?.as_chunks::<8>();
                Value::Seq(
                    words
                        .iter()
                        .map(|w| Value::Num(f64::from_le_bytes(*w)))
                        .collect(),
                )
            }
            TAG_SEQ => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Seq(items)
            }
            TAG_MAP => {
                // A key is at least its 4-byte length, a value its tag.
                let n = self.count(5)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.string()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Value::Map(entries)
            }
            other => return Err(format!("unknown tag {other} at byte {at}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioFingerprint;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fp(loads: &[f64], structure: u64) -> ScenarioFingerprint {
        ScenarioFingerprint {
            loads: loads.to_vec(),
            structure,
        }
    }

    fn sample_store() -> SolutionStore<f64> {
        let mut store = SolutionStore::new();
        // Several groups, a replaced entry, and awkward float values
        // (negative zero, subnormal-ish magnitudes).
        store.insert("case9", &fp(&[1.0, 2.0, -0.0], 7), 10.5);
        store.insert("case9", &fp(&[1.01, 2.0, 0.0], 7), 11.5);
        store.insert("case9", &fp(&[1.0, 2.0, -0.0], 7), 12.5); // replace index 0
        store.insert("case9", &fp(&[0.25, 0.5], u64::MAX), f64::NEG_INFINITY);
        store.insert("case14", &fp(&[3.0, 1e-300, 4.0], 7), 0.125);
        store
    }

    fn snapshot<P: Serialize>(store: &SolutionStore<P>) -> Vec<u8> {
        encode_snapshot(&store.to_value()).unwrap()
    }

    fn load_bytes(bytes: &[u8]) -> io::Result<SolutionStore<f64>> {
        SolutionStore::from_snapshot(bytes)
    }

    fn assert_invalid(result: io::Result<SolutionStore<f64>>, needle: &str) {
        let err = result.expect_err("a malformed snapshot must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(needle), "{needle:?} not in {err}");
    }

    /// Loads and payload values that text formats tend to get wrong.
    const AWKWARD: [f64; 7] = [
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        1e-300,
        0.1 + 0.2,
    ];

    fn awkward_or_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
        if rng.gen_bool(0.3) {
            AWKWARD[rng.gen_range(0..AWKWARD.len())]
        } else {
            rng.gen_range(lo..hi)
        }
    }

    /// A random store with replaced entries, and every fingerprint it was
    /// fed, in insertion order.
    fn random_store(
        seed: u64,
        inserts: usize,
    ) -> (
        SolutionStore<Vec<f64>>,
        Vec<(&'static str, ScenarioFingerprint)>,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = SolutionStore::new();
        let structures = [7, 0, u64::MAX, rng.gen::<u64>()];
        let mut fed: Vec<(&'static str, ScenarioFingerprint)> = Vec::new();
        for _ in 0..inserts {
            let key = if !fed.is_empty() && rng.gen_bool(0.2) {
                fed[rng.gen_range(0..fed.len())].clone()
            } else {
                let case = ["case9", "case14", "", "cas\u{e9}"][rng.gen_range(0..4usize)];
                let dim = rng.gen_range(1..4usize);
                let loads: Vec<f64> = (0..dim)
                    .map(|_| awkward_or_uniform(&mut rng, -3.0, 3.0))
                    .collect();
                (case, fp(&loads, structures[rng.gen_range(0..4usize)]))
            };
            let payload: Vec<f64> = (0..rng.gen_range(0..4usize))
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => [f64::INFINITY, f64::NEG_INFINITY, f64::MAX][rng.gen_range(0..3usize)],
                    _ => awkward_or_uniform(&mut rng, -1e6, 1e6),
                })
                .collect();
            store.insert(key.0, &key.1, payload);
            fed.push(key);
        }
        (store, fed)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A reloaded random store answers every lookup — at each key it
        /// was fed, replaced ones included, next to it and far from it —
        /// with the same entry, distance bits and payload bits, and saves
        /// back to the same bytes.
        #[test]
        fn round_trip_preserves_every_lookup_bitwise(
            seed in 0u64..u64::MAX,
            inserts in 1usize..60,
        ) {
            let (store, fed) = random_store(seed, inserts);
            let bytes = snapshot(&store);
            let loaded = SolutionStore::<Vec<f64>>::from_snapshot(&bytes).unwrap();
            prop_assert_eq!(loaded.len(), store.len());
            prop_assert_eq!(loaded.group_count(), store.group_count());
            prop_assert!(snapshot(&loaded) == bytes, "a reloaded store saves different bytes");
            for (case, key) in &fed {
                let mut near = key.clone();
                near.loads[0] += 1e-3;
                let mut far = key.clone();
                far.loads[0] += 10.0;
                for q in [key, &near, &far] {
                    match (store.nearest(case, q), loaded.nearest(case, q)) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.index, y.index);
                            prop_assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                            prop_assert_eq!(bits(&x.entry.payload), bits(&y.entry.payload));
                            prop_assert_eq!(bits(&x.entry.loads), bits(&y.entry.loads));
                        }
                        (x, y) => prop_assert!(false, "hit/miss disagree: {x:?} vs {y:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("gridsim-store-persist-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        store.save(&path).unwrap();
        let loaded: SolutionStore<f64> = SolutionStore::load(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        let q = fp(&[1.005, 2.0, 0.0], 7);
        let (a, b) = (
            store.nearest("case9", &q).unwrap(),
            loaded.nearest("case9", &q).unwrap(),
        );
        assert_eq!(
            (a.index, a.distance.to_bits()),
            (b.index, b.distance.to_bits())
        );
        assert_eq!(a.entry.payload.to_bits(), b.entry.payload.to_bits());
        let inf = loaded
            .nearest("case9", &fp(&[0.25, 0.5], u64::MAX))
            .unwrap();
        assert_eq!(inf.entry.payload, f64::NEG_INFINITY);
    }

    #[test]
    fn save_is_deterministic_bytes() {
        let dir = std::env::temp_dir().join("gridsim-store-persist-det");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.bin"), dir.join("b.bin"));
        // Two stores with the same contents hash their groups differently
        // (`HashMap` seeds are per instance); the files must not differ.
        sample_store().save(&a).unwrap();
        sample_store().save(&b).unwrap();
        let (a, b) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert!(a.starts_with(&MAGIC));
        assert_eq!(a, b);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let bytes = snapshot(&sample_store());
        // The header's version field; 3 is the previous binary format. The
        // error names both versions.
        for version in [0, 2, 3, 5, u32::MAX] {
            let mut patched = bytes.clone();
            patched[8..12].copy_from_slice(&version.to_le_bytes());
            assert_invalid(
                load_bytes(&patched),
                &format!("format version {version} (this build reads 4)"),
            );
        }
        // The tree's own `version` field, inside an otherwise valid file.
        let mut tree = sample_store().to_value();
        if let Value::Map(fields) = &mut tree {
            fields[0] = ("version".to_string(), Value::Num(3.0));
        }
        assert_invalid(
            load_bytes(&encode_snapshot(&tree).unwrap()),
            "format version 3 (this build reads 4)",
        );
    }

    #[test]
    fn load_or_default_handles_missing_file() {
        let dir = std::env::temp_dir().join("gridsim-store-persist-missing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("absent.bin");
        let _ = std::fs::remove_file(&path);
        let store: SolutionStore<f64> = SolutionStore::load_or_default(&path).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn truncated_file_is_invalid_data_not_a_panic() {
        let bytes = snapshot(&sample_store());
        for cut in 0..bytes.len() {
            let err = load_bytes(&bytes[..cut]).expect_err("a truncated snapshot must not load");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: {err}"
            );
        }
        // And through the file system, as a torn write would leave it.
        let dir = std::env::temp_dir().join("gridsim-store-persist-trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_invalid(SolutionStore::load(&path), "bytes follow the header");
    }

    #[test]
    fn a_flipped_body_bit_fails_the_checksum() {
        let bytes = snapshot(&sample_store());
        for bit in 8 * HEADER_LEN..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_invalid(load_bytes(&flipped), "checksum");
        }
    }

    #[test]
    fn a_wrong_magic_is_refused_and_a_json_store_is_named() {
        let mut bytes = snapshot(&sample_store());
        bytes[1] = b'X';
        assert_invalid(load_bytes(&bytes), "bad magic");
        assert_invalid(load_bytes(b""), "bad magic");
        // What a version-2 build wrote.
        let v2 = br#"{"version":2,"config":{"max_relative_distance":0.1,"bucket_width":0.05,"max_entries":0},"next_stamp":0,"groups":[]}"#;
        let err = load_bytes(v2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(message.contains("version-2 JSON"), "{message}");
        assert!(
            message.contains("binary snapshots (format version 4)"),
            "{message}"
        );
    }

    #[test]
    fn a_huge_count_fails_before_it_is_allocated() {
        // Each would ask for 2³²−1 items (over 100 GiB of `Value`s) from a
        // body of a few bytes.
        for tag in [TAG_SEQ, TAG_MAP, TAG_NUMS, TAG_STR] {
            let mut body = vec![tag];
            body.extend_from_slice(&u32::MAX.to_le_bytes());
            body.extend_from_slice(&[TAG_NULL; 16]);
            assert_invalid(load_bytes(&frame(&body)), "overruns the body");
        }
    }

    #[test]
    fn deep_nesting_is_refused() {
        let mut body = Vec::new();
        for _ in 0..10_000 {
            body.push(TAG_SEQ);
            body.extend_from_slice(&1u32.to_le_bytes());
        }
        body.push(TAG_NULL);
        assert_invalid(load_bytes(&frame(&body)), "nest deeper than 64 levels");
        // The encoder refuses to write what the decoder would refuse.
        let deep = (0..MAX_DEPTH + 1).fold(Value::Null, |v, _| Value::Seq(vec![v]));
        let err = encode_snapshot(&deep).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let shallow = (0..MAX_DEPTH).fold(Value::Null, |v, _| Value::Seq(vec![v]));
        assert_eq!(
            decode_snapshot(&encode_snapshot(&shallow).unwrap()).unwrap(),
            shallow
        );
    }

    #[test]
    fn malformed_bodies_are_invalid_data() {
        let cases: [(&[u8], &str); 5] = [
            (&[0xff], "unknown tag 255"),
            (&[TAG_NUM, 0, 0], "body ends inside a value"),
            (&[TAG_STR, 2, 0, 0, 0, 0xc3, 0x28], "invalid UTF-8"),
            (&[TAG_NULL, TAG_NULL], "trailing bytes"),
            // A valid tree that is not a store.
            (&[TAG_NUMS, 0, 0, 0, 0], "missing field `version`"),
        ];
        for (body, needle) in cases {
            assert_invalid(load_bytes(&frame(body)), needle);
        }
    }

    /// The items of the sequence `name` in a map of the tree.
    fn seq_mut<'a>(v: &'a mut Value, name: &str) -> &'a mut Vec<Value> {
        let Value::Map(fields) = v else {
            panic!("expected a map, found {v:?}");
        };
        match fields.iter_mut().find(|(k, _)| k == name) {
            Some((_, Value::Seq(items))) => items,
            other => panic!("expected a sequence `{name}`, found {other:?}"),
        }
    }

    #[test]
    fn an_entry_off_its_group_dimension_is_refused() {
        // The first group is `case14`'s, dimension 3. A well-formed,
        // checksummed file whose entry holds 2 or 4 loads must not load: a
        // lookup in that group could not measure the entry.
        for len in [2, 4] {
            let mut tree = sample_store().to_value();
            let entry = &mut seq_mut(&mut seq_mut(&mut tree, "groups")[0], "entries")[0];
            seq_mut(entry, "loads").resize(len, Value::Num(1.0));
            assert_invalid(
                load_bytes(&encode_snapshot(&tree).unwrap()),
                "in a group of dimension 3",
            );
        }
    }
}
