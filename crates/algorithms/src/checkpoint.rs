//! Superstep-boundary checkpoints.
//!
//! A checkpoint is taken only at the gather-end barrier, where the
//! invariant "all mailboxes empty, all shard states consistent" holds by
//! construction — so a checkpoint is just the per-shard property values,
//! witness parents and active lists, and recovery is a restore + replay
//! with no message-replay machinery. In memory the [`CheckpointStore`]
//! keeps only the latest boundary's superstep and active lists: the engine
//! undoes its writes since instead of copying the arrays. Configuring a
//! directory additionally writes each whole [`Checkpoint`] to its own file
//! so a restarted *process* can recover too (see `recover_from_disk` on the
//! engine and the EXPERIMENTS.md kill-and-recover recipe).
//!
//! The on-disk format is deliberately dumb: little-endian `u64` words
//! (a format word, counts, vertex ids, and values via
//! [`Property::to_word`] bit-casts). It is a crash artifact, not an
//! interchange format.

use saga_graph::properties::Property;
use saga_graph::Node;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The first word of every checkpoint file: `SAGACP` and the format
/// version, 2 since files carry the witness parents. Files of earlier
/// builds have no such word; they are skipped and deleted on load like
/// corrupt ones, with a message saying so.
pub const FORMAT_WORD: u64 = 0x5341_4741_4350_0002;

/// Checkpointing policy.
#[derive(Debug, Clone, Default)]
pub struct CheckpointConfig {
    /// Snapshot every `interval` supersteps (0 and 1 both mean "every
    /// superstep"); the superstep-0 baseline is always taken.
    pub interval: usize,
    /// When set, every checkpoint is also written to
    /// `dir/ckpt-<superstep>.bin`.
    pub dir: Option<PathBuf>,
}

impl CheckpointConfig {
    /// The effective snapshot period (≥ 1).
    pub fn period(&self) -> usize {
        self.interval.max(1)
    }
}

/// One superstep-boundary snapshot as its file holds it: the whole state
/// a restarted process resumes from.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<V> {
    /// The superstep about to execute when this snapshot was taken.
    pub superstep: usize,
    /// Per-shard property values, shard-local order.
    pub values: Vec<Vec<V>>,
    /// Per-shard witness parents, shard-local order; empty for an engine
    /// that keeps no witness forest.
    pub parents: Vec<Vec<Node>>,
    /// Per-shard active vertex lists (global ids).
    pub active: Vec<Vec<Node>>,
}

impl<V: Property> Checkpoint<V> {
    /// Writes the checkpoint to `dir/ckpt-<superstep>.bin`, through a
    /// temporary file renamed into place, so a crash mid-write never
    /// leaves a truncated file under a checkpoint's name.
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut words: Vec<u64> = vec![FORMAT_WORD, self.superstep as u64, self.values.len() as u64];
        for ((values, parents), active) in self.values.iter().zip(&self.parents).zip(&self.active) {
            words.push(values.len() as u64);
            words.extend(values.iter().map(|v| v.to_word()));
            for ids in [parents, active] {
                words.push(ids.len() as u64);
                words.extend(ids.iter().map(|&v| u64::from(v)));
            }
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let final_path = dir.join(format!("ckpt-{}.bin", self.superstep));
        let tmp_path = dir.join(format!(".ckpt-{}.tmp", self.superstep));
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp_path, &final_path)
    }

    /// Loads the newest *valid* checkpoint file from `dir` (a process
    /// that died and restarted has no in-memory copy). Returns `None`
    /// when the directory holds no usable checkpoint files.
    ///
    /// Candidates are tried newest-first. A corrupt or truncated file —
    /// e.g. the newest checkpoint caught mid-write by the crash the
    /// recovery is for — or one an earlier build wrote in another format
    /// is **deleted**, with a message naming why, and recovery falls back
    /// to the next-newest, instead of failing the whole restart on a file
    /// that can never become readable. Deleting matters: a later restart
    /// must not rediscover the same husk, and a subsequent checkpoint at
    /// the same superstep must not rename onto a poisoned path's stale
    /// content expectations. Genuine I/O errors (permissions, device)
    /// still propagate — those are environmental, not artifacts of the
    /// crash.
    pub fn load_latest(dir: &Path) -> io::Result<Option<Self>> {
        let mut candidates: Vec<(usize, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if let Some(step) = parse_checkpoint_name(&path) {
                candidates.push((step, path));
            }
        }
        candidates.sort_by_key(|&(step, _)| std::cmp::Reverse(step));
        for (_, path) in candidates {
            match read_checkpoint(&path) {
                Ok(cp) => return Ok(Some(cp)),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                    ) =>
                {
                    saga_trace::progress!("checkpoint {}: {e}; deleted", path.display());
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

/// The engine's in-memory checkpoint: the latest boundary's superstep and
/// per-shard active lists, which a recovery resumes from after undoing the
/// engine's writes since.
#[derive(Debug)]
pub struct CheckpointStore {
    config: CheckpointConfig,
    latest: Option<(usize, Vec<Vec<Node>>)>,
    /// Checkpoints published over the store's lifetime (diagnostics).
    published: usize,
}

impl CheckpointStore {
    /// An empty store with the given policy.
    pub fn new(config: CheckpointConfig) -> Self {
        Self {
            config,
            latest: None,
            published: 0,
        }
    }

    /// The checkpointing policy.
    pub fn config(&self) -> &CheckpointConfig {
        &self.config
    }

    /// Number of checkpoints published so far.
    pub fn published(&self) -> usize {
        self.published
    }

    /// The most recent checkpoint's superstep and active lists, if any.
    pub fn latest(&self) -> Option<(usize, &[Vec<Node>])> {
        self.latest.as_ref().map(|(step, active)| (*step, active.as_slice()))
    }

    /// Installs the boundary before `superstep`, with its per-shard
    /// `active` lists, as the latest.
    pub fn publish(&mut self, superstep: usize, active: Vec<Vec<Node>>) {
        self.latest = Some((superstep, active));
        self.published += 1;
    }
}

fn parse_checkpoint_name(path: &Path) -> Option<usize> {
    let name = path.file_name()?.to_str()?;
    let step = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    step.parse().ok()
}

/// Little-endian `u64` cursor over a checkpoint file's bytes, with the
/// bookkeeping corruption-hardening needs: how many whole words remain.
struct WordReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl WordReader<'_> {
    fn next(&mut self) -> io::Result<u64> {
        let end = self.cursor + 8;
        let chunk = self.bytes.get(self.cursor..end).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "truncated checkpoint")
        })?;
        self.cursor = end;
        Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
    }

    /// Whole words left — the upper bound any claimed count must respect.
    fn remaining_words(&self) -> usize {
        self.bytes.len().saturating_sub(self.cursor) / 8
    }

    /// Validates a length prefix against the bytes actually present, so a
    /// corrupt count (bit-flipped to, say, 2⁶⁰) errors instead of driving
    /// a `Vec::with_capacity` allocation of that size.
    fn claimed_len(&self, raw: u64, what: &str) -> io::Result<usize> {
        let n = usize::try_from(raw).unwrap_or(usize::MAX);
        if n > self.remaining_words() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("implausible {what} count {raw} with {} words left", self.remaining_words()),
            ));
        }
        Ok(n)
    }

    /// A length-prefixed list of vertex ids.
    fn ids(&mut self, what: &str) -> io::Result<Vec<Node>> {
        let raw = self.next()?;
        let n = self.claimed_len(raw, what)?;
        (0..n).map(|_| self.next().map(|w| w as Node)).collect()
    }
}

fn read_checkpoint<V: Property>(path: &Path) -> io::Result<Checkpoint<V>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let mut r = WordReader { bytes: &bytes, cursor: 0 };
    let format = r.next()?;
    if format != FORMAT_WORD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("first word {format:#x} is not format word {FORMAT_WORD:#x}: an earlier build's file, or corrupt"),
        ));
    }
    let superstep = r.next()? as usize;
    let raw_shards = r.next()?;
    let shards = r.claimed_len(raw_shards, "shard")?;
    let mut values = Vec::with_capacity(shards);
    let mut parents = Vec::with_capacity(shards);
    let mut active = Vec::with_capacity(shards);
    for _ in 0..shards {
        let raw_n = r.next()?;
        let n = r.claimed_len(raw_n, "value")?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(V::from_word(r.next()?));
        }
        values.push(vals);
        parents.push(r.ids("parent")?);
        active.push(r.ids("active-list")?);
    }
    if r.cursor != bytes.len() {
        // Trailing bytes mean the length prefixes and the payload
        // disagree — the file is corrupt even though every read landed.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} trailing bytes after checkpoint payload", bytes.len() - r.cursor),
        ));
    }
    Ok(Checkpoint {
        superstep,
        values,
        parents,
        active,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codec_roundtrips_bitwise() {
        for v in [0u32, 7, u32::MAX] {
            assert_eq!(u32::from_word(v.to_word()), v);
        }
        // NaN payloads, signed zeros and infinities survive too — "bitwise
        // identical" means bitwise.
        let f32_nan = f32::from_bits(0x7fc0_beef);
        let f32_snan = f32::from_bits(0xff80_0001);
        for v in [0.0f32, -0.0, 1.5, f32::INFINITY, f32::NEG_INFINITY, f32_nan, f32_snan] {
            assert_eq!(v.to_word(), u64::from(v.to_bits()), "an f32 word is its bits, zero-extended");
            assert_eq!(f32::from_word(v.to_word()).to_bits(), v.to_bits());
        }
        let f64_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let f64_snan = f64::from_bits(0xfff0_0000_0000_0001);
        for v in [0.0f64, -0.0, 1e-300, -5.5, f64::INFINITY, f64::NEG_INFINITY, f64_nan, f64_snan] {
            assert_eq!(v.to_word(), v.to_bits());
            assert_eq!(f64::from_word(v.to_word()).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn in_memory_store_keeps_the_latest() {
        let mut store = CheckpointStore::new(CheckpointConfig::default());
        assert!(store.latest().is_none());
        assert_eq!(store.config().period(), 1, "interval 0 means every superstep");
        store.publish(3, vec![vec![1], vec![2]]);
        store.publish(5, vec![vec![], vec![4]]);
        assert_eq!(store.latest(), Some((5, &[vec![], vec![4]][..])));
        assert_eq!(store.published(), 2);
    }

    // Disk round-trip coverage lives in `tests/bsp.rs`
    // (`CARGO_TARGET_TMPDIR` is only provided to integration targets).
}
