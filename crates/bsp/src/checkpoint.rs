//! Superstep-boundary checkpoints.
//!
//! A checkpoint is taken only at the gather-end barrier, where the
//! invariant "all mailboxes empty, all shard states consistent" holds by
//! construction — so a checkpoint is just the per-shard property arrays
//! plus the per-shard active lists, and recovery is a restore + replay
//! with no message-replay machinery. The store always keeps the latest
//! checkpoint in memory; configuring a directory additionally persists
//! each checkpoint to its own file so a restarted *process* can recover
//! too (see `recover_from_disk` on the engine and the EXPERIMENTS.md
//! kill-and-recover recipe).
//!
//! The on-disk format is deliberately dumb: little-endian `u64` words
//! (counts, vertex ids, and values via [`Property::to_word`] bit-casts). It
//! is a crash artifact, not an interchange format.

use saga_graph::properties::Property;
use saga_graph::Node;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

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

/// One superstep-boundary snapshot: the state a run can restart from.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<V> {
    /// The superstep about to execute when this snapshot was taken.
    pub superstep: usize,
    /// Per-shard property values, shard-local order.
    pub values: Vec<Vec<V>>,
    /// Per-shard active vertex lists (global ids).
    pub active: Vec<Vec<Node>>,
}

/// Holder of the latest checkpoint, with optional on-disk mirroring.
#[derive(Debug)]
pub struct CheckpointStore<V> {
    config: CheckpointConfig,
    latest: Option<Checkpoint<V>>,
    /// Checkpoints published over the store's lifetime (diagnostics).
    published: usize,
}

impl<V: Property> CheckpointStore<V> {
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

    /// The most recent checkpoint, if any.
    pub fn latest(&self) -> Option<&Checkpoint<V>> {
        self.latest.as_ref()
    }

    /// Installs `checkpoint` as the latest and mirrors it to disk when a
    /// directory is configured. Disk failure is reported but does not
    /// invalidate the in-memory copy.
    pub fn publish(&mut self, checkpoint: Checkpoint<V>) -> io::Result<()> {
        let result = match &self.config.dir {
            Some(dir) => write_checkpoint(dir, &checkpoint),
            None => Ok(()),
        };
        self.latest = Some(checkpoint);
        self.published += 1;
        result
    }

    /// Loads the newest *valid* checkpoint file from `dir` (a process
    /// that died and restarted has no in-memory copy). Returns `None`
    /// when the directory holds no usable checkpoint files.
    ///
    /// Candidates are tried newest-first. A corrupt or truncated file —
    /// e.g. the newest checkpoint caught mid-write by the crash the
    /// recovery is for — is **deleted** and recovery falls back to the
    /// next-newest, instead of failing the whole restart on a file that
    /// can never become readable. Deleting matters: a later restart must
    /// not rediscover the same husk, and a subsequent checkpoint at the
    /// same superstep must not rename onto a poisoned path's stale
    /// content expectations. Genuine I/O errors (permissions, device)
    /// still propagate — those are environmental, not artifacts of the
    /// crash.
    pub fn load_latest_from_disk(dir: &Path) -> io::Result<Option<Checkpoint<V>>> {
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
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

fn parse_checkpoint_name(path: &Path) -> Option<usize> {
    let name = path.file_name()?.to_str()?;
    let step = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    step.parse().ok()
}

fn write_checkpoint<V: Property>(dir: &Path, cp: &Checkpoint<V>) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut words: Vec<u64> = Vec::new();
    words.push(cp.superstep as u64);
    words.push(cp.values.len() as u64);
    for (values, active) in cp.values.iter().zip(&cp.active) {
        words.push(values.len() as u64);
        words.extend(values.iter().map(|v| v.to_word()));
        words.push(active.len() as u64);
        words.extend(active.iter().map(|&v| v as u64));
    }
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    // Write to a temp name then rename, so a crash mid-write never leaves
    // a truncated file that parses as the newest checkpoint.
    let final_path = dir.join(format!("ckpt-{}.bin", cp.superstep));
    let tmp_path = dir.join(format!(".ckpt-{}.tmp", cp.superstep));
    let mut f = std::fs::File::create(&tmp_path)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path)
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
}

fn read_checkpoint<V: Property>(path: &Path) -> io::Result<Checkpoint<V>> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let mut r = WordReader { bytes: &bytes, cursor: 0 };
    let superstep = r.next()? as usize;
    let raw_shards = r.next()?;
    let shards = r.claimed_len(raw_shards, "shard")?;
    let mut values = Vec::with_capacity(shards);
    let mut active = Vec::with_capacity(shards);
    for _ in 0..shards {
        let raw_n = r.next()?;
        let n = r.claimed_len(raw_n, "value")?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(V::from_word(r.next()?));
        }
        values.push(vals);
        let raw_a = r.next()?;
        let a = r.claimed_len(raw_a, "active-list")?;
        let mut act = Vec::with_capacity(a);
        for _ in 0..a {
            act.push(r.next()? as Node);
        }
        active.push(act);
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
        active,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint<f32> {
        Checkpoint {
            superstep: 3,
            values: vec![vec![0.5, f32::INFINITY], vec![-1.25]],
            active: vec![vec![1], vec![2]],
        }
    }

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
        let mut store: CheckpointStore<f32> = CheckpointStore::new(CheckpointConfig::default());
        assert!(store.latest().is_none());
        assert_eq!(store.config().period(), 1, "interval 0 means every superstep");
        store.publish(sample()).unwrap();
        let mut second = sample();
        second.superstep = 5;
        store.publish(second.clone()).unwrap();
        assert_eq!(store.latest(), Some(&second));
        assert_eq!(store.published(), 2);
    }

    // Disk round-trip coverage lives in `tests/bsp.rs`
    // (`CARGO_TARGET_TMPDIR` is only provided to integration targets).
}
