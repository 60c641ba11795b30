//! Crash-safe checkpointing: save and restore a model's [`ParamStore`]
//! (and, for resumable training, the full optimizer/trainer state) so
//! MLM pre-training and fine-tuning can run as separate invocations and
//! an interrupted run can pick up where it left off.
//!
//! # Format v2 (`cuisine-checkpoint-v2`)
//!
//! A binary-safe little-endian layout behind a CRC32 payload checksum:
//!
//! ```text
//! magic    22 B  "cuisine-checkpoint-v2\n"
//! crc32     4 B  IEEE CRC32 of the payload bytes
//! length    8 B  payload byte count
//! payload        params + optional TrainState (see encode_into)
//! ```
//!
//! Every write goes through temp-file + fsync + atomic rename, and
//! [`CheckpointManager`] keeps a rotating `latest.ckpt` / `previous.ckpt`
//! pair, so a crash at any instant — including mid-save — leaves at least
//! one intact checkpoint on disk. Legacy v1 (JSON) files remain readable.
//!
//! A v2 load streams: it checks the magic, then the header's length
//! against the file's, then decodes the payload straight from the file
//! in 64 KB pieces, folding each piece into a running CRC as it arrives.
//! The decoded tensors are staged, never written into the store, until
//! every payload byte has passed the CRC; a payload that fails to decode
//! is read to its end first, so a corrupt file reports its checksum
//! mismatch rather than whatever its corruption looked like to the
//! decoder. So a load holds the decoded weights and one read piece, never
//! the whole file beside them.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use autograd::ParamStore;
use serde::{Deserialize, Serialize};
use tensor::Tensor;
use trace::{crc32, Crc32};

use crate::optim::{OptimizerSlot, OptimizerState};
use crate::trainer::{EpochStats, TrainHistory};

/// Magic prefix of a v2 checkpoint file.
pub const MAGIC_V2: &[u8; 22] = b"cuisine-checkpoint-v2\n";

/// Format tag of legacy v1 (JSON) checkpoints.
pub const FORMAT_V1: &str = "cuisine-checkpoint-v1";

/// Bytes of the v2 header after the magic: CRC32, then payload length.
const HEADER_V2: usize = 12;

/// Payload bytes a v2 load reads from the file at a time.
const READ_PIECE: usize = 64 * 1024;

/// Everything beyond raw weights that a resumed run needs to continue
/// bit-identically from an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Next epoch to run (checkpoints are cut at epoch boundaries).
    pub epoch: usize,
    /// Optimizer steps taken so far (drives the LR schedule).
    pub step: usize,
    /// Trainer seed the run was started with (sanity check on resume).
    pub seed: u64,
    /// Divergence-guard LR multiplier (halved on every rollback).
    pub lr_scale: f32,
    /// Best validation loss seen (early-stopping state).
    pub best_val: f64,
    /// Epochs since the last validation improvement.
    pub stale: usize,
    /// Per-epoch stats up to the checkpoint.
    pub history: TrainHistory,
    /// Optimizer internals (AdamW moments), when the optimizer supports it.
    pub optimizer: Option<OptimizerState>,
}

impl Default for TrainState {
    fn default() -> Self {
        Self {
            epoch: 0,
            step: 0,
            seed: 0,
            lr_scale: 1.0,
            best_val: f64::INFINITY,
            stale: 0,
            history: TrainHistory::default(),
            optimizer: None,
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Checkpoint {
    format: String,
    params: Vec<ParamRecord>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ParamRecord {
    name: String,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

// ---------------------------------------------------------------------------
// Little-endian payload encoding/decoding.

/// Where the encoder's bytes go: the file buffer itself, or [`Size`],
/// which only counts them so the buffer can be reserved at its exact size.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn put_f32s(&mut self, values: &[f32]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn put_f32s(&mut self, values: &[f32]) {
        for &x in values {
            self.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Counts the bytes an encoding writes.
#[derive(Default)]
struct Size(usize);

impl Sink for Size {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn put_f32s(&mut self, values: &[f32]) {
        self.0 += 4 * values.len();
    }
}

struct Enc<S>(S);

impl<S: Sink> Enc<S> {
    fn u8(&mut self, v: u8) {
        self.0.put(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.0.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.put(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.put(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.put(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.put(s.as_bytes());
    }
    fn tensor(&mut self, t: &Tensor) {
        self.u32(t.rows() as u32);
        self.u32(t.cols() as u32);
        self.0.put_f32s(t.as_slice());
    }
}

/// Streaming decoder over a v2 payload. It pulls the payload from `src`
/// in pieces of at most [`READ_PIECE`] bytes, and never past the
/// header's length, folding each piece into `crc` as it arrives. Every
/// read of a field first checks that the payload still holds its bytes,
/// so nothing is allocated for bytes the file does not hold.
struct Dec<R> {
    src: R,
    /// `buf[pos..end]` is read but not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Payload bytes not yet read from `src`.
    left: u64,
    crc: Crc32,
}

impl<R: Read> Dec<R> {
    fn new(src: R, len: u64) -> Self {
        let piece = usize::try_from(len).map_or(READ_PIECE, |n| n.min(READ_PIECE));
        Self {
            src,
            buf: vec![0; piece],
            pos: 0,
            end: 0,
            left: len,
            crc: Crc32::new(),
        }
    }

    /// Payload bytes not yet decoded.
    fn remaining(&self) -> u64 {
        (self.end - self.pos) as u64 + self.left
    }

    /// Fails unless the payload holds `n` more bytes.
    fn check_left(&self, n: usize) -> io::Result<()> {
        if n as u64 > self.remaining() {
            return Err(invalid("truncated checkpoint payload"));
        }
        Ok(())
    }

    /// Reads the next piece of the payload into the buffer's free tail and
    /// folds it into the CRC.
    fn pull(&mut self) -> io::Result<()> {
        let room =
            (self.buf.len() - self.end).min(usize::try_from(self.left).unwrap_or(usize::MAX));
        let got = loop {
            match self.src.read(&mut self.buf[self.end..self.end + room]) {
                Ok(0) => return Err(invalid("checkpoint file ended inside its payload")),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        self.crc.update(&self.buf[self.end..self.end + got]);
        self.end += got;
        self.left -= got as u64;
        Ok(())
    }

    /// Makes at least `want` (at most the buffer's size) undecoded bytes
    /// contiguous in the buffer.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        if self.end - self.pos >= want {
            return Ok(());
        }
        self.check_left(want)?;
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < want {
            self.pull()?;
        }
        Ok(())
    }

    /// Hands the next `n` payload bytes to `sink`, in order, in pieces of
    /// whole `unit`-byte items (`n` is a multiple of `unit`).
    fn take(&mut self, n: usize, unit: usize, mut sink: impl FnMut(&[u8])) -> io::Result<()> {
        self.check_left(n)?;
        let mut n = n;
        while n > 0 {
            self.fill(unit)?;
            let k = ((self.end - self.pos) / unit * unit).min(n);
            sink(&self.buf[self.pos..self.pos + k]);
            self.pos += k;
            n -= k;
        }
        Ok(())
    }

    /// Reads the rest of the payload through the CRC without decoding it.
    fn drain(&mut self) -> io::Result<()> {
        self.pos = self.end;
        while self.left > 0 {
            (self.pos, self.end) = (0, 0);
            self.pull()?;
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.fill(N)?;
        let out = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("a slice of N bytes");
        self.pos += N;
        Ok(out)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }
    fn usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| invalid("count out of range"))
    }
    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        self.check_left(len)?;
        let mut bytes = Vec::with_capacity(len);
        self.take(len, 1, |piece| bytes.extend_from_slice(piece))?;
        String::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 string in checkpoint"))
    }
    fn tensor(&mut self) -> io::Result<Tensor> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let len = rows
            .checked_mul(cols)
            .filter(|n| n.checked_mul(4).is_some())
            .ok_or_else(|| invalid("tensor shape overflow"))?;
        self.check_left(len * 4)?;
        let mut data = Vec::with_capacity(len);
        self.take(len * 4, 4, |piece| {
            data.extend(
                piece
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4 bytes"))),
            );
        })?;
        Ok(Tensor::from_vec(rows, cols, data))
    }
    fn finished(&self) -> bool {
        self.remaining() == 0
    }
}

fn encode_into<S: Sink>(e: &mut Enc<S>, store: &ParamStore, state: Option<&TrainState>) {
    e.u32(store.len() as u32);
    for (_, name, tensor) in store.iter() {
        e.str(name);
        e.tensor(tensor);
    }
    match state {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            e.usize(s.epoch);
            e.usize(s.step);
            e.u64(s.seed);
            e.f32(s.lr_scale);
            e.f64(s.best_val);
            e.usize(s.stale);
            e.u32(s.history.epochs.len() as u32);
            for ep in &s.history.epochs {
                e.usize(ep.epoch);
                e.f64(ep.train_loss);
                match ep.val_loss {
                    Some(v) => {
                        e.u8(1);
                        e.f64(v);
                    }
                    None => e.u8(0),
                }
                match ep.val_accuracy {
                    Some(v) => {
                        e.u8(1);
                        e.f64(v);
                    }
                    None => e.u8(0),
                }
                e.usize(ep.skipped_steps);
                e.usize(ep.rollbacks);
            }
            match &s.optimizer {
                None => e.u8(0),
                Some(opt) => {
                    e.u8(1);
                    e.str(&opt.kind);
                    e.i64(opt.step_count);
                    e.u32(opt.slots.len() as u32);
                    for slot in &opt.slots {
                        e.usize(slot.param);
                        e.u8(slot.tensors.len() as u8);
                        for t in &slot.tensors {
                            e.tensor(t);
                        }
                    }
                }
            }
        }
    }
}

/// Decodes a whole payload. Counts read from the payload reserve
/// nothing: each item pushed has first passed the decoder's length
/// checks.
fn decode_payload<R: Read>(d: &mut Dec<R>) -> io::Result<(Vec<ParamRecord>, Option<TrainState>)> {
    let n_params = d.u32()? as usize;
    let mut params = Vec::new();
    for _ in 0..n_params {
        let name = d.str()?;
        let tensor = d.tensor()?;
        params.push(ParamRecord {
            name,
            rows: tensor.rows(),
            cols: tensor.cols(),
            data: tensor.into_vec(),
        });
    }
    let state = if d.u8()? == 1 {
        let epoch = d.usize()?;
        let step = d.usize()?;
        let seed = d.u64()?;
        let lr_scale = d.f32()?;
        let best_val = d.f64()?;
        let stale = d.usize()?;
        let n_epochs = d.u32()? as usize;
        let mut history = TrainHistory::default();
        for _ in 0..n_epochs {
            let epoch = d.usize()?;
            let train_loss = d.f64()?;
            let val_loss = if d.u8()? == 1 { Some(d.f64()?) } else { None };
            let val_accuracy = if d.u8()? == 1 { Some(d.f64()?) } else { None };
            let skipped_steps = d.usize()?;
            let rollbacks = d.usize()?;
            history.epochs.push(EpochStats {
                epoch,
                train_loss,
                val_loss,
                val_accuracy,
                skipped_steps,
                rollbacks,
            });
        }
        let optimizer = if d.u8()? == 1 {
            let kind = d.str()?;
            let step_count = d.i64()?;
            let n_slots = d.u32()? as usize;
            let mut slots = Vec::new();
            for _ in 0..n_slots {
                let param = d.usize()?;
                let n_tensors = d.u8()? as usize;
                let mut tensors = Vec::with_capacity(n_tensors);
                for _ in 0..n_tensors {
                    tensors.push(d.tensor()?);
                }
                slots.push(OptimizerSlot { param, tensors });
            }
            Some(OptimizerState {
                kind,
                step_count,
                slots,
            })
        } else {
            None
        };
        Some(TrainState {
            epoch,
            step,
            seed,
            lr_scale,
            best_val,
            stale,
            history,
            optimizer,
        })
    } else {
        None
    };
    if !d.finished() {
        return Err(invalid("trailing bytes after checkpoint payload"));
    }
    Ok((params, state))
}

/// The v2 file for `store` (and `state`): magic, CRC32, length, payload,
/// written into one buffer reserved at its exact size, the CRC and
/// length patched in once the payload is behind them.
fn encode_file(store: &ParamStore, state: Option<&TrainState>) -> Vec<u8> {
    let header = MAGIC_V2.len() + HEADER_V2;
    let mut size = Enc(Size::default());
    encode_into(&mut size, store, state);
    let Enc(Size(payload_len)) = size;
    let mut e = Enc(Vec::with_capacity(header + payload_len));
    e.0.extend_from_slice(MAGIC_V2);
    e.0.resize(header, 0);
    encode_into(&mut e, store, state);
    let mut bytes = e.0;
    debug_assert_eq!(bytes.len(), header + payload_len, "encoded size drifted");
    let len = (bytes.len() - header) as u64;
    let crc = crc32(&bytes[header..]);
    bytes[MAGIC_V2.len()..MAGIC_V2.len() + 4].copy_from_slice(&crc.to_le_bytes());
    bytes[MAGIC_V2.len() + 4..header].copy_from_slice(&len.to_le_bytes());
    bytes
}

/// Decodes a v2 file from `src`, positioned just past the magic, whose
/// whole length is `file_len` (see the module docs for the check order).
fn read_v2<R: Read>(
    mut src: R,
    file_len: u64,
) -> io::Result<(Vec<ParamRecord>, Option<TrainState>)> {
    let mut head = [0u8; HEADER_V2];
    src.read_exact(&mut head).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid("truncated checkpoint header")
        } else {
            e
        }
    })?;
    let (crc_bytes, len_bytes) = head.split_at(4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 CRC bytes"));
    let len = u64::from_le_bytes(len_bytes.try_into().expect("8 length bytes"));
    let held = file_len.saturating_sub((MAGIC_V2.len() + HEADER_V2) as u64);
    if held != len {
        return Err(invalid(format!(
            "checkpoint payload is {held} bytes, header promised {len}"
        )));
    }
    let mut d = Dec::new(src, len);
    let decoded = decode_payload(&mut d);
    if decoded.is_err() {
        d.drain()?;
    }
    let actual = d.crc.finish();
    if actual != stored_crc {
        return Err(invalid(format!(
            "checkpoint checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        )));
    }
    decoded
}

// ---------------------------------------------------------------------------
// Atomic file plumbing.

/// Fsyncs a directory so a just-renamed entry survives power loss.
/// Best-effort: not every platform lets you open a directory.
fn sync_dir(dir: &Path) {
    let _ = File::open(dir).and_then(|f| f.sync_all());
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| invalid("checkpoint path has no file name"))?
        .to_owned();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        f.write_all(bytes)?;
        f.into_inner()?.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Public single-file API.

/// Writes every parameter (name, shape, values) to a v2 checkpoint,
/// atomically (temp file + fsync + rename).
pub fn save_checkpoint(store: &ParamStore, path: &Path) -> io::Result<()> {
    write_atomic(path, &encode_file(store, None))
}

/// Writes parameters plus the full training state (optimizer moments,
/// counters, history) so the run can be resumed bit-identically.
pub fn save_checkpoint_with_state(
    store: &ParamStore,
    state: &TrainState,
    path: &Path,
) -> io::Result<()> {
    write_atomic(path, &encode_file(store, Some(state)))
}

/// Writes a legacy v1 (JSON) checkpoint. Kept so older tooling can still
/// be fed, and as the fixture writer for v1-compatibility tests.
pub fn save_checkpoint_v1(store: &ParamStore, path: &Path) -> io::Result<()> {
    let checkpoint = Checkpoint {
        format: FORMAT_V1.to_string(),
        params: store
            .iter()
            .map(|(_, name, tensor)| ParamRecord {
                name: name.to_string(),
                rows: tensor.rows(),
                cols: tensor.cols(),
                data: tensor.as_slice().to_vec(),
            })
            .collect(),
    };
    let json = serde_json::to_string(&checkpoint).map_err(|e| invalid(e.to_string()))?;
    write_atomic(path, json.as_bytes())
}

/// Loads a checkpoint (v2 binary or legacy v1 JSON) into an existing store
/// built by the same model constructor: every parameter's name and shape
/// must match exactly, which catches architecture drift at load time
/// rather than silently. The store is only mutated after the whole file —
/// checksum included — has validated.
///
/// # Errors
///
/// `InvalidData` on a truncated or bit-flipped file (CRC mismatch), format
/// mismatch, or parameter count/name/shape mismatch.
pub fn load_checkpoint(store: &mut ParamStore, path: &Path) -> io::Result<()> {
    load_checkpoint_with_state(store, path).map(|_| ())
}

/// Like [`load_checkpoint`], additionally returning the embedded
/// [`TrainState`] when the file carries one (v1 files never do).
pub fn load_checkpoint_with_state(
    store: &mut ParamStore,
    path: &Path,
) -> io::Result<Option<TrainState>> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut bytes = Vec::with_capacity(MAGIC_V2.len());
    (&mut file)
        .take(MAGIC_V2.len() as u64)
        .read_to_end(&mut bytes)?;
    let (params, state) = if bytes == MAGIC_V2 {
        read_v2(file, file_len)?
    } else {
        file.read_to_end(&mut bytes)?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| invalid("checkpoint is neither v2 binary nor v1 JSON"))?;
        let checkpoint: Checkpoint =
            serde_json::from_str(text).map_err(|e| invalid(e.to_string()))?;
        if checkpoint.format != FORMAT_V1 {
            return Err(invalid(format!(
                "unsupported checkpoint format {:?}",
                checkpoint.format
            )));
        }
        (checkpoint.params, None)
    };
    apply_records(store, params)?;
    Ok(state)
}

/// Validates `records` against `store` (count, names, shapes), then — and
/// only then — overwrites the store's tensors.
fn apply_records(store: &mut ParamStore, records: Vec<ParamRecord>) -> io::Result<()> {
    if records.len() != store.len() {
        return Err(invalid(format!(
            "checkpoint has {} parameters, model has {}",
            records.len(),
            store.len()
        )));
    }
    let ids: Vec<_> = store.ids().collect();
    for (record, &id) in records.iter().zip(&ids) {
        if record.name != store.name(id) {
            return Err(invalid(format!(
                "parameter name mismatch: {:?} vs {:?}",
                record.name,
                store.name(id)
            )));
        }
        if store.get(id).shape() != (record.rows, record.cols)
            || record.data.len() != record.rows * record.cols
        {
            return Err(invalid(format!(
                "shape mismatch for parameter {:?}",
                record.name
            )));
        }
    }
    for (record, id) in records.into_iter().zip(ids) {
        *store.get_mut(id) = Tensor::from_vec(record.rows, record.cols, record.data);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Rotating latest/previous checkpoint pair.

/// Manages a checkpoint directory holding a rotating `latest.ckpt` /
/// `previous.ckpt` pair. Saves go tmp → fsync → rotate → rename, so a
/// crash at any point leaves at least one intact checkpoint; loads fall
/// back from a corrupt `latest` to `previous` automatically.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
}

impl CheckpointManager {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the newest checkpoint.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("latest.ckpt")
    }

    /// Path of the second-newest checkpoint (the rollback target while a
    /// new `latest` is being cut).
    pub fn previous_path(&self) -> PathBuf {
        self.dir.join("previous.ckpt")
    }

    /// Saves a checkpoint, rotating `latest` → `previous` first. The new
    /// file is fully written and fsynced *before* the rotation touches the
    /// old pair, so no crash window loses the last good state.
    pub fn save(&self, store: &ParamStore, state: Option<&TrainState>) -> io::Result<()> {
        let bytes = encode_file(store, state);
        let tmp = self.dir.join("incoming.ckpt.tmp");
        {
            let mut f = BufWriter::new(File::create(&tmp)?);
            f.write_all(&bytes)?;
            f.into_inner()?.sync_all()?;
        }
        let latest = self.latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.previous_path())?;
        }
        std::fs::rename(&tmp, &latest)?;
        sync_dir(&self.dir);
        Ok(())
    }

    /// Loads the newest readable checkpoint into `store`, falling back to
    /// `previous.ckpt` when `latest.ckpt` is missing or corrupt. Returns
    /// `Ok(None)` when the directory holds no checkpoint at all (a fresh
    /// run); a params-only file yields a default [`TrainState`].
    ///
    /// # Errors
    ///
    /// Propagates the last decode error when checkpoint files exist but
    /// none of them validates.
    pub fn load_latest(&self, store: &mut ParamStore) -> io::Result<Option<TrainState>> {
        let mut last_err: Option<io::Error> = None;
        for path in [self.latest_path(), self.previous_path()] {
            match load_checkpoint_with_state(store, &path) {
                Ok(state) => return Ok(Some(state.unwrap_or_default())),
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::{LstmClassifier, LstmConfig};
    use crate::trainer::SequenceModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(seed: u64) -> LstmClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmClassifier::new(
            LstmConfig {
                vocab: 12,
                emb_dim: 4,
                hidden: 6,
                layers: 1,
                dropout: 0.0,
                classes: 2,
                pooling: crate::lstm::LstmPooling::LastHidden,
            },
            &mut rng,
        )
    }

    /// The payload alone, as `encode_file` writes it after the header.
    fn encode_payload(store: &ParamStore, state: Option<&TrainState>) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        encode_into(&mut e, store, state);
        e.0
    }

    /// The v2 file around `payload`, assembled field by field: the
    /// reference that `encode_file`'s one patched buffer must match.
    fn wrap_payload(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn sample_state() -> TrainState {
        TrainState {
            epoch: 3,
            step: 17,
            seed: 42,
            lr_scale: 0.5,
            best_val: 0.25,
            stale: 1,
            history: TrainHistory {
                epochs: vec![EpochStats {
                    epoch: 0,
                    train_loss: 1.5,
                    val_loss: Some(1.25),
                    val_accuracy: None,
                    skipped_steps: 2,
                    rollbacks: 1,
                }],
            },
            optimizer: Some(OptimizerState {
                kind: "adamw".into(),
                step_count: 17,
                slots: vec![OptimizerSlot {
                    param: 0,
                    tensors: vec![Tensor::ones(2, 3), Tensor::full(2, 3, 0.5)],
                }],
            }),
        }
    }

    #[test]
    fn roundtrip_restores_weights() {
        let a = model(1);
        let path = std::env::temp_dir().join("nn_checkpoint_roundtrip.ckpt");
        save_checkpoint(a.store(), &path).unwrap();

        let mut b = model(2); // different init
        load_checkpoint(b.store_mut(), &path).unwrap();

        for (id, _, tensor) in a.store().iter() {
            assert_eq!(tensor, b.store().get(id));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zeroed_skeleton_restores_like_a_random_init() {
        let trained = model(5);
        let path = std::env::temp_dir().join("nn_checkpoint_zeroed.ckpt");
        save_checkpoint(trained.store(), &path).unwrap();
        let mut drawn = model(6);
        load_checkpoint(drawn.store_mut(), &path).unwrap();
        let mut zeroed = LstmClassifier::zeroed(*trained.config());
        load_checkpoint(zeroed.store_mut(), &path).unwrap();
        for (id, _, tensor) in drawn.store().iter() {
            assert_eq!(tensor, zeroed.store().get(id));
        }
        let seqs: [&[usize]; 3] = [&[1, 2, 3], &[4], &[11, 0, 7, 7]];
        assert_eq!(
            crate::predict_proba_graph(&zeroed, &seqs),
            crate::predict_proba_graph(&drawn, &seqs)
        );

        // a checkpoint of another shape is still rejected
        let mut rng = StdRng::seed_from_u64(7);
        let wide = LstmConfig {
            hidden: 7,
            ..*trained.config()
        };
        save_checkpoint(LstmClassifier::new(wide, &mut rng).store(), &path).unwrap();
        let mut skeleton = LstmClassifier::zeroed(*trained.config());
        let err = load_checkpoint(skeleton.store_mut(), &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shape mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn train_state_roundtrips_exactly() {
        let a = model(8);
        let path = std::env::temp_dir().join("nn_checkpoint_state.ckpt");
        let state = sample_state();
        save_checkpoint_with_state(a.store(), &state, &path).unwrap();
        let mut b = model(9);
        let loaded = load_checkpoint_with_state(b.store_mut(), &path).unwrap();
        assert_eq!(loaded, Some(state));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn restored_model_predicts_identically() {
        use autograd::Graph;
        let a = model(3);
        let path = std::env::temp_dir().join("nn_checkpoint_identical.ckpt");
        save_checkpoint(a.store(), &path).unwrap();
        let mut b = model(4);
        load_checkpoint(b.store_mut(), &path).unwrap();

        let mut rng = StdRng::seed_from_u64(0);
        let mut ga = Graph::new(a.store());
        let la = a.logits(&mut ga, &[1, 2, 3], false, &mut rng);
        let mut gb = Graph::new(b.store());
        let lb = b.logits(&mut gb, &[1, 2, 3], false, &mut rng);
        assert_eq!(ga.value(la), gb.value(lb));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_json_checkpoint_still_loads() {
        let a = model(10);
        let path = std::env::temp_dir().join("nn_checkpoint_v1.json");
        save_checkpoint_v1(a.store(), &path).unwrap();
        let mut b = model(11);
        let state = load_checkpoint_with_state(b.store_mut(), &path).unwrap();
        assert_eq!(state, None);
        for (id, _, tensor) in a.store().iter() {
            assert_eq!(tensor, b.store().get(id));
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Asserts `store` holds exactly the same tensors as `reference`.
    fn assert_unchanged(store: &ParamStore, reference: &ParamStore) {
        for (id, _, tensor) in reference.iter() {
            assert_eq!(tensor, store.get(id), "store mutated by failed load");
        }
    }

    #[test]
    fn truncated_file_is_rejected_without_mutation() {
        let a = model(12);
        let path = std::env::temp_dir().join("nn_checkpoint_truncated.ckpt");
        save_checkpoint(a.store(), &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [10usize, MAGIC_V2.len() + 4, full.len() - 3] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let mut b = model(13);
            let pristine = b.store().clone();
            let err = load_checkpoint(b.store_mut(), &path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "keep = {keep}");
            assert_unchanged(b.store(), &pristine);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_caught_by_crc_without_mutation() {
        let a = model(14);
        let path = std::env::temp_dir().join("nn_checkpoint_bitflip.ckpt");
        save_checkpoint(a.store(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = (MAGIC_V2.len() + 12 + bytes.len() / 2) % bytes.len(); // in the payload
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut b = model(15);
        let pristine = b.store().clone();
        let err = load_checkpoint(b.store_mut(), &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
        assert_unchanged(b.store(), &pristine);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn architecture_mismatch_is_rejected() {
        let a = model(5);
        let path = std::env::temp_dir().join("nn_checkpoint_mismatch.ckpt");
        save_checkpoint(a.store(), &path).unwrap();

        let mut rng = StdRng::seed_from_u64(6);
        let mut other = LstmClassifier::new(
            LstmConfig {
                vocab: 12,
                emb_dim: 4,
                hidden: 8,
                layers: 1,
                dropout: 0.0,
                classes: 2,
                pooling: crate::lstm::LstmPooling::LastHidden,
            },
            &mut rng,
        );
        let pristine = other.store().clone();
        let err = load_checkpoint(other.store_mut(), &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_unchanged(other.store(), &pristine);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overflowing_tensor_shape_is_invalid_data_not_a_panic() {
        // one parameter declaring a 2^31 x 2^31 tensor, behind a valid
        // CRC: its byte count overflows usize
        let mut e = Enc(Vec::new());
        e.u32(1);
        e.str("w");
        e.u32(1 << 31);
        e.u32(1 << 31);
        let path = std::env::temp_dir().join("nn_checkpoint_overflowing_shape.ckpt");
        std::fs::write(&path, wrap_payload(&e.0)).unwrap();
        let mut m = model(16);
        let pristine = m.store().clone();
        let err = load_checkpoint(m.store_mut(), &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_unchanged(m.store(), &pristine);
        std::fs::remove_file(&path).unwrap();
    }

    /// `bytes` with one to three edits: a byte overwritten, four bytes
    /// overwritten with an extreme or random u32 (length and shape
    /// fields), a cut, or a random tail.
    fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..out.len().max(1));
            match rng.gen_range(0..4) {
                0 => {
                    if let Some(b) = out.get_mut(at) {
                        *b = rng.gen::<u32>() as u8;
                    }
                }
                1 => {
                    let v = [0, 1, u32::MAX, 1 << 31, rng.gen()][rng.gen_range(0..5)];
                    for (i, b) in v.to_le_bytes().into_iter().enumerate() {
                        if let Some(slot) = out.get_mut(at + i) {
                            *slot = b;
                        }
                    }
                }
                2 => out.truncate(at),
                _ => out.extend((0..rng.gen_range(1..9)).map(|_| rng.gen::<u32>() as u8)),
            }
        }
        out
    }

    #[test]
    fn arbitrary_v2_payloads_load_or_fail_with_invalid_data() {
        let real = encode_payload(model(17).store(), Some(&sample_state()));
        let path = std::env::temp_dir().join("nn_checkpoint_arbitrary_payloads.ckpt");
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        for case in 0..400 {
            let payload: Vec<u8> = if case % 4 == 0 {
                let len = rng.gen_range(0..64);
                (0..len).map(|_| rng.gen::<u32>() as u8).collect()
            } else {
                mutate(&real, &mut rng)
            };
            std::fs::write(&path, wrap_payload(&payload)).unwrap();
            let mut m = model(18);
            if let Err(e) = load_checkpoint_with_state(m.store_mut(), &path) {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Every parameter's bits, in registration order.
    fn bits(store: &ParamStore) -> Vec<(String, (usize, usize), Vec<u32>)> {
        store
            .iter()
            .map(|(_, name, t)| {
                let bits = t.as_slice().iter().map(|v| v.to_bits()).collect();
                (name.to_string(), t.shape(), bits)
            })
            .collect()
    }

    /// A two-layer model whose payload spans more than one read piece.
    fn wide_model(seed: u64) -> LstmClassifier {
        LstmClassifier::new(
            LstmConfig {
                vocab: 200,
                emb_dim: 48,
                hidden: 20,
                layers: 2,
                dropout: 0.0,
                classes: 3,
                pooling: crate::lstm::LstmPooling::MeanPool,
            },
            &mut StdRng::seed_from_u64(seed),
        )
    }

    /// Hands out 1 to 7 bytes per `read`, whatever the caller asks for.
    struct Trickle<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = (self.reads % 7 + 1).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn encode_file_matches_the_field_by_field_reference() {
        for m in [model(30), wide_model(31)] {
            for state in [None, Some(&sample_state())] {
                let file = encode_file(m.store(), state);
                assert_eq!(file, wrap_payload(&encode_payload(m.store(), state)));
                assert_eq!(
                    file.capacity(),
                    file.len(),
                    "buffer reserved at its exact size"
                );
            }
        }
    }

    #[test]
    fn a_trickling_reader_decodes_to_the_same_store_bits() {
        let a = wide_model(32);
        let state = sample_state();
        let file = encode_file(a.store(), Some(&state));
        assert!(
            file.len() > READ_PIECE,
            "the file load must cross a piece boundary"
        );
        let path = std::env::temp_dir().join("nn_checkpoint_trickle.ckpt");
        std::fs::write(&path, &file).unwrap();
        let mut from_file = wide_model(33);
        let loaded = load_checkpoint_with_state(from_file.store_mut(), &path).unwrap();
        assert_eq!(loaded.as_ref(), Some(&state));
        assert_eq!(bits(from_file.store()), bits(a.store()));

        let mut trickle = Trickle {
            bytes: &file[MAGIC_V2.len()..],
            reads: 0,
        };
        let (records, trickled) = read_v2(&mut trickle, file.len() as u64).unwrap();
        assert!(trickle.reads > file.len() / 7, "{} reads", trickle.reads);
        assert_eq!(trickled, Some(state));
        let mut from_trickle = wide_model(34);
        apply_records(from_trickle.store_mut(), records).unwrap();
        assert_eq!(bits(from_trickle.store()), bits(a.store()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_flipped_name_or_shape_byte_fails_the_crc_without_mutation() {
        let a = model(35);
        let file = encode_file(a.store(), None);
        let name_len = a.store().name(a.store().ids().next().unwrap()).len();
        // payload: parameter count, then the first name's length and bytes,
        // then its rows and cols
        let name = MAGIC_V2.len() + HEADER_V2 + 8;
        let rows = name + name_len;
        let path = std::env::temp_dir().join("nn_checkpoint_flipped_field.ckpt");
        for (at, mask) in [
            (name, 0x01),
            (name + name_len - 1, 0x80),
            (rows, 0x01),
            (rows + 3, 0x40),
            (rows + 4, 0x02),
        ] {
            let mut bytes = file.clone();
            bytes[at] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            let mut b = model(36);
            let pristine = b.store().clone();
            let err = load_checkpoint(b.store_mut(), &path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}");
            assert!(
                err.to_string().contains("checksum mismatch"),
                "byte {at}: {err}"
            );
            assert_unchanged(b.store(), &pristine);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Counts the bytes its caller reads.
    struct Counted<'a> {
        bytes: &'a [u8],
        read: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.read(out)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_header_length_that_disagrees_with_the_file_fails_before_any_payload_read() {
        let a = model(37);
        let file = encode_file(a.store(), None);
        let len = (file.len() - MAGIC_V2.len() - HEADER_V2) as u64;
        let at = MAGIC_V2.len() + 4;
        for claimed in [len - 1, len + 1, 0, 1 << 40, u64::MAX] {
            let mut bytes = file.clone();
            bytes[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            let mut src = Counted {
                bytes: &bytes[MAGIC_V2.len()..],
                read: 0,
            };
            let err = read_v2(&mut src, bytes.len() as u64).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("header promised"), "{err}");
            assert_eq!(
                src.read, HEADER_V2,
                "claimed {claimed}: read past the header"
            );
        }
        // and through a file: trailing bytes the header does not count
        let path = std::env::temp_dir().join("nn_checkpoint_length_mismatch.ckpt");
        let mut longer = file.clone();
        longer.extend_from_slice(&[0; 5]);
        std::fs::write(&path, &longer).unwrap();
        let mut b = model(38);
        let pristine = b.store().clone();
        let err = load_checkpoint(b.store_mut(), &path).unwrap_err();
        assert!(err.to_string().contains("header promised"), "{err}");
        assert_unchanged(b.store(), &pristine);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_file_is_an_error() {
        let path = std::env::temp_dir().join("nn_checkpoint_corrupt.json");
        // the second document nests deeper than the JSON parser's cap; it
        // used to overflow the stack, which aborts the process
        for text in ["{}".to_string(), "[".repeat(1_000_000)] {
            std::fs::write(&path, text).unwrap();
            let mut m = model(7);
            assert!(load_checkpoint(m.store_mut(), &path).is_err());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn manager_rotates_latest_to_previous() {
        let dir = std::env::temp_dir().join("nn_ckpt_mgr_rotate");
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir).unwrap();
        let a = model(20);
        let b = model(21);

        let mut probe = model(22);
        assert_eq!(mgr.load_latest(probe.store_mut()).unwrap(), None);

        mgr.save(a.store(), None).unwrap();
        assert!(mgr.latest_path().exists());
        assert!(!mgr.previous_path().exists());

        mgr.save(b.store(), Some(&sample_state())).unwrap();
        assert!(mgr.previous_path().exists());

        // latest must now hold b's weights (and the state)
        let state = mgr.load_latest(probe.store_mut()).unwrap().unwrap();
        assert_eq!(state.epoch, 3);
        for (id, _, tensor) in b.store().iter() {
            assert_eq!(tensor, probe.store().get(id));
        }

        // previous must hold a's weights
        let mut prev = model(23);
        load_checkpoint(prev.store_mut(), &mgr.previous_path()).unwrap();
        for (id, _, tensor) in a.store().iter() {
            assert_eq!(tensor, prev.store().get(id));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manager_falls_back_to_previous_when_latest_is_corrupt() {
        let dir = std::env::temp_dir().join("nn_ckpt_mgr_fallback");
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(&dir).unwrap();
        let a = model(24);
        let b = model(25);
        mgr.save(a.store(), None).unwrap();
        mgr.save(b.store(), None).unwrap();

        // simulate a crash mid-save: latest is truncated garbage
        crate::faults::disk::truncate(&mgr.latest_path(), 40).unwrap();

        let mut probe = model(26);
        mgr.load_latest(probe.store_mut()).unwrap().unwrap();
        for (id, _, tensor) in a.store().iter() {
            assert_eq!(tensor, probe.store().get(id));
        }

        // both corrupt → error, not a silent fresh start
        crate::faults::disk::truncate(&mgr.previous_path(), 40).unwrap();
        assert!(mgr.load_latest(probe.store_mut()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
