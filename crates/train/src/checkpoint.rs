//! Crash-safe model checkpointing.
//!
//! Format **v3** (see DESIGN.md §7): every checkpoint is a JSON document
//!
//! ```json
//! {"format_version":3,"checksum":"<fnv1a64 hex>","body":{...}}
//! ```
//!
//! where `checksum` is the FNV-1a 64-bit hash of the serialized `body`,
//! written as 16 lowercase hex digits, and the document has exactly this
//! layout: no whitespace, keys in this order. The writer serializes the
//! body once and splices it in; the loader hashes the body bytes as
//! stored, then parses them. A version-3 document in any other layout is
//! [`TrainError::Corrupt`], so any torn write or changed byte fails typed
//! before a single weight is loaded; a document of any other version is
//! [`TrainError::Mismatch`]. Every tensor's `data` is one string of hex
//! words ([`Json::hex_words`]: each f32's little-endian bytes), so every
//! bit pattern, NaN payloads included, survives. Writes go to a temp file
//! first and are published with an atomic `rename`, and train-state saves
//! rotate the previous file to a `.prev` generation so a corrupted latest
//! checkpoint still leaves a loadable one behind.
//!
//! Two kinds of body are written:
//!
//! * `"kind":"params"` — just the weights ([`save_params`]/[`load_params`]),
//!   for train-once/serve-later.
//! * `"kind":"train_state"` — weights **plus** Adam moments, epoch/patience
//!   counters, the current (possibly recovery-halved) learning rate, the
//!   PRNG state and the epoch history ([`save_train_state`]/
//!   [`load_train_state`]), so `fit` can resume bit-identically after a
//!   kill ([`crate::fit_with_options`]).

use std::io::Write;
use std::path::{Path, PathBuf};

use lasagne_autograd::{AdamState, ParamId, ParamStore};
use lasagne_tensor::Tensor;
use lasagne_testkit::Json;

use crate::error::{TrainError, TrainResult};
use crate::trainer::EpochStats;

/// Current on-disk format version.
pub const FORMAT_VERSION: u64 = 3;

/// FNV-1a 64-bit hash — the checkpoint content checksum. Not cryptographic;
/// it detects the accidental corruption (torn writes, bit rot) that kills
/// multi-hour sweeps.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> TrainError {
    TrainError::Io(format!("{}: {e}", path.display()))
}

/// A v3 document's bytes up to its checksum digits: the serialization of
/// `{"format_version": FORMAT_VERSION, "checksum": "…`.
const HEAD: &[u8] = br#"{"format_version":3,"checksum":""#;
/// The bytes between the checksum digits and the body.
const BODY_KEY: &[u8] = br#"","body":"#;

/// Serialize `body` under a checksum envelope and publish it atomically:
/// write to `<path>.tmp`, then `rename` over `path` (a crash mid-write
/// leaves the old file intact, never a half-written new one). Public so
/// other on-disk artifacts (frozen models in `lasagne-serve`) share the
/// exact same envelope and durability guarantees.
///
/// The body is serialized once and written after the head and checksum
/// digits, followed by a closing `}`: the same bytes as serializing the
/// whole `{format_version, checksum, body}` object.
pub fn atomic_write_envelope(path: &Path, body: Json) -> TrainResult<()> {
    let (body_text, checksum) = {
        lasagne_obs::span!("envelope.serialize");
        let text = body.to_string();
        let checksum = format!("{:016x}", fnv1a64(text.as_bytes()));
        (text, checksum)
    };
    // Checkpoint sizes vary with the epoch timings they record, so the byte
    // count is zeroed in deterministic traces like a duration.
    let len = HEAD.len() + checksum.len() + BODY_KEY.len() + body_text.len() + 1;
    lasagne_obs::counter_add_ns("envelope.bytes", len as u64);
    let tmp = sibling(path, "tmp");
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(HEAD)?;
        file.write_all(checksum.as_bytes())?;
        file.write_all(BODY_KEY)?;
        file.write_all(body_text.as_bytes())?;
        file.write_all(b"}")
    };
    write().map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// The stored checksum and body bytes of a v3 file in the layout
/// [`atomic_write_envelope`] writes; `None` for anything else.
fn split_envelope(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let rest = bytes.strip_prefix(HEAD)?;
    let (hex, rest) = (rest.get(..16)?, &rest[16..]);
    if !hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let body = rest.strip_prefix(BODY_KEY)?.strip_suffix(b"}")?;
    let stored = u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
    Some((stored, body))
}

/// `<path>.<suffix>` alongside the checkpoint (keeps the original extension,
/// so generations of `ckpt.json` are `ckpt.json.prev` / `ckpt.json.tmp`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
}

/// The previous-generation path used by [`save_train_state`]'s rotation.
pub fn previous_generation(path: &Path) -> PathBuf {
    sibling(path, "prev")
}

/// Read `path`, verify the checksum envelope, and return the body.
///
/// A v3 file in the writer's layout is one pass: hash the body bytes as
/// stored ([`TrainError::Corrupt`] on a mismatch), then parse them. Anything
/// else is parsed whole: version 3 in any other layout is `Corrupt`, and
/// every other version, the v1 and v2 files of earlier builds included, is
/// [`TrainError::Mismatch`], naming the version.
pub fn read_envelope(path: &Path) -> TrainResult<Json> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    lasagne_obs::counter_add_ns("envelope.bytes", bytes.len() as u64);
    let parse = |b: &[u8]| -> TrainResult<Json> {
        lasagne_obs::span!("envelope.parse");
        let err = |e: &dyn std::fmt::Display| TrainError::Parse(format!("{}: {e}", path.display()));
        let text = std::str::from_utf8(b).map_err(|e| err(&e))?;
        Json::parse(text).map_err(|e| err(&e))
    };
    if let Some((stored, body)) = split_envelope(&bytes) {
        let actual = {
            lasagne_obs::span!("envelope.verify");
            fnv1a64(body)
        };
        if actual != stored {
            return Err(TrainError::Corrupt(format!(
                "{}: checksum {actual:016x} != stored {stored:016x}",
                path.display()
            )));
        }
        return parse(body);
    }
    let doc = parse(&bytes)?;
    let version = doc
        .get("format_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| TrainError::Parse("missing format_version".into()))?;
    match version {
        FORMAT_VERSION => Err(TrainError::Corrupt(format!(
            "{}: format version 3 document is not in the checksummed layout",
            path.display()
        ))),
        v => Err(TrainError::Mismatch(format!(
            "{}: unsupported format version {v}; this build reads version 3 only, \
             so re-export the file with it",
            path.display()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Tensor / param (de)serialization helpers
// ---------------------------------------------------------------------------

/// A tensor's `data`: one string of hex words, the f32s' little-endian
/// bytes.
fn data_to_json(t: &Tensor) -> Json {
    Json::hex_words(t.as_slice().iter().map(|v| v.to_le_bytes()))
}

pub fn tensor_to_json(t: &Tensor) -> Json {
    Json::Obj(vec![
        ("rows".into(), Json::Num(t.rows() as f64)),
        ("cols".into(), Json::Num(t.cols() as f64)),
        ("data".into(), data_to_json(t)),
    ])
}

pub fn tensor_from_json(j: &Json) -> TrainResult<Tensor> {
    let field = |k: &str| {
        j.get(k).ok_or_else(|| TrainError::Parse(format!("tensor missing field '{k}'")))
    };
    let rows = field("rows")?.as_usize().ok_or_else(|| TrainError::Parse("'rows' not an integer".into()))?;
    let cols = field("cols")?.as_usize().ok_or_else(|| TrainError::Parse("'cols' not an integer".into()))?;
    let data = field("data")?
        .to_hex_words(f32::from_le_bytes)
        .ok_or_else(|| TrainError::Parse("'data' not a string of f32 hex words".into()))?;
    // The document parsed; a declared shape its data does not fill is a
    // shape mismatch.
    Tensor::from_vec(rows, cols, data).map_err(|e| TrainError::Mismatch(e.to_string()))
}

pub fn named_param_to_json(name: &str, t: &Tensor) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("rows".into(), Json::Num(t.rows() as f64)),
        ("cols".into(), Json::Num(t.cols() as f64)),
        ("data".into(), data_to_json(t)),
    ])
}

pub fn named_param_from_json(j: &Json) -> TrainResult<(String, Tensor)> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| TrainError::Parse("param missing 'name'".into()))?
        .to_string();
    Ok((name, tensor_from_json(j)?))
}

fn store_params_to_json(store: &ParamStore) -> Json {
    Json::Arr(
        (0..store.len())
            .map(|i| {
                let id = ParamId::from_index(i);
                named_param_to_json(store.name(id), store.value(id))
            })
            .collect(),
    )
}

/// Validate names/counts/shapes and copy `params` into `store`.
fn apply_params(store: &mut ParamStore, params: &[(String, Tensor)]) -> TrainResult<()> {
    if params.len() != store.len() {
        return Err(TrainError::Mismatch(format!(
            "checkpoint has {} params, model has {}",
            params.len(),
            store.len()
        )));
    }
    for (i, (name, tensor)) in params.iter().enumerate() {
        let id = ParamId::from_index(i);
        if store.name(id) != name {
            return Err(TrainError::Mismatch(format!(
                "param {i} is '{name}' in the checkpoint but '{}' in the model",
                store.name(id)
            )));
        }
        if store.value(id).shape() != tensor.shape() {
            return Err(TrainError::Mismatch(format!(
                "param '{name}' is {:?} in the checkpoint but {:?} in the model",
                tensor.shape(),
                store.value(id).shape()
            )));
        }
    }
    for (i, (_, tensor)) in params.iter().enumerate() {
        *store.value_mut(ParamId::from_index(i)) = tensor.clone();
    }
    Ok(())
}

fn params_array_from_json(j: &Json) -> TrainResult<Vec<(String, Tensor)>> {
    j.as_arr()
        .ok_or_else(|| TrainError::Parse("'params' not an array".into()))?
        .iter()
        .map(named_param_from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Params-only checkpoints
// ---------------------------------------------------------------------------

/// Write every parameter of `store` to `path` (format v3: checksummed,
/// atomically published).
pub fn save_params(store: &ParamStore, path: &Path) -> TrainResult<()> {
    lasagne_obs::span!("checkpoint.save");
    let body = Json::Obj(vec![
        ("kind".into(), Json::Str("params".into())),
        ("params".into(), store_params_to_json(store)),
    ]);
    atomic_write_envelope(path, body)
}

/// Load a checkpoint written by [`save_params`] into `store`. The store
/// must already contain parameters with identical names and shapes (i.e.
/// build the model with the same configuration first).
/// Also accepts a `train_state` checkpoint, loading just its weights.
pub fn load_params(store: &mut ParamStore, path: &Path) -> TrainResult<()> {
    lasagne_obs::span!("checkpoint.load");
    let body = read_envelope(path)?;
    let params = body
        .get("params")
        .ok_or_else(|| TrainError::Parse("missing params array".into()))?;
    apply_params(store, &params_array_from_json(params)?)
}

// ---------------------------------------------------------------------------
// Full train-state checkpoints (crash-safe resume)
// ---------------------------------------------------------------------------

/// Everything `fit` needs to continue bit-identically after a kill: weights,
/// the best-validation snapshot, Adam moments, progress counters, the
/// (possibly recovery-halved) learning rate, the PRNG state, and the epoch
/// history accumulated so far.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// First epoch the resumed run should execute.
    pub next_epoch: usize,
    /// Global optimization-step counter (counts every attempt, including
    /// recovery retries).
    pub step: usize,
    /// Learning rate in effect (halved by each divergence recovery).
    pub lr: f32,
    /// Divergence recoveries consumed so far.
    pub recoveries: usize,
    /// Best validation accuracy seen.
    pub best_val: f64,
    /// Epochs since the best validation accuracy improved.
    pub since_best: usize,
    /// Accumulated optimization wall-clock seconds.
    pub train_time_total: f64,
    /// PRNG state at the epoch boundary.
    pub rng: [u64; 4],
    /// Named current weights.
    pub params: Vec<(String, Tensor)>,
    /// Weights at the best-validation epoch (unnamed; same order as
    /// `params`).
    pub best_params: Vec<Tensor>,
    /// Adam step count and moments.
    pub adam: AdamState,
    /// Per-epoch history up to the checkpoint.
    pub history: Vec<EpochStats>,
}

impl TrainState {
    /// Validate and copy this state's current weights into `store`.
    pub fn apply_params(&self, store: &mut ParamStore) -> TrainResult<()> {
        apply_params(store, &self.params)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str("train_state".into())),
            (
                "progress".into(),
                Json::Obj(vec![
                    ("next_epoch".into(), Json::Num(self.next_epoch as f64)),
                    ("step".into(), Json::Num(self.step as f64)),
                    ("lr".into(), Json::Num(self.lr as f64)),
                    ("recoveries".into(), Json::Num(self.recoveries as f64)),
                    // f64 bits as hex: exact even for -inf (no eval yet).
                    ("best_val_bits".into(), Json::Str(format!("{:016x}", self.best_val.to_bits()))),
                    ("since_best".into(), Json::Num(self.since_best as f64)),
                    ("train_time_total".into(), Json::Num(self.train_time_total)),
                ]),
            ),
            (
                "rng".into(),
                Json::Arr(self.rng.iter().map(|w| Json::Str(format!("{w:016x}"))).collect()),
            ),
            (
                "params".into(),
                Json::Arr(
                    self.params
                        .iter()
                        .map(|(n, t)| named_param_to_json(n, t))
                        .collect(),
                ),
            ),
            (
                "best_params".into(),
                Json::Arr(self.best_params.iter().map(tensor_to_json).collect()),
            ),
            (
                "adam".into(),
                Json::Obj(vec![
                    ("t".into(), Json::Num(self.adam.t as f64)),
                    ("m".into(), Json::Arr(self.adam.m.iter().map(tensor_to_json).collect())),
                    ("v".into(), Json::Arr(self.adam.v.iter().map(tensor_to_json).collect())),
                ]),
            ),
            (
                "history".into(),
                Json::Arr(self.history.iter().map(EpochStats::to_json).collect()),
            ),
        ])
    }

    fn from_json(body: &Json) -> TrainResult<TrainState> {
        if body.get("kind").and_then(Json::as_str) != Some("train_state") {
            return Err(TrainError::Mismatch(
                "not a train_state checkpoint (kind field)".into(),
            ));
        }
        let progress = body
            .get("progress")
            .ok_or_else(|| TrainError::Parse("missing progress".into()))?;
        let p_usize = |k: &str| {
            progress
                .get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| TrainError::Parse(format!("progress.{k} missing/invalid")))
        };
        let p_f64 = |k: &str| {
            progress
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| TrainError::Parse(format!("progress.{k} missing/invalid")))
        };
        let hex_u64 = |j: Option<&Json>, what: &str| -> TrainResult<u64> {
            j.and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| TrainError::Parse(format!("{what} missing/invalid")))
        };
        let rng_arr = body
            .get("rng")
            .and_then(Json::as_arr)
            .ok_or_else(|| TrainError::Parse("rng state missing".into()))?;
        if rng_arr.len() != 4 {
            return Err(TrainError::Parse("rng state must have 4 words".into()));
        }
        let mut rng = [0u64; 4];
        for (slot, word) in rng.iter_mut().zip(rng_arr) {
            *slot = hex_u64(Some(word), "rng word")?;
        }
        let tensors = |k: &str| -> TrainResult<Vec<Tensor>> {
            body.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| TrainError::Parse(format!("{k} missing")))?
                .iter()
                .map(tensor_from_json)
                .collect()
        };
        let adam = body.get("adam").ok_or_else(|| TrainError::Parse("adam state missing".into()))?;
        let adam_tensors = |k: &str| -> TrainResult<Vec<Tensor>> {
            adam.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| TrainError::Parse(format!("adam.{k} missing")))?
                .iter()
                .map(tensor_from_json)
                .collect()
        };
        Ok(TrainState {
            next_epoch: p_usize("next_epoch")?,
            step: p_usize("step")?,
            lr: p_f64("lr")? as f32,
            recoveries: p_usize("recoveries")?,
            best_val: f64::from_bits(hex_u64(progress.get("best_val_bits"), "best_val_bits")?),
            since_best: p_usize("since_best")?,
            train_time_total: p_f64("train_time_total")?,
            rng,
            params: params_array_from_json(
                body.get("params")
                    .ok_or_else(|| TrainError::Parse("params missing".into()))?,
            )?,
            best_params: tensors("best_params")?,
            adam: AdamState {
                t: adam
                    .get("t")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| TrainError::Parse("adam.t missing".into()))?,
                m: adam_tensors("m")?,
                v: adam_tensors("v")?,
            },
            history: body
                .get("history")
                .and_then(Json::as_arr)
                .ok_or_else(|| TrainError::Parse("history missing".into()))?
                .iter()
                .map(EpochStats::from_json)
                .collect::<TrainResult<Vec<_>>>()?,
        })
    }
}

/// Write a full train-state checkpoint, rotating any existing file at
/// `path` to the `.prev` generation first. Even if this write is later
/// found corrupt, [`load_train_state_with_fallback`] can still recover the
/// previous epoch's state.
pub fn save_train_state(state: &TrainState, path: &Path) -> TrainResult<()> {
    lasagne_obs::span!("checkpoint.save");
    if path.exists() {
        let prev = previous_generation(path);
        std::fs::rename(path, &prev).map_err(|e| io_err(&prev, e))?;
    }
    atomic_write_envelope(path, state.to_json())
}

/// Load a train-state checkpoint, verifying the checksum.
pub fn load_train_state(path: &Path) -> TrainResult<TrainState> {
    lasagne_obs::span!("checkpoint.load");
    TrainState::from_json(&read_envelope(path)?)
}

/// Load `path`, and if it is corrupt/truncated/unparseable, fall back to
/// the `.prev` generation. Returns the state and whether the fallback was
/// used. A missing primary file is an error (nothing to resume), as is a
/// corrupt primary with no healthy previous generation.
pub fn load_train_state_with_fallback(path: &Path) -> TrainResult<(TrainState, bool)> {
    match load_train_state(path) {
        Ok(state) => Ok((state, false)),
        Err(primary_err @ (TrainError::Corrupt(_) | TrainError::Parse(_))) => {
            match load_train_state(&previous_generation(path)) {
                Ok(state) => Ok((state, true)),
                Err(_) => Err(primary_err),
            }
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_tensor::TensorRng;
    use lasagne_testkit::rng::Rng;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lasagne-ckpt-{name}-{}.json", std::process::id()))
    }

    fn sample_store(seed: u64) -> ParamStore {
        let mut rng = TensorRng::seed_from_u64(seed);
        let mut s = ParamStore::new();
        s.add("w1", rng.uniform_tensor(3, 4, -1.0, 1.0));
        s.add_with_decay("b1", rng.uniform_tensor(1, 4, -1.0, 1.0), false);
        s
    }

    fn sample_state(seed: u64) -> TrainState {
        let store = sample_store(seed);
        let adam = lasagne_autograd::Adam::new(&store, 0.01, 5e-4).state();
        TrainState {
            next_epoch: 7,
            step: 9,
            lr: 0.005,
            recoveries: 1,
            best_val: 0.8125,
            since_best: 2,
            train_time_total: 1.5,
            rng: TensorRng::seed_from_u64(seed).state(),
            params: (0..store.len())
                .map(|i| {
                    let id = ParamId::from_index(i);
                    (store.name(id).to_string(), store.value(id).clone())
                })
                .collect(),
            best_params: store.snapshot(),
            adam,
            history: vec![EpochStats { epoch: 0, loss: 1.25, val_acc: Some(0.5), train_seconds: 0.01 }],
        }
    }

    #[test]
    fn round_trip_preserves_values() -> TrainResult<()> {
        let path = temp_path("roundtrip");
        let src = sample_store(1);
        save_params(&src, &path)?;
        let mut dst = sample_store(2); // same shapes, different values
        assert_ne!(
            src.value(ParamId::from_index(0)),
            dst.value(ParamId::from_index(0))
        );
        load_params(&mut dst, &path)?;
        for i in 0..src.len() {
            let id = ParamId::from_index(i);
            assert_eq!(src.value(id), dst.value(id));
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn shape_mismatch_is_rejected() -> TrainResult<()> {
        let path = temp_path("shape");
        save_params(&sample_store(1), &path)?;
        let mut rng = TensorRng::seed_from_u64(0);
        let mut wrong = ParamStore::new();
        wrong.add("w1", rng.uniform_tensor(2, 2, -1.0, 1.0));
        wrong.add("b1", rng.uniform_tensor(1, 4, -1.0, 1.0));
        let err = load_params(&mut wrong, &path).unwrap_err();
        assert!(matches!(err, TrainError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn name_mismatch_is_rejected() -> TrainResult<()> {
        let path = temp_path("name");
        save_params(&sample_store(1), &path)?;
        let mut rng = TensorRng::seed_from_u64(0);
        let mut wrong = ParamStore::new();
        wrong.add("other", rng.uniform_tensor(3, 4, -1.0, 1.0));
        wrong.add("b1", rng.uniform_tensor(1, 4, -1.0, 1.0));
        let err = load_params(&mut wrong, &path).unwrap_err();
        assert!(matches!(err, TrainError::Mismatch(_)));
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn missing_file_is_io_error() {
        let mut s = sample_store(1);
        let err = load_params(&mut s, Path::new("/nonexistent/ckpt.json")).unwrap_err();
        assert!(matches!(err, TrainError::Io(_)));
    }

    /// `body` in the v1 and v2 spelling: every tensor's `data` as one
    /// JSON number per element.
    fn with_decimal_data(body: Json) -> Json {
        match body {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| match (k.as_str(), v.to_hex_words(f32::from_le_bytes)) {
                        ("data", Some(data)) => (k, Json::from_f32s(data)),
                        _ => (k, with_decimal_data(v)),
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(with_decimal_data).collect()),
            other => other,
        }
    }

    /// Write `body` as a v2 file exactly as v2 writers did: checksummed,
    /// in the canonical layout, with decimal tensor data.
    fn write_v2(path: &Path, body: Json) {
        let text = with_decimal_data(body).to_string();
        let checksum = format!("{:016x}", fnv1a64(text.as_bytes()));
        let doc = format!(r#"{{"format_version":2,"checksum":"{checksum}","body":{text}}}"#);
        std::fs::write(path, doc).expect("write v2 file");
    }

    #[test]
    fn v1_and_v2_documents_are_refused_naming_their_version() -> TrainResult<()> {
        let store = sample_store(3);
        // A v1 checkpoint has the params at the top level and no checksum.
        let v1 = temp_path("v1");
        let v1_doc = Json::Obj(vec![
            ("format_version".into(), Json::Num(1.0)),
            ("params".into(), store_params_to_json(&store)),
        ]);
        std::fs::write(&v1, with_decimal_data(v1_doc).to_string()).map_err(|e| io_err(&v1, e))?;
        let v2 = temp_path("v2");
        write_v2(&v2, Json::Obj(vec![
            ("kind".into(), Json::Str("params".into())),
            ("params".into(), store_params_to_json(&store)),
        ]));
        let v2_state = temp_path("v2-state");
        write_v2(&v2_state, sample_state(3).to_json());
        // A healthy previous generation must not be loaded in its place.
        save_train_state(&sample_state(4), &previous_generation(&v2_state))?;
        let check = |version: u32, err: TrainError| {
            let TrainError::Mismatch(m) = &err else { panic!("v{version}: {err:?}") };
            let want = format!("unsupported format version {version}");
            assert!(m.contains(&want) && m.contains("re-export"), "{m}");
        };
        for (version, path) in [(1, &v1), (2, &v2), (2, &v2_state)] {
            check(version, load_params(&mut sample_store(4), path).unwrap_err());
            check(version, load_train_state(path).unwrap_err());
            check(version, load_train_state_with_fallback(path).unwrap_err());
        }
        // A partition store whose manifest is a v1 or v2 document.
        let dir = std::env::temp_dir().join(format!("lasagne-ckpt-v2-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let manifest = Json::Obj(vec![
            ("kind".into(), Json::Str("partition_manifest".into())),
            ("num_blocks".into(), Json::Num(1.0)),
            ("nodes".into(), Json::Num(3.0)),
            ("num_classes".into(), Json::Num(2.0)),
            ("train_blocks".into(), Json::Arr(vec![Json::Num(0.0)])),
        ]);
        write_v2(&dir.join("manifest.json"), manifest.clone());
        check(2, crate::PartitionStore::open(&dir).unwrap_err());
        let Json::Obj(mut v1_manifest) = manifest else { unreachable!("an object") };
        v1_manifest.insert(0, ("format_version".into(), Json::Num(1.0)));
        std::fs::write(dir.join("manifest.json"), Json::Obj(v1_manifest).to_string())
            .map_err(|e| io_err(&dir, e))?;
        check(1, crate::PartitionStore::open(&dir).unwrap_err());
        let _ = std::fs::remove_dir_all(&dir);
        for p in [&v1, &v2, &v2_state, &previous_generation(&v2_state)] {
            let _ = std::fs::remove_file(p);
        }
        Ok(())
    }

    #[test]
    fn tensors_round_trip_every_bit_pattern() -> TrainResult<()> {
        let mut rng = Rng::seed_from_u64(21);
        for case in 0..60 {
            let (rows, cols) = (rng.index(7), rng.index(7));
            let mut bits: Vec<u32> = (0..rows * cols).map(|_| rng.next_u64() as u32).collect();
            // NaN payloads, ±0, ±inf and subnormals, at the front.
            let specials = [0x7fc0_0001, 0xffbf_ffff, 0x8000_0000, 0, 0x7f80_0000, 0xff80_0000, 0x0000_0001, 0x807f_ffff];
            for (b, s) in bits.iter_mut().zip(specials.iter().cycle().skip(case)) {
                *b = *s;
            }
            let t = Tensor::from_vec(rows, cols, bits.iter().map(|&b| f32::from_bits(b)).collect())
                .expect("shape");
            for json in [tensor_to_json(&t), named_param_to_json("w", &t)] {
                let back = tensor_from_json(&Json::parse(&json.to_string()).expect("parses"))?;
                assert_eq!(back.shape(), (rows, cols));
                assert_eq!(back.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
            }
        }
        // A NaN weight, which a decimal file could not hold, saves and loads.
        let path = temp_path("nan");
        let mut store = sample_store(1);
        store.value_mut(ParamId::from_index(0)).as_mut_slice()[5] = f32::from_bits(0x7fa0_0001);
        save_params(&store, &path)?;
        let mut back = sample_store(2);
        load_params(&mut back, &path)?;
        assert_eq!(back.value(ParamId::from_index(0)).as_slice()[5].to_bits(), 0x7fa0_0001);
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn malformed_data_fails_typed() {
        let with_data = |rows: f64, data: Json| {
            tensor_from_json(&Json::Obj(vec![
                ("rows".into(), Json::Num(rows)),
                ("cols".into(), Json::Num(1.0)),
                ("data".into(), data),
            ]))
        };
        assert!(with_data(2.0, Json::Str("0000803f00000040".into())).is_ok());
        for bad in [
            Json::Str("0000803f0000004".into()),
            Json::Str("0000803F00000040".into()),
            Json::Str("0000803f0000004x".into()),
            Json::from_f32s([1.0, 2.0]),
        ] {
            let err = with_data(2.0, bad.clone()).unwrap_err();
            assert!(matches!(err, TrainError::Parse(_)), "{bad}: {err}");
        }
        for rows in [1.0, 3.0] {
            let err = with_data(rows, Json::Str("0000803f00000040".into())).unwrap_err();
            assert!(matches!(err, TrainError::Mismatch(_)), "{rows}: {err}");
        }
    }

    #[test]
    fn checksum_detects_a_flipped_byte() -> TrainResult<()> {
        let path = temp_path("flip");
        save_params(&sample_store(5), &path)?;
        // Flip a byte inside the params payload (past the envelope header).
        let mut bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let target = bytes.len() / 2;
        bytes[target] ^= 0x04;
        std::fs::write(&path, &bytes).map_err(|e| io_err(&path, e))?;
        let mut dst = sample_store(5);
        let err = load_params(&mut dst, &path).unwrap_err();
        assert!(
            matches!(err, TrainError::Corrupt(_) | TrainError::Parse(_)),
            "flip must be caught, got: {err}"
        );
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn writer_bytes_equal_the_whole_document_serialization() -> TrainResult<()> {
        let body = Json::Obj(vec![
            ("kind".into(), Json::Str("esc \" \\ \n \t \u{1} ünï 🎉".into())),
            (
                "nested".into(),
                Json::Obj(vec![
                    (
                        "values".into(),
                        Json::Arr(vec![
                            Json::Num(-0.0),
                            Json::Num(3.0),
                            Json::Num(-17.0),
                            Json::Num(0.1),
                            Json::Num(2f64.powi(63)),
                            Json::Null,
                            Json::Bool(true),
                        ]),
                    ),
                    ("empty".into(), Json::Obj(Vec::new())),
                ]),
            ),
        ]);
        // The reference: the envelope serialized as one object, which is how
        // every v2 file was written before the body was spliced in.
        let reference = Json::Obj(vec![
            ("format_version".into(), Json::Num(FORMAT_VERSION as f64)),
            ("checksum".into(), Json::Str(format!("{:016x}", fnv1a64(body.to_string().as_bytes())))),
            ("body".into(), body.clone()),
        ])
        .to_string();
        let path = temp_path("writer");
        atomic_write_envelope(&path, body.clone())?;
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        assert_eq!(String::from_utf8(bytes).expect("utf-8"), reference);
        assert_eq!(read_envelope(&path)?, body);
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn every_one_bit_flip_fails_typed() -> TrainResult<()> {
        let path = temp_path("every-flip");
        save_params(&sample_store(5), &path)?;
        let pristine = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let version_digit = HEAD.len() - br#","checksum":""#.len() - 1;
        assert_eq!(pristine[version_digit], b'3');
        for at in 0..pristine.len() {
            for bit in 0..8 {
                let mut bytes = pristine.clone();
                bytes[at] ^= 1 << bit;
                std::fs::write(&path, &bytes).map_err(|e| io_err(&path, e))?;
                match load_params(&mut sample_store(5), &path) {
                    Err(TrainError::Corrupt(_) | TrainError::Parse(_)) => {}
                    // A flip of the version digit to another digit leaves a
                    // well-formed document declaring an unsupported version.
                    Err(TrainError::Mismatch(m))
                        if at == version_digit && bytes[at].is_ascii_digit() =>
                    {
                        assert!(m.contains("unsupported format version"), "{m}");
                    }
                    other => panic!("byte {at} ^ {:#04x}: {other:?}", 1u8 << bit),
                }
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn a_v2_document_in_another_layout_is_corrupt() -> TrainResult<()> {
        let path = temp_path("layout");
        let body = Json::Obj(vec![
            ("kind".into(), Json::Str("params".into())),
            ("params".into(), store_params_to_json(&sample_store(6))),
        ]);
        let text = body.to_string();
        let checksum = format!("{:016x}", fnv1a64(text.as_bytes()));
        assert!(checksum.bytes().any(|b| b.is_ascii_alphabetic()), "case must matter");
        // Each is a JSON document carrying the true checksum of the canonical
        // body text, and each loaded before the loader hashed stored bytes.
        let spaced = text.replace(',', ", ").replace(':', ": ");
        for doc in [
            format!(r#"{{"format_version": 3, "checksum": "{checksum}", "body": {spaced}}}"#),
            format!(r#"{{"format_version":3,"checksum":"{checksum}","body":{text}}}"#) + "\n",
            format!(r#"{{"checksum":"{checksum}","format_version":3,"body":{text}}}"#),
            format!(r#"{{"format_version":3,"checksum":"{}","body":{text}}}"#, checksum.to_uppercase()),
        ] {
            std::fs::write(&path, &doc).map_err(|e| io_err(&path, e))?;
            let err = load_params(&mut sample_store(6), &path).unwrap_err();
            assert!(matches!(err, TrainError::Corrupt(_)), "{err}: {doc:.60}");
        }
        // The same body in the writer's layout loads.
        let canonical = format!(r#"{{"format_version":3,"checksum":"{checksum}","body":{text}}}"#);
        std::fs::write(&path, canonical).map_err(|e| io_err(&path, e))?;
        load_params(&mut sample_store(7), &path)?;
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    #[test]
    fn train_state_round_trips_exactly() -> TrainResult<()> {
        let path = temp_path("state");
        let state = sample_state(6);
        save_train_state(&state, &path)?;
        let (back, from_fallback) = load_train_state_with_fallback(&path)?;
        assert!(!from_fallback);
        assert_eq!(back.next_epoch, state.next_epoch);
        assert_eq!(back.step, state.step);
        assert_eq!(back.lr.to_bits(), state.lr.to_bits());
        assert_eq!(back.recoveries, state.recoveries);
        assert_eq!(back.best_val.to_bits(), state.best_val.to_bits());
        assert_eq!(back.since_best, state.since_best);
        assert_eq!(back.rng, state.rng);
        assert_eq!(back.params, state.params);
        assert_eq!(back.best_params, state.best_params);
        assert_eq!(back.adam.t, state.adam.t);
        assert_eq!(back.adam.m, state.adam.m);
        assert_eq!(back.adam.v, state.adam.v);
        assert_eq!(back.history.len(), 1);
        assert_eq!(back.history[0].loss.to_bits(), state.history[0].loss.to_bits());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(previous_generation(&path));
        Ok(())
    }

    #[test]
    fn negative_infinity_best_val_survives() -> TrainResult<()> {
        // best_val is -inf until the first evaluation; the bits-hex encoding
        // must carry it through (plain JSON numbers cannot).
        let path = temp_path("neginf");
        let mut state = sample_state(7);
        state.best_val = f64::NEG_INFINITY;
        save_train_state(&state, &path)?;
        let back = load_train_state(&path)?;
        assert!(back.best_val == f64::NEG_INFINITY);
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_generation() -> TrainResult<()> {
        let path = temp_path("generations");
        let older = sample_state(8);
        save_train_state(&older, &path)?;
        let mut newer = sample_state(8);
        newer.next_epoch = 20;
        save_train_state(&newer, &path)?; // rotates `older` to .prev
        // Corrupt the latest file.
        lasagne_testkit::flip_byte(&path, &mut Rng::seed_from_u64(1))
            .map_err(|e| io_err(&path, e))?;
        let (state, from_fallback) = load_train_state_with_fallback(&path)?;
        assert!(from_fallback, "must report the fallback generation was used");
        assert_eq!(state.next_epoch, older.next_epoch);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(previous_generation(&path));
        Ok(())
    }

    #[test]
    fn truncated_checkpoint_is_rejected_not_garbage() -> TrainResult<()> {
        let path = temp_path("truncated");
        save_train_state(&sample_state(9), &path)?;
        lasagne_testkit::truncate_file(&path, 0.6).map_err(|e| io_err(&path, e))?;
        let err = load_train_state(&path).unwrap_err();
        assert!(matches!(err, TrainError::Parse(_) | TrainError::Corrupt(_)), "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(previous_generation(&path));
        Ok(())
    }
}
