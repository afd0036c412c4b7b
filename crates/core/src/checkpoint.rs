//! Checkpoint/restart — full engine-state serialization.
//!
//! The paper's kernels live inside the ExaHyPE *engine*, a long-lived
//! system whose runs survive node failures and queue-time limits; this
//! module gives the reproduction the same property. A [`Checkpoint`]
//! captures everything needed to resume a scenario run bit-identically:
//! the scenario's registry key, the fully **resolved** solver knobs
//! (order, kernel, cfl, rule, pipeline, the tuner's block-size pick, …),
//! the run's series so far, and the raw engine state — mesh dimensions,
//! the padded per-cell DOF array, `time`, `steps` and every receiver's
//! records.
//!
//! # Codec
//!
//! The format is a dependency-free little-endian binary codec:
//!
//! ```text
//! magic  b"ADERDGCKPT1\n"
//! u8     smoke flag
//! str    scenario registry key          (str = u64 length + UTF-8 bytes)
//! u64    #knobs, then (str key, str value) pairs
//! u64    #initial integrals, then f64 each
//! u64    #series points, then (f64 t, u64 steps, f64 l2_norm,
//!                              u8 has_error, [f64 l2_error]) each
//! u64×3  mesh dims   u64 order   u64 state_len (padded doubles/cell)
//! f64    time        u64 steps
//! u64    #cells, then #cells · state_len f64 DOFs
//! u64    #receivers, then (f64×3 position, u64 #records,
//!                          (f64 t, u64 #values, f64 values…)…) each
//! u64    #LTS cluster clocks, then (f64 time, u64 sub_steps) each
//!        (0 for global-stepping runs)
//! u64    FNV-1a 64 hash of every preceding byte
//! ```
//!
//! Every array length is validated against the bytes actually remaining
//! before anything is allocated, so a corrupt length field reports
//! "truncated checkpoint" instead of attempting a huge allocation, and
//! the trailing checksum catches silent mid-file corruption.
//!
//! Bit-identical resume holds on one host in every tuning mode: the
//! saved knobs pin the resolved configuration (including the block
//! size), and the engine's determinism
//! contract pins step results across thread counts and pipelines. What
//! still varies across hosts is the GEMM ISA tile the host supports
//! (fused vs unfused multiply-add, tile summation order) — a checkpoint
//! resumed on a machine with a different widest tile continues correctly
//! but not to the last bit.

use crate::scenario::SeriesPoint;
use std::fmt;
use std::path::Path;

/// Magic bytes every checkpoint starts with (format version 1).
pub const MAGIC: &[u8; 12] = b"ADERDGCKPT1\n";

/// Longest accepted string field (scenario names and knob keys/values
/// are all short; anything bigger is a corrupt length).
const MAX_STR: u64 = 4096;

/// A checkpoint failure: unreadable file, bad magic, truncated or
/// corrupt payload, or a restore into a mismatching engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// Human-readable message.
    pub message: String,
}

impl CheckpointError {
    /// New error from anything displayable.
    pub fn new(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint error: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

/// One receiver probe's saved state: identity (position) plus every
/// recorded sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverState {
    /// Physical probe position (matched against the rebuilt engine's
    /// receivers at restore).
    pub position: [f64; 3],
    /// Recorded `(time, values)` samples.
    pub records: Vec<(f64, Vec<f64>)>,
}

/// The raw engine state a checkpoint carries: everything
/// [`Engine::restore_state`](crate::engine::Engine::restore_state) needs
/// to make a freshly built engine bit-identical to the saved one.
#[derive(Clone, PartialEq)]
pub struct EngineState {
    /// Mesh dimensions (cells per axis) — restore validation.
    pub dims: [usize; 3],
    /// Scheme order — restore validation.
    pub order: usize,
    /// Padded doubles per cell (`plan.aos.len()`) — restore validation;
    /// also pins the SIMD padding the state was saved with.
    pub state_len: usize,
    /// Simulated time.
    pub time: f64,
    /// Steps taken.
    pub steps: usize,
    /// All per-cell DOFs, concatenated in cell order (`#cells ·
    /// state_len` doubles, padding included for bit-exactness).
    pub state: Vec<f64>,
    /// Every receiver's position and records.
    pub receivers: Vec<ReceiverState>,
    /// Per-cluster `(time, sub_steps)` clocks of the LTS path, indexed
    /// by cluster level (empty for global-stepping runs — see
    /// [`Engine::lts_clocks`](crate::engine::Engine::lts_clocks)).
    pub lts_clocks: Vec<(f64, u64)>,
}

impl fmt::Debug for EngineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineState")
            .field("dims", &self.dims)
            .field("order", &self.order)
            .field("state_len", &self.state_len)
            .field("time", &self.time)
            .field("steps", &self.steps)
            .field("state", &format_args!("[{} doubles]", self.state.len()))
            .field("receivers", &self.receivers.len())
            .field("lts_clocks", &self.lts_clocks)
            .finish()
    }
}

/// A full saved run: scenario identity, resolved knobs, series so far
/// and the raw engine state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Scenario registry key the run came from (resume validates it).
    pub scenario: String,
    /// Whether the run was in smoke mode (fixed steps, smoke grid).
    pub smoke: bool,
    /// Fully resolved solver/run knobs as `RunRequest::set` key/value
    /// pairs — replaying them rebuilds the exact engine configuration,
    /// including the tuner's block-size pick.
    pub knobs: Vec<(String, String)>,
    /// Mesh integrals at `t = 0` (conservation baselines carried across
    /// the resume).
    pub integrals_initial: Vec<f64>,
    /// Series points recorded before the save.
    pub series: Vec<SeriesPoint>,
    /// The raw engine state.
    pub engine: EngineState,
}

impl Checkpoint {
    /// Serializes the checkpoint into its binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.engine.state.len() * 8);
        buf.extend_from_slice(MAGIC);
        buf.push(u8::from(self.smoke));
        put_str(&mut buf, &self.scenario);
        put_u64(&mut buf, self.knobs.len() as u64);
        for (k, v) in &self.knobs {
            put_str(&mut buf, k);
            put_str(&mut buf, v);
        }
        put_u64(&mut buf, self.integrals_initial.len() as u64);
        for &x in &self.integrals_initial {
            put_f64(&mut buf, x);
        }
        put_u64(&mut buf, self.series.len() as u64);
        for p in &self.series {
            put_f64(&mut buf, p.t);
            put_u64(&mut buf, p.steps as u64);
            put_f64(&mut buf, p.l2_norm);
            buf.push(u8::from(p.l2_error.is_some()));
            if let Some(e) = p.l2_error {
                put_f64(&mut buf, e);
            }
        }
        let e = &self.engine;
        for d in e.dims {
            put_u64(&mut buf, d as u64);
        }
        put_u64(&mut buf, e.order as u64);
        put_u64(&mut buf, e.state_len as u64);
        put_f64(&mut buf, e.time);
        put_u64(&mut buf, e.steps as u64);
        let cells = e.state.len().checked_div(e.state_len).unwrap_or(0);
        put_u64(&mut buf, cells as u64);
        for &x in &e.state {
            put_f64(&mut buf, x);
        }
        put_u64(&mut buf, e.receivers.len() as u64);
        for r in &e.receivers {
            for p in r.position {
                put_f64(&mut buf, p);
            }
            put_u64(&mut buf, r.records.len() as u64);
            for (t, vals) in &r.records {
                put_f64(&mut buf, *t);
                put_u64(&mut buf, vals.len() as u64);
                for &v in vals {
                    put_f64(&mut buf, v);
                }
            }
        }
        put_u64(&mut buf, e.lts_clocks.len() as u64);
        for &(t, subs) in &e.lts_clocks {
            put_f64(&mut buf, t);
            put_u64(&mut buf, subs);
        }
        let hash = fnv1a(&buf);
        put_u64(&mut buf, hash);
        buf
    }

    /// Parses a checkpoint from its binary format, validating magic,
    /// lengths and the trailing checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::new("not an aderdg checkpoint (bad magic)"));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        // PANIC-OK: internal invariant — `split_at` just made `tail`
        // exactly 8 bytes (the length was validated above).
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a(payload) != stored {
            return Err(CheckpointError::new(
                "checksum mismatch (corrupt checkpoint)",
            ));
        }
        let mut r = Reader {
            bytes: &payload[MAGIC.len()..],
        };
        let smoke = r.u8()? != 0;
        let scenario = r.str()?;
        let nknobs = r.len(16)?;
        let mut knobs = Vec::with_capacity(nknobs);
        for _ in 0..nknobs {
            let k = r.str()?;
            let v = r.str()?;
            knobs.push((k, v));
        }
        let nint = r.len(8)?;
        let integrals_initial = (0..nint).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let nseries = r.len(18)?;
        let mut series = Vec::with_capacity(nseries);
        for _ in 0..nseries {
            let t = r.f64()?;
            let steps = r.u64()? as usize;
            let l2_norm = r.f64()?;
            let l2_error = if r.u8()? != 0 { Some(r.f64()?) } else { None };
            series.push(SeriesPoint {
                t,
                steps,
                l2_norm,
                l2_error,
            });
        }
        let dims = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
        let order = r.u64()? as usize;
        let state_len = r.u64()? as usize;
        let time = r.f64()?;
        let steps = r.u64()? as usize;
        let cells = r.len(state_len.max(1).saturating_mul(8))?;
        let total = cells
            .checked_mul(state_len)
            .ok_or_else(|| CheckpointError::new("truncated checkpoint"))?;
        let state = (0..total).map(|_| r.f64()).collect::<Result<_, _>>()?;
        let nrec = r.len(32)?;
        let mut receivers = Vec::with_capacity(nrec);
        for _ in 0..nrec {
            let position = [r.f64()?, r.f64()?, r.f64()?];
            let nrecords = r.len(16)?;
            let mut records = Vec::with_capacity(nrecords);
            for _ in 0..nrecords {
                let t = r.f64()?;
                let nvals = r.len(8)?;
                let vals = (0..nvals).map(|_| r.f64()).collect::<Result<_, _>>()?;
                records.push((t, vals));
            }
            receivers.push(ReceiverState { position, records });
        }
        let nclocks = r.len(16)?;
        let mut lts_clocks = Vec::with_capacity(nclocks);
        for _ in 0..nclocks {
            let t = r.f64()?;
            let subs = r.u64()?;
            lts_clocks.push((t, subs));
        }
        if !r.bytes.is_empty() {
            return Err(CheckpointError::new(format!(
                "{} trailing bytes after the checkpoint payload",
                r.bytes.len()
            )));
        }
        Ok(Self {
            scenario,
            smoke,
            knobs,
            integrals_initial,
            series,
            engine: EngineState {
                dims,
                order,
                state_len,
                time,
                steps,
                state,
                receivers,
                lts_clocks,
            },
        })
    }

    /// Saves the checkpoint to a file, atomically: the bytes go to a
    /// `<name>.tmp` sibling and are renamed over `path` only on success,
    /// so a failed save never clobbers the previous good checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes();
        crate::output::write_atomic(path, |w| w.write_all(&bytes))
            .map_err(|e| CheckpointError::new(format!("cannot write {}: {e}", path.display())))
    }

    /// Rebuilds the [`RunRequest`](crate::scenario::RunRequest) this
    /// checkpoint's run resolved to, by replaying the saved knobs
    /// through [`RunRequest::set`](crate::scenario::RunRequest::set).
    /// The caller attaches the checkpoint itself as `request.resume`
    /// (and may overlay further overrides — e.g. a larger `t_end` to
    /// extend a completed run).
    pub fn to_request(
        &self,
    ) -> Result<crate::scenario::RunRequest, crate::scenario::ScenarioError> {
        use crate::scenario::ScenarioError;
        let mut req = crate::scenario::RunRequest::new();
        req.smoke = self.smoke;
        for (key, value) in &self.knobs {
            match req.set(key, value) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(ScenarioError::new(format!(
                        "checkpoint knob `{key}` is not a known run key \
                         (checkpoint from a newer format?)"
                    )))
                }
                Err(e) => {
                    return Err(ScenarioError::new(format!(
                        "checkpoint knob `{key} = {value}` is invalid (expected {})",
                        e.expected
                    )))
                }
            }
        }
        Ok(req)
    }

    /// Loads a checkpoint from a file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::new(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// A bounds-checked little-endian reader over the payload bytes.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.bytes.len() < n {
            return Err(CheckpointError::new("truncated checkpoint"));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            // PANIC-OK: internal invariant — `take(8)` returned exactly
            // 8 bytes or already errored.
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an array length and validates it against the bytes actually
    /// remaining (each element needs at least `min_elem_bytes`), so a
    /// corrupt length can never trigger a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let fits = (self.bytes.len() / min_elem_bytes.max(1)) as u64;
        if n > fits {
            return Err(CheckpointError::new("truncated checkpoint"));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.u64()?;
        if n > MAX_STR {
            return Err(CheckpointError::new(format!(
                "string field of {n} bytes exceeds the {MAX_STR}-byte cap (corrupt checkpoint)"
            )));
        }
        let raw = self.take(n as usize)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CheckpointError::new("non-UTF-8 string field (corrupt checkpoint)"))
    }
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, x: f64) {
    put_u64(buf, x.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// FNV-1a 64-bit hash — the codec's corruption check (not cryptographic).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            scenario: "acoustic_wave".into(),
            smoke: false,
            knobs: vec![
                ("order".into(), "3".into()),
                ("kernel".into(), "splitck".into()),
            ],
            integrals_initial: vec![1.0, -0.5],
            series: vec![
                SeriesPoint {
                    t: 0.0,
                    steps: 0,
                    l2_norm: 1.25,
                    l2_error: None,
                },
                SeriesPoint {
                    t: 0.1,
                    steps: 7,
                    l2_norm: 1.25000001,
                    l2_error: Some(3.5e-9),
                },
            ],
            engine: EngineState {
                dims: [2, 2, 2],
                order: 3,
                state_len: 6,
                time: 0.1,
                steps: 7,
                state: (0..48).map(|i| i as f64 * 0.125).collect(),
                receivers: vec![ReceiverState {
                    position: [0.5, 0.5, 0.5],
                    records: vec![(0.05, vec![1.0, 2.0]), (0.1, vec![3.0, 4.0])],
                }],
                lts_clocks: vec![(0.1, 4), (0.1, 2), (0.1, 1)],
            },
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        let e = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("bad magic"), "{e}");
        let e = Checkpoint::from_bytes(b"short").unwrap_err();
        assert!(e.message.contains("bad magic"), "{e}");
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().to_bytes();
        // Chopping anywhere inside the payload must fail cleanly (either
        // the checksum is gone or a length overruns) — never panic.
        for cut in [
            MAGIC.len(),
            MAGIC.len() + 3,
            bytes.len() / 2,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_flipped_payload_bytes() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let e = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("checksum"), "{e}");
    }

    #[test]
    fn rejects_oversized_length_fields_without_allocating() {
        let ck = sample();
        let mut bytes = ck.to_bytes();
        // The cell count sits 8 bytes before the DOF array; overwrite it
        // with an absurd value and fix the checksum so the length check
        // itself (not the checksum) must catch it.
        let state_bytes = ck.engine.state.len() * 8;
        let recv_bytes: usize = 8 + ck
            .engine
            .receivers
            .iter()
            .map(|r| {
                24 + 8
                    + r.records
                        .iter()
                        .map(|(_, v)| 16 + v.len() * 8)
                        .sum::<usize>()
            })
            .sum::<usize>();
        let clock_bytes = 8 + ck.engine.lts_clocks.len() * 16;
        let cells_at = bytes.len() - 8 - clock_bytes - recv_bytes - state_bytes - 8;
        bytes[cells_at..cells_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let hash = fnv1a(&bytes[..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&hash.to_le_bytes());
        let e = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = std::env::temp_dir().join(format!("aderdg_ckpt_{}.bin", std::process::id()));
        let ck = sample();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        let _ = std::fs::remove_file(&path);
    }
}
