//! Quantized weight storage for the frozen format (DESIGN.md §13).
//!
//! Two opt-in compressed encodings for matmul-only weights:
//!
//! * **i8** — symmetric per-row linear quantization. Each row `r` stores a
//!   scale `s_r = max|w[r,:]| / 127` and one signed byte per element,
//!   `q = round(w / s_r)` clamped to `[-127, 127]`; dequantization is
//!   `q · s_r`. No zero-point: weights are zero-centered in practice and a
//!   symmetric grid keeps `0.0` exact (an all-zero row stores `s_r = 0`).
//!   Per-element error is bounded by `s_r / 2` — half a quantization step.
//! * **f16** — IEEE 754 binary16 with round-to-nearest-even, converted in
//!   software (the crate policy is zero dependencies). Relative error for
//!   normal values is bounded by `2⁻¹¹`; subnormals, infinities and NaN
//!   payloads follow the standard.
//!
//! Both encodings are byte-deterministic pure functions of the f32 input,
//! so quantized exports stay `cmp`-equal across runs like every other
//! artifact. On the wire the payload bytes and the i8 scales ride as hex
//! words ([`Json::hex_words`], the spelling of every artifact payload) —
//! bytes, not JSON numbers, so the envelope checksum covers the exact
//! quantized values.
//!
//! Exactness escape hatch: quantization never touches the default path.
//! f32 weights remain the format default; a quantized file is produced
//! only by `--export-quantized` and served only under `serve --quantized`.

use lasagne_tensor::Tensor;
use lasagne_testkit::Json;

use crate::error::{ServeError, ServeResult};

/// Which compressed encoding a [`QuantMatrix`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Symmetric per-row-scaled signed bytes (4× smaller than f32).
    I8,
    /// IEEE binary16 (2× smaller than f32).
    F16,
}

impl QuantMode {
    /// Wire tag (`"i8"` / `"f16"`).
    pub fn as_str(self) -> &'static str {
        match self {
            QuantMode::I8 => "i8",
            QuantMode::F16 => "f16",
        }
    }

    /// Parse a wire tag.
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "i8" => Some(QuantMode::I8),
            "f16" => Some(QuantMode::F16),
            _ => None,
        }
    }
}

/// A quantized weight matrix: shape, per-row scales (i8 mode), and the
/// packed payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    mode: QuantMode,
    rows: usize,
    cols: usize,
    /// Per-row symmetric scales; empty in f16 mode.
    scales: Vec<f32>,
    /// i8: one byte per element (two's complement); f16: two LE bytes.
    data: Vec<u8>,
}

/// Convert an `f32` to IEEE binary16 bits with round-to-nearest-even.
/// Software implementation (zero-dependency policy); the exhaustive
/// half→f32→half round-trip test pins it against the standard.
pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let abs = b & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Inf stays Inf; NaN keeps a quiet bit so it stays NaN.
        return sign | if abs > 0x7f80_0000 { 0x7e00 } else { 0x7c00 };
    }
    if abs >= 0x477f_f000 {
        // ≥ 65520 rounds past the largest finite half (65504) → Inf.
        return sign | 0x7c00;
    }
    if abs >= 0x3880_0000 {
        // Normal range: rebias 127→15, round mantissa 23→10 bits. Adding
        // `0x0fff + lsb` is RNE; a carry that overflows the mantissa
        // correctly bumps the exponent.
        let v = abs + 0x0fff + ((abs >> 13) & 1);
        return sign | ((v - 0x3800_0000) >> 13) as u16;
    }
    // Subnormal half (or underflow to zero): value = m · 2^(e-150) with the
    // hidden bit restored; the target ulp is 2⁻²⁴.
    let e = (abs >> 23) as i32;
    if e == 0 {
        // f32 subnormal: < 2⁻¹²⁶, far below half the smallest half ulp.
        return sign;
    }
    let m = (abs & 0x007f_ffff) | 0x0080_0000;
    let shift = 126 - e; // ≥ 14 here
    if shift >= 25 {
        return sign;
    }
    let shift = shift as u32;
    let half = 1u32 << (shift - 1);
    let rem = m & ((1u32 << shift) - 1);
    let mut q = m >> shift;
    if rem > half || (rem == half && (q & 1) == 1) {
        q += 1;
    }
    sign | q as u16
}

/// Convert IEEE binary16 bits to the exactly-representable `f32`.
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    let bits = match (exp, man) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: m · 2⁻²⁴, exact in f32.
            sign | (m as f32 * (1.0 / 16_777_216.0)).to_bits()
        }
        (31, 0) => sign | 0x7f80_0000,
        (31, m) => sign | 0x7fc0_0000 | (m << 13),
        _ => sign | ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

impl QuantMatrix {
    /// Quantize a tensor. Deterministic: the same input always produces the
    /// same scales and bytes.
    pub fn quantize(t: &Tensor, mode: QuantMode) -> QuantMatrix {
        let (rows, cols) = t.shape();
        let w = t.as_slice();
        match mode {
            QuantMode::I8 => {
                let mut scales = Vec::with_capacity(rows);
                let mut data = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    let row = &w[r * cols..(r + 1) * cols];
                    let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                    let scale = amax / 127.0;
                    scales.push(scale);
                    if scale == 0.0 {
                        data.extend(std::iter::repeat_n(0u8, cols));
                        continue;
                    }
                    for &v in row {
                        let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
                        data.push(q as u8);
                    }
                }
                QuantMatrix { mode, rows, cols, scales, data }
            }
            QuantMode::F16 => {
                let mut data = Vec::with_capacity(rows * cols * 2);
                for &v in w {
                    data.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
                }
                QuantMatrix { mode, rows, cols, scales: Vec::new(), data }
            }
        }
    }

    /// Encoding of this matrix.
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// `(rows, cols)` of the dequantized matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Dequantize the whole matrix — the f32 weights an engine binds at
    /// load: a plain multiply per element (i8) or a bit conversion (f16),
    /// no data-dependent branches, so it is deterministic.
    pub fn dequantize(&self) -> Tensor {
        let cols = self.cols;
        let mut out = Tensor::zeros(self.rows, cols);
        if self.rows * cols == 0 {
            return out;
        }
        match self.mode {
            QuantMode::I8 => {
                let rows = out.as_mut_slice().chunks_mut(cols).zip(self.data.chunks(cols));
                for ((o_row, q_row), &s) in rows.zip(&self.scales) {
                    for (o, &q) in o_row.iter_mut().zip(q_row) {
                        *o = (q as i8) as f32 * s;
                    }
                }
            }
            QuantMode::F16 => {
                for (o, pair) in out.as_mut_slice().iter_mut().zip(self.data.chunks_exact(2)) {
                    *o = f16_bits_to_f32(u16::from_le_bytes([pair[0], pair[1]]));
                }
            }
        }
        out
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("quant".into(), Json::Str(self.mode.as_str().into())),
            ("rows".into(), Json::Num(self.rows as f64)),
            ("cols".into(), Json::Num(self.cols as f64)),
            ("scales".into(), Json::hex_words(self.scales.iter().map(|s| s.to_le_bytes()))),
            ("data".into(), Json::hex_words(self.data.iter().map(|&b| [b]))),
        ])
    }

    pub(crate) fn from_json(j: &Json) -> ServeResult<QuantMatrix> {
        let parse = |msg: &str| ServeError::Parse(format!("quant weight: {msg}"));
        let mode = j
            .get("quant")
            .and_then(Json::as_str)
            .and_then(QuantMode::parse)
            .ok_or_else(|| parse("unknown or missing 'quant' mode"))?;
        let rows = j.get("rows").and_then(Json::as_usize).ok_or_else(|| parse("bad 'rows'"))?;
        let cols = j.get("cols").and_then(Json::as_usize).ok_or_else(|| parse("bad 'cols'"))?;
        let scales = j
            .get("scales")
            .and_then(|s| s.to_hex_words(f32::from_le_bytes))
            .ok_or_else(|| parse("bad 'scales' hex payload"))?;
        let data = j
            .get("data")
            .and_then(|d| d.to_hex_words(|[b]: [u8; 1]| b))
            .ok_or_else(|| parse("bad 'data' hex payload"))?;
        let bytes_per_value = match mode {
            QuantMode::I8 => 1,
            QuantMode::F16 => 2,
        };
        let want_bytes = rows.checked_mul(cols).and_then(|n| n.checked_mul(bytes_per_value));
        let want_scales = match mode {
            QuantMode::I8 => rows,
            QuantMode::F16 => 0,
        };
        if want_bytes != Some(data.len()) || scales.len() != want_scales {
            return Err(ServeError::Mismatch(format!(
                "quant weight: {} payload bytes / {} scales for a {rows}x{cols} {} matrix",
                data.len(),
                scales.len(),
                mode.as_str()
            )));
        }
        Ok(QuantMatrix { mode, rows, cols, scales, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_is_identity_on_all_bit_patterns() {
        // Every half value is exactly representable in f32, so
        // half → f32 → half must be the identity for all 65536 patterns
        // (NaNs may canonicalize payloads but must stay NaN).
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            let back = f32_to_f16_bits(f);
            let is_nan = (h & 0x7c00) == 0x7c00 && (h & 0x3ff) != 0;
            if is_nan {
                assert!(f.is_nan(), "{h:04x} should decode NaN");
                assert_eq!(back & 0x7c00, 0x7c00);
                assert_ne!(back & 0x3ff, 0, "{h:04x} must stay NaN");
            } else {
                assert_eq!(back, h, "round trip of {h:04x} (decoded {f})");
            }
        }
    }

    #[test]
    fn f16_conversion_pins_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // largest finite half
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // first value rounding to Inf
        assert_eq!(f32_to_f16_bits(65519.9), 0x7bff);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(6.1035156e-5), 0x0400); // smallest normal
        assert_eq!(f32_to_f16_bits(5.9604645e-8), 0x0001); // smallest subnormal
        assert_eq!(f32_to_f16_bits(2.9802322e-8), 0x0000); // 2⁻²⁵ ties to even → 0
        assert_eq!(f32_to_f16_bits(3.0e-8), 0x0001); // just above the tie
        assert_eq!(f16_bits_to_f32(0x3555), 0.33325195f32); // 1/3 in half
    }

    #[test]
    fn i8_round_trip_error_is_bounded_by_half_step() {
        let t = Tensor::from_fn(7, 33, |i, j| ((i * 33 + j) as f32 * 0.7).sin() * (i as f32 + 0.5));
        let q = QuantMatrix::quantize(&t, QuantMode::I8);
        let d = q.dequantize();
        for i in 0..7 {
            let amax = t.row(i).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let step = amax / 127.0;
            for (a, b) in t.row(i).iter().zip(d.row(i)) {
                assert!((a - b).abs() <= step * 0.5 + 1e-7, "row {i}: {a} vs {b} (step {step})");
            }
        }
    }

    #[test]
    fn i8_all_zero_row_stays_exact() {
        let t = Tensor::from_fn(3, 5, |i, j| if i == 1 { 0.0 } else { (j as f32) - 2.0 });
        let q = QuantMatrix::quantize(&t, QuantMode::I8);
        assert_eq!(q.dequantize().row(1), &[0.0; 5]);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = Tensor::from_fn(5, 9, |i, j| ((i * 9 + j) as f32 * 1.3).cos());
        for mode in [QuantMode::I8, QuantMode::F16] {
            let q = QuantMatrix::quantize(&t, mode);
            let back = QuantMatrix::from_json(&q.to_json()).expect("parse");
            assert_eq!(q, back);
        }
    }

    #[test]
    fn a_shape_whose_size_overflows_is_a_mismatch() {
        let q = QuantMatrix::quantize(&Tensor::from_fn(1, 64, |_, j| j as f32), QuantMode::F16);
        let Json::Obj(mut fields) = q.to_json() else { panic!("object") };
        for (k, v) in &mut fields {
            match k.as_str() {
                // 2^63 × 1 × 2 bytes wraps to 0 in unchecked arithmetic.
                "rows" => *v = Json::Num(2f64.powi(63)),
                "cols" => *v = Json::Num(1.0),
                "data" => *v = Json::Str(String::new()),
                _ => {}
            }
        }
        assert!(matches!(QuantMatrix::from_json(&Json::Obj(fields)), Err(ServeError::Mismatch(_))));
    }

    #[test]
    fn hex_codec_rejects_garbage() {
        // A 1×2 i8 matrix: one scale word and two payload bytes.
        let with = |scales: &str, data: &str| {
            QuantMatrix::from_json(&Json::Obj(vec![
                ("quant".into(), Json::Str("i8".into())),
                ("rows".into(), Json::Num(1.0)),
                ("cols".into(), Json::Num(2.0)),
                ("scales".into(), Json::Str(scales.into())),
                ("data".into(), Json::Str(data.into())),
            ]))
        };
        let q = with("0000803f", "ab0f").expect("well-formed");
        assert_eq!((q.scales.clone(), q.data.clone()), (vec![1.0], vec![0xab, 0x0f]));
        for (scales, data) in [
            ("0000803f", "0g0f"),
            ("0000803f", "ab0"),
            ("0000803f", "AB0F"),
            ("0000803", "ab0f"),
            ("0000803F", "ab0f"),
        ] {
            assert!(matches!(with(scales, data), Err(ServeError::Parse(_))), "{scales} {data}");
        }
        // Whole words that do not fill the shape are a mismatch.
        assert!(matches!(with("0000803f", "ab0f00"), Err(ServeError::Mismatch(_))));
        assert!(matches!(with("", "ab0f"), Err(ServeError::Mismatch(_))));
    }

    #[test]
    fn json_round_trip_is_bitwise() {
        // Scales of every kind of bit pattern: the i8 payload dequantizes
        // through them, so they must come back exactly.
        let mut rng = lasagne_testkit::rng::Rng::seed_from_u64(8);
        for _ in 0..50 {
            let (rows, cols) = (1 + rng.index(9), 1 + rng.index(9));
            let mut q = QuantMatrix::quantize(&Tensor::zeros(rows, cols), QuantMode::I8);
            q.scales = (0..rows).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
            q.data = (0..rows * cols).map(|_| rng.next_u64() as u8).collect();
            let back = QuantMatrix::from_json(&Json::parse(&q.to_json().to_string()).unwrap()).unwrap();
            let bits = |m: &QuantMatrix| m.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&q));
            assert_eq!(back.data, q.data);
            let f16 = QuantMatrix { mode: QuantMode::F16, scales: Vec::new(), data: [q.data.clone(), q.data.clone()].concat(), ..q };
            let back = QuantMatrix::from_json(&Json::parse(&f16.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back.data, f16.data);
        }
    }
}
