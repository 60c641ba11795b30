//! Model persistence: save and load fitted one-vs-rest linear models
//! (logistic regression, linear SVM) as `cuisine-linear-v2` snapshots, so
//! a trained cuisine classifier can ship without its training corpus.
//!
//! Only the cheap, deployment-relevant models are serializable; forests
//! and boosted ensembles retrain in seconds at these scales.
//!
//! # Format (`cuisine-linear-v2`)
//!
//! The checkpoint-v2 framing around a little-endian payload:
//!
//! ```text
//! magic    18 B  "cuisine-linear-v2\n"
//! crc32     4 B  IEEE CRC-32 of the payload bytes (`trace::crc32`)
//! length    8 B  payload byte count (u64)
//! payload        u32 classes, u32 width, then the classes × width
//!                weights row-major and the classes biases, each an f32
//! ```
//!
//! The `f32`s are stored as their IEEE bits, so a reloaded model's
//! decision function is bit-identical. [`load_linear`] checks the magic,
//! the length, the CRC and that the header's shape accounts for every
//! payload byte before it allocates anything sized from the header, then
//! rejects non-finite values; every failure is `InvalidData`.

use std::io;
use std::path::Path;

use trace::crc32;

use crate::sgd::LinearModel;

/// Magic prefix of a `cuisine-linear-v2` snapshot.
const MAGIC: &[u8; 18] = b"cuisine-linear-v2\n";

/// Bytes before the payload: magic, CRC-32, payload length.
const HEADER: usize = MAGIC.len() + 12;

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Writes a fitted linear model as a `cuisine-linear-v2` snapshot.
///
/// # Errors
///
/// `InvalidInput` when the model is ragged (a weight row of another
/// width, or a bias count that differs from the row count) or a dimension
/// exceeds `u32`; otherwise filesystem errors.
pub fn save_linear(model: &LinearModel, path: &Path) -> io::Result<()> {
    std::fs::write(path, encode(model)?)
}

/// Reads a linear model back from a `cuisine-linear-v2` snapshot.
///
/// # Errors
///
/// `InvalidData` on a bad magic, a truncated or padded file, a CRC
/// mismatch, a header shape the payload does not match, or a non-finite
/// weight or bias; otherwise filesystem errors (`NotFound` for a missing
/// file).
pub fn load_linear(path: &Path) -> io::Result<LinearModel> {
    decode(&std::fs::read(path)?)
}

fn encode(model: &LinearModel) -> io::Result<Vec<u8>> {
    let classes = model.classes();
    let width = model.width();
    if model.bias.len() != classes || model.weights.iter().any(|w| w.len() != width) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "ragged linear model: every weight row needs one width and one bias",
        ));
    }
    let dim = |n: usize| {
        u32::try_from(n).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "linear model exceeds u32 shape",
            )
        })
    };
    let payload_len = 8 + 4 * (classes * width + classes);
    let mut bytes = Vec::with_capacity(HEADER + payload_len);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&[0; 4]); // the CRC, once the payload is in
    bytes.extend_from_slice(&(payload_len as u64).to_le_bytes());
    bytes.extend_from_slice(&dim(classes)?.to_le_bytes());
    bytes.extend_from_slice(&dim(width)?.to_le_bytes());
    for v in model.weights.iter().flatten().chain(&model.bias) {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&bytes[HEADER..]);
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&crc.to_le_bytes());
    Ok(bytes)
}

fn decode(bytes: &[u8]) -> io::Result<LinearModel> {
    let body = bytes
        .strip_prefix(MAGIC.as_slice())
        .ok_or_else(|| invalid("not a cuisine-linear-v2 snapshot (bad magic)"))?;
    let truncated = || invalid("truncated linear snapshot header");
    let (stored_crc, body) = body.split_first_chunk::<4>().ok_or_else(truncated)?;
    let (len, payload) = body.split_first_chunk::<8>().ok_or_else(truncated)?;
    let (stored_crc, len) = (u32::from_le_bytes(*stored_crc), u64::from_le_bytes(*len));
    if payload.len() as u64 != len {
        return Err(invalid(format!(
            "linear snapshot payload is {} bytes, header promised {len}",
            payload.len()
        )));
    }
    let actual = crc32(payload);
    if actual != stored_crc {
        return Err(invalid(format!(
            "linear snapshot checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        )));
    }
    let (classes, rest) = payload.split_first_chunk::<4>().ok_or_else(truncated)?;
    let (width, values) = rest.split_first_chunk::<4>().ok_or_else(truncated)?;
    let classes = u32::from_le_bytes(*classes) as usize;
    let width = u32::from_le_bytes(*width) as usize;
    // the shape must account for every payload byte before anything
    // sized from it is allocated
    let expected = classes
        .checked_mul(width)
        .and_then(|n| n.checked_add(classes))
        .and_then(|n| n.checked_mul(4));
    if expected != Some(values.len()) {
        return Err(invalid(format!(
            "linear snapshot header claims {classes} classes × {width} columns, \
             but the payload holds {} bytes",
            payload.len()
        )));
    }
    let (values, _) = values.as_chunks::<4>();
    let mut values = values.iter().map(|&v| f32::from_le_bytes(v));
    let weights: Vec<Vec<f32>> = (0..classes)
        .map(|_| values.by_ref().take(width).collect())
        .collect();
    let bias: Vec<f32> = values.collect();
    // a bit-rotted or hand-edited snapshot must not poison every
    // downstream decision score
    if weights
        .iter()
        .flatten()
        .chain(&bias)
        .any(|v| !v.is_finite())
    {
        return Err(invalid("non-finite weight or bias in linear snapshot"));
    }
    Ok(LinearModel { weights, bias })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::{train_ovr, LossKind, SgdConfig};
    use crate::{Classifier, LinearSvm, LogisticRegression};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use textproc::CsrBuilder;

    fn data() -> (textproc::CsrMatrix, Vec<usize>) {
        let mut b = CsrBuilder::new(3);
        let mut y = Vec::new();
        for i in 0..30 {
            let k = i % 3;
            let mut row = [(k, 1.0), ((k + 1) % 3, 0.25)];
            row.sort_by_key(|&(c, _)| c);
            b.push_sorted_row(row);
            y.push(k);
        }
        (b.build(), y)
    }

    fn trained() -> LinearModel {
        let (x, y) = data();
        train_ovr(&x, &y, 3, LossKind::Logistic, &SgdConfig::default())
    }

    /// A snapshot file around `payload`, with a matching CRC and length.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// A payload of `classes`, `width` and then `values` as given.
    fn payload(classes: u32, width: u32, values: &[f32]) -> Vec<u8> {
        let mut p = classes.to_le_bytes().to_vec();
        p.extend_from_slice(&width.to_le_bytes());
        for v in values {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p
    }

    fn assert_invalid(bytes: &[u8], needle: &str) {
        let err = decode(bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(needle), "{needle:?} not in: {err}");
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (x, y) = data();
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y);
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y);
        for (name, model) in [("logreg", lr.linear_model()), ("svm", svm.linear_model())] {
            let path = std::env::temp_dir().join(format!("ml_io_roundtrip_{name}.bin"));
            save_linear(model, &path).unwrap();
            let restored = load_linear(&path).unwrap();
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            for r in 0..x.rows() {
                assert_eq!(
                    bits(model.decision_row(&x, r)),
                    bits(restored.decision_row(&x, r)),
                    "{name} row {r}"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn layout_is_the_documented_one() {
        let model = LinearModel {
            weights: vec![vec![1.0, -2.0], vec![0.5, 0.0]],
            bias: vec![0.25, -0.75],
        };
        let bytes = encode(&model).unwrap();
        let expected = payload(2, 2, &[1.0, -2.0, 0.5, 0.0, 0.25, -0.75]);
        assert_eq!(bytes, framed(&expected));
        assert_eq!(bytes.len(), HEADER + 8 + 6 * 4);
    }

    #[test]
    fn bad_format_rejected() {
        let good = encode(&trained()).unwrap();
        let mut bytes = good.clone();
        bytes[MAGIC.len() - 2] = b'1'; // "cuisine-linear-v1\n"
        assert_invalid(&bytes, "bad magic");
        // the JSON snapshot of the previous format
        assert_invalid(br#"{"format":"cuisine-linear-v1"}"#, "bad magic");
    }

    /// Decodes `p` behind a valid CRC and expects the shape check to
    /// refuse it.
    fn assert_shape_rejected(p: &[u8], case: &str) {
        let err = decode(&framed(p)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
        assert!(err.to_string().contains("header claims"), "{case}: {err}");
    }

    #[test]
    fn ragged_weights_rejected() {
        // the header's width against the payload: one value short, one
        // too many, a stray byte, a width one too wide
        let values = [0.0f32; 6];
        assert!(decode(&framed(&payload(2, 2, &values))).is_ok());
        assert_shape_rejected(&payload(2, 2, &values[..5]), "short");
        assert_shape_rejected(&payload(2, 2, &[0.0; 7]), "long");
        assert_shape_rejected(&[payload(2, 2, &values), vec![0]].concat(), "stray byte");
        assert_shape_rejected(&payload(2, 3, &values), "width");
        // and a ragged model is never written
        let ragged = LinearModel {
            weights: vec![vec![0.0, 1.0], vec![0.0]],
            bias: vec![0.0, 0.0],
        };
        let err = encode(&ragged).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn class_count_mismatch_rejected() {
        // a class count the weights and biases do not fill
        assert_shape_rejected(&payload(3, 2, &[0.0; 6]), "one class too many");
        assert_shape_rejected(&payload(1, 2, &[0.0; 6]), "one class too few");
        let short_bias = LinearModel {
            weights: vec![vec![0.0]],
            bias: vec![0.0, 1.0],
        };
        let err = encode(&short_bias).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn huge_header_fails_before_any_allocation() {
        // 2^31 classes × 2^31 columns behind a valid CRC in a 40-byte
        // file: sizing anything from this header would abort the process
        let p = [payload(1 << 31, 1 << 31, &[]), vec![0, 0]].concat();
        let bytes = framed(&p);
        assert_eq!(bytes.len(), 40);
        assert_invalid(&bytes, "header claims");
        // the same with a width whose product fits but the payload does not
        assert_invalid(&framed(&payload(1 << 20, 1 << 20, &[])), "header claims");
    }

    #[test]
    fn non_finite_weights_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // in a weight, then in a bias
            for at in [1, 5] {
                let mut values = [0.5f32; 6];
                values[at] = bad;
                assert_invalid(&framed(&payload(2, 2, &values)), "non-finite");
            }
        }
    }

    #[test]
    fn truncated_file_is_an_error() {
        let good = encode(&trained()).unwrap();
        // inside the magic, the CRC, the length, the shape and the values
        for cut in [
            0,
            5,
            MAGIC.len(),
            MAGIC.len() + 7,
            HEADER,
            HEADER + 6,
            good.len() - 1,
        ] {
            let err = decode(&good[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: {err}"
            );
        }
        let path = std::env::temp_dir().join("ml_io_truncated.bin");
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = load_linear(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_file_is_an_error() {
        let path = std::env::temp_dir().join("ml_io_garbage.bin");
        std::fs::write(&path, "not a snapshot at all").unwrap();
        let err = load_linear(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn one_flipped_payload_byte_fails_the_crc() {
        let good = encode(&trained()).unwrap();
        for at in [HEADER, HEADER + 9, good.len() - 1] {
            let mut bytes = good.clone();
            bytes[at] ^= 0x01;
            assert_invalid(&bytes, "checksum mismatch");
        }
    }

    /// `bytes` with one to three edits: a byte overwritten, four bytes
    /// overwritten with an extreme or random u32 (the shape and length
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
    fn arbitrary_bytes_decode_or_fail_with_invalid_data() {
        let good = encode(&trained()).unwrap();
        let real = good[HEADER..].to_vec();
        let mut rng = StdRng::seed_from_u64(0x11AE);
        for case in 0..600 {
            let bytes = match case % 3 {
                // random payloads and mutated real ones behind a valid
                // CRC, so the shape and value checks see them
                0 => {
                    let len = rng.gen_range(0..64);
                    framed(&(0..len).map(|_| rng.gen::<u32>() as u8).collect::<Vec<_>>())
                }
                1 => framed(&mutate(&real, &mut rng)),
                // whole files mutated, framing included
                _ => mutate(&good, &mut rng),
            };
            match decode(&bytes) {
                Ok(model) => {
                    assert_eq!(model.bias.len(), model.classes(), "case {case}");
                    assert!(model.weights.iter().all(|w| w.len() == model.width()));
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case {case}: {e}"),
            }
        }
    }
}
