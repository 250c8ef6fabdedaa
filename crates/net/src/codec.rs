//! Compact binary wire codec.
//!
//! Hand-rolled (one tag byte, little-endian fixed-width fields, raw `f64`
//! arrays) rather than JSON: the experiments count real traffic, and a
//! 135k-parameter CNN model is ~1 MB per message — textual encodings
//! would triple it and distort the communication-cost model.

use crate::message::Message;
use bytes::{Buf, BufMut, Bytes};
use std::fmt;

const TAG_GLOBAL: u8 = 1;
const TAG_LOCAL: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_PANIC: u8 = 4;
const TAG_MALFORMED: u8 = 5;
const TAG_FAILED: u8 = 6;

/// Tag, round and parameter count of a `GlobalModel` frame.
const GLOBAL_HEADER: usize = 1 + 4 + 8;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the advertised payload.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "codec: truncated message"),
            CodecError::BadTag(t) => write!(f, "codec: unknown tag {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a length-prefixed parameter array: the `u64` count, then the
/// values as one bulk little-endian pass over capacity the caller
/// reserved.
fn put_params(buf: &mut Vec<u8>, params: &[f64]) {
    buf.put_u64_le(params.len() as u64);
    let start = buf.len();
    buf.resize(start + 8 * params.len(), 0);
    let (_, dst) = buf.split_at_mut(start);
    for (le, p) in dst.chunks_exact_mut(8).zip(params) {
        le.copy_from_slice(&p.to_le_bytes());
    }
}

/// Read a length-prefixed parameter array in one bulk pass into `out`,
/// replacing its contents and reusing its capacity. The count comes off
/// the wire, so its byte length is overflow-checked before it sizes
/// anything: a prefix no buffer could back is [`CodecError::Truncated`].
fn get_params(buf: &mut &[u8], out: &mut Vec<f64>) -> Result<(), CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u64_le();
    let len = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .ok_or(CodecError::Truncated)?;
    let bytes = buf.get(..len).ok_or(CodecError::Truncated)?;
    out.clear();
    out.extend(bytes.chunks_exact(8).map(|c| {
        let mut le = [0u8; 8];
        le.copy_from_slice(c);
        f64::from_le_bytes(le)
    }));
    buf.advance(len);
    Ok(())
}

/// Encode a message to its wire form, into a buffer reserved at
/// [`encoded_len`] up front.
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = Vec::with_capacity(encoded_len(msg));
    match msg {
        Message::GlobalModel { round, params } => put_global(&mut buf, *round, params),
        Message::LocalModel { device, round, params, weight, grad_evals, compute_time } => {
            buf.put_u8(TAG_LOCAL);
            buf.put_u32_le(*device);
            buf.put_u32_le(*round);
            buf.put_f64_le(*weight);
            buf.put_u64_le(*grad_evals);
            buf.put_f64_le(*compute_time);
            put_params(&mut buf, params);
        }
        Message::Panicked { device, round } => {
            buf.put_u8(TAG_PANIC);
            buf.put_u32_le(*device);
            buf.put_u32_le(*round);
        }
        Message::Failed { device, round, reason } => {
            buf.put_u8(TAG_FAILED);
            buf.put_u32_le(*device);
            buf.put_u32_le(*round);
            buf.put_u64_le(reason.len() as u64);
            buf.put_slice(reason.as_bytes());
        }
        Message::Malformed { device } => {
            buf.put_u8(TAG_MALFORMED);
            buf.put_u32_le(*device);
        }
        Message::Shutdown => {
            buf.put_u8(TAG_SHUTDOWN);
        }
    }
    Bytes::from(buf)
}

/// Encode a [`Message::GlobalModel`] broadcast straight from the model
/// slice: the bytes of `encode(&Message::GlobalModel { round, params })`
/// without first cloning the model into a message.
pub fn encode_global(round: u32, params: &[f64]) -> Bytes {
    let mut buf = Vec::with_capacity(GLOBAL_HEADER + 8 * params.len());
    put_global(&mut buf, round, params);
    Bytes::from(buf)
}

fn put_global(buf: &mut Vec<u8>, round: u32, params: &[f64]) {
    buf.put_u8(TAG_GLOBAL);
    buf.put_u32_le(round);
    put_params(buf, params);
}

/// Decode a wire buffer back into a [`Message`].
pub fn decode(buf: &[u8]) -> Result<Message, CodecError> {
    let mut params = Vec::new();
    let mut msg = decode_into(buf, &mut params)?;
    if let Message::GlobalModel { params: p, .. } | Message::LocalModel { params: p, .. } = &mut msg
    {
        *p = params;
    }
    Ok(msg)
}

/// [`decode`] into a caller-held parameter buffer: a `GlobalModel` or
/// `LocalModel` frame's parameters replace the contents of `params`,
/// reusing its capacity, and the returned message's own `params` is
/// left empty (an unallocated `Vec`). Every other variant leaves
/// `params` untouched. A receiver that decodes into the same buffer
/// every round allocates nothing for the model once it is warm.
pub fn decode_into(mut buf: &[u8], params: &mut Vec<f64>) -> Result<Message, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let tag = buf.get_u8();
    match tag {
        TAG_GLOBAL => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            let round = buf.get_u32_le();
            get_params(&mut buf, params)?;
            Ok(Message::GlobalModel { round, params: Vec::new() })
        }
        TAG_LOCAL => {
            if buf.remaining() < 4 + 4 + 8 + 8 + 8 {
                return Err(CodecError::Truncated);
            }
            let device = buf.get_u32_le();
            let round = buf.get_u32_le();
            let weight = buf.get_f64_le();
            let grad_evals = buf.get_u64_le();
            let compute_time = buf.get_f64_le();
            get_params(&mut buf, params)?;
            Ok(Message::LocalModel {
                device,
                round,
                params: Vec::new(),
                weight,
                grad_evals,
                compute_time,
            })
        }
        TAG_PANIC => {
            if buf.remaining() < 4 + 4 {
                return Err(CodecError::Truncated);
            }
            let device = buf.get_u32_le();
            let round = buf.get_u32_le();
            Ok(Message::Panicked { device, round })
        }
        TAG_FAILED => {
            if buf.remaining() < 4 + 4 + 8 {
                return Err(CodecError::Truncated);
            }
            let device = buf.get_u32_le();
            let round = buf.get_u32_le();
            let len = buf.get_u64_le() as usize;
            if buf.remaining() < len {
                return Err(CodecError::Truncated);
            }
            // Lossy: the reason is purely diagnostic, so a mangled byte
            // must not turn a typed failure report into a codec error.
            let reason = buf
                .get(..len)
                .map(|b| String::from_utf8_lossy(b).into_owned())
                .unwrap_or_default();
            Ok(Message::Failed { device, round, reason })
        }
        TAG_MALFORMED => {
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            Ok(Message::Malformed { device: buf.get_u32_le() })
        }
        TAG_SHUTDOWN => Ok(Message::Shutdown),
        other => Err(CodecError::BadTag(other)),
    }
}

/// Size in bytes of the encoded form without materialising it.
pub fn encoded_len(msg: &Message) -> usize {
    match msg {
        Message::GlobalModel { params, .. } => GLOBAL_HEADER + 8 * params.len(),
        Message::LocalModel { params, .. } => 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 * params.len(),
        Message::Panicked { .. } => 1 + 4 + 4,
        Message::Failed { reason, .. } => 1 + 4 + 4 + 8 + reason.len(),
        Message::Malformed { .. } => 1 + 4,
        Message::Shutdown => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let b = encode(&msg);
        assert_eq!(b.len(), encoded_len(&msg), "encoded_len mismatch");
        let back = decode(&b).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn roundtrip_global() {
        roundtrip(Message::GlobalModel { round: 42, params: vec![1.5, -2.25, 0.0, f64::MIN] });
    }

    #[test]
    fn roundtrip_local() {
        roundtrip(Message::LocalModel {
            device: 7,
            round: 9,
            params: vec![std::f64::consts::PI; 33],
            weight: 0.125,
            grad_evals: 1234,
            compute_time: 0.75,
        });
    }

    #[test]
    fn roundtrip_shutdown() {
        roundtrip(Message::Shutdown);
    }

    #[test]
    fn roundtrip_panicked() {
        roundtrip(Message::Panicked { device: 3, round: 11 });
    }

    #[test]
    fn roundtrip_failed() {
        roundtrip(Message::Failed {
            device: 2,
            round: 8,
            reason: "fsvrg: missing global gradient — ünïcode too".to_string(),
        });
        roundtrip(Message::Failed { device: 0, round: 0, reason: String::new() });
    }

    #[test]
    fn roundtrip_malformed() {
        roundtrip(Message::Malformed { device: 5 });
    }

    #[test]
    fn truncated_failed_fails() {
        let b = encode(&Message::Failed { device: 1, round: 2, reason: "boom".into() });
        for cut in [1, 5, 9, b.len() - 1] {
            assert!(decode(&b[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn truncated_panicked_fails() {
        let b = encode(&Message::Panicked { device: 1, round: 2 });
        assert!(decode(&b[..5]).is_err());
    }

    #[test]
    fn roundtrip_empty_params() {
        roundtrip(Message::GlobalModel { round: 0, params: vec![] });
    }

    #[test]
    fn truncated_fails() {
        let b = encode(&Message::GlobalModel { round: 1, params: vec![1.0, 2.0] });
        for cut in [0, 1, 4, 12, b.len() - 1] {
            assert!(decode(&b[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    /// A `GlobalModel` frame whose parameter count is 2⁶¹: its byte
    /// length overflows `usize`, which must be a typed error, not a
    /// multiply overflow or a capacity panic.
    #[test]
    fn overflowing_param_count_is_truncated() {
        let mut frame = vec![TAG_GLOBAL];
        frame.extend_from_slice(&7u32.to_le_bytes());
        frame.extend_from_slice(&(1u64 << 61).to_le_bytes());
        frame.extend_from_slice(&1.0f64.to_le_bytes());
        assert_eq!(decode(&frame), Err(CodecError::Truncated));
        frame[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&frame), Err(CodecError::Truncated));
    }

    #[test]
    fn decode_into_reuses_the_buffer_and_matches_decode() {
        let local = Message::LocalModel {
            device: 3,
            round: 4,
            params: vec![0.5, -0.0, 1e-310],
            weight: 0.25,
            grad_evals: 9,
            compute_time: 0.5,
        };
        let frames =
            [encode_global(7, &[1.0, 2.0, 3.0]), encode(&local), encode(&Message::Shutdown)];
        let mut buf = Vec::with_capacity(3);
        let ptr = buf.as_ptr();
        for frame in &frames {
            let before = buf.clone();
            let mut msg = decode_into(frame, &mut buf).expect("decode_into");
            match &mut msg {
                Message::GlobalModel { params, .. } | Message::LocalModel { params, .. } => {
                    assert!(params.is_empty() && params.capacity() == 0);
                    *params = buf.clone();
                }
                _ => assert_eq!(buf, before, "a model-free frame leaves the buffer alone"),
            }
            assert_eq!(msg, decode(frame).expect("decode"));
            assert_eq!(buf.as_ptr(), ptr, "decoded into the caller's allocation");
        }
    }

    #[test]
    fn encode_global_matches_the_message_encoding() {
        let params = vec![1.5, -0.0, f64::NAN];
        let msg = Message::GlobalModel { round: 9, params: params.clone() };
        assert_eq!(encode_global(9, &params), encode(&msg));
    }

    #[test]
    fn bad_tag_fails() {
        assert_eq!(decode(&[99]), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn nan_survives() {
        let b = encode(&Message::GlobalModel { round: 1, params: vec![f64::NAN] });
        match decode(&b).unwrap() {
            Message::GlobalModel { params, .. } => assert!(params[0].is_nan()),
            _ => panic!("wrong variant"),
        }
    }
}
