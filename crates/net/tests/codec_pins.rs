//! Exact wire bytes of every [`Message`] variant.
//!
//! Recorded from the one-`f64`-at-a-time codec before it moved to bulk
//! little-endian copies. The wire format is what eq. (19) prices, so
//! any byte drift here is a protocol change, not a refactor. The params
//! carry a quiet NaN, a signalling-NaN payload, −0.0, the smallest
//! subnormal, a mid-range subnormal, a normal value and −∞.

use fedprox_net::codec::{decode, encode, encoded_len};
use fedprox_net::Message;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn params() -> Vec<f64> {
    vec![
        f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        1.5,
        f64::NEG_INFINITY,
    ]
}

const PARAMS_HEX: &str = "0700000000000000\
                          000000000000f87f010000000000f07f0000000000000080\
                          01000000000000000000000000000800000000000000f83f\
                          000000000000f0ff";

fn pinned() -> Vec<(Message, String)> {
    vec![
        (
            Message::GlobalModel { round: 0x0102_0304, params: params() },
            format!("0104030201{PARAMS_HEX}"),
        ),
        (Message::GlobalModel { round: 0, params: vec![] }, "01000000000000000000000000".into()),
        (
            Message::LocalModel {
                device: 7,
                round: 9,
                params: params(),
                weight: -0.0,
                grad_evals: 0x1122_3344_5566_7788,
                compute_time: f64::from_bits(1),
            },
            format!(
                "02070000000900000000000000000000808877665544332211\
                 0100000000000000{PARAMS_HEX}"
            ),
        ),
        (Message::Panicked { device: 3, round: 11 }, "04030000000b000000".into()),
        (
            Message::Failed { device: 2, round: 8, reason: "boom ü".into() },
            "0602000000080000000700000000000000626f6f6d20c3bc".into(),
        ),
        (Message::Malformed { device: 0xDEAD_BEEF }, "05efbeadde".into()),
        (Message::Shutdown, "03".into()),
    ]
}

#[test]
fn every_variant_encodes_to_the_pinned_bytes() {
    for (msg, want) in pinned() {
        let bytes = encode(&msg);
        assert_eq!(hex(&bytes), want, "{msg:?}");
        assert_eq!(bytes.len(), encoded_len(&msg), "{msg:?}");
    }
}

#[test]
fn pinned_bytes_decode_bit_for_bit() {
    for (msg, _) in pinned() {
        let back = decode(&encode(&msg)).expect("pinned frame decodes");
        // `==` on f64 fails for NaN, so compare the re-encoded bytes.
        assert_eq!(hex(&encode(&back)), hex(&encode(&msg)), "{msg:?}");
    }
}
