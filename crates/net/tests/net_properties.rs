//! Property-based tests of the network substrate.

use fedprox_net::clock::{paper_training_time, DeviceRoundTiming, VirtualClock};
use fedprox_net::codec::{decode, encode, encoded_len};
use fedprox_net::{DelayModel, LinkSpec, Message};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_roundtrip_global(round in any::<u32>(),
                              params in proptest::collection::vec(any::<f64>(), 0..50)) {
        let msg = Message::GlobalModel { round, params };
        let buf = encode(&msg);
        prop_assert_eq!(buf.len(), encoded_len(&msg));
        let back = decode(&buf).unwrap();
        match (&back, &msg) {
            (Message::GlobalModel { round: r2, params: p2 },
             Message::GlobalModel { round: r1, params: p1 }) => {
                prop_assert_eq!(r1, r2);
                prop_assert_eq!(p1.len(), p2.len());
                for (a, b) in p1.iter().zip(p2) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            _ => prop_assert!(false),
        }
    }

    #[test]
    fn truncation_never_panics(round in any::<u32>(),
                               params in proptest::collection::vec(any::<f64>(), 0..20),
                               cut_frac in 0.0f64..1.0) {
        let buf = encode(&Message::GlobalModel { round, params });
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        // Must return Ok or Err — never panic.
        let _ = decode(&buf[..cut]);
    }

    #[test]
    fn delays_are_nonnegative(seed in any::<u64>(), lo in 0.0f64..1.0, span in 0.0f64..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        for m in [
            DelayModel::Constant(lo),
            DelayModel::Uniform { lo, hi: lo + span },
            DelayModel::LogNormal { mu: -2.0, sigma: 0.8 },
        ] {
            for _ in 0..20 {
                prop_assert!(m.sample(&mut rng) >= 0.0);
            }
        }
    }

    #[test]
    fn transfer_time_monotone_in_bytes(seed in any::<u64>(), b1 in 0usize..10_000, extra in 1usize..10_000) {
        let link = LinkSpec { latency: DelayModel::Constant(0.01), bytes_per_sec: 1e5 };
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let t1 = link.transfer_time(b1, &mut r1);
        let t2 = link.transfer_time(b1 + extra, &mut r2);
        prop_assert!(t2 > t1);
    }

    #[test]
    fn clock_time_is_monotone_and_bounded_by_sum(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..6),
            1..8)
    ) {
        let mut clock = VirtualClock::new();
        let mut prev = 0.0;
        let mut worst_sum = 0.0;
        for round in &rounds {
            let timings: Vec<DeviceRoundTiming> = round
                .iter()
                .map(|&(d, c, u)| DeviceRoundTiming { download: d, compute: c, upload: u })
                .collect();
            let dur = clock.advance_round(&timings);
            prop_assert!(clock.now() >= prev);
            prop_assert!(dur <= 3.0 + 1e-12);
            // Round duration equals the max device total.
            let max = timings.iter().map(DeviceRoundTiming::total).fold(0.0, f64::max);
            prop_assert!((dur - max).abs() < 1e-12);
            prev = clock.now();
            worst_sum += max;
        }
        prop_assert!((clock.now() - worst_sum).abs() < 1e-9);
        prop_assert_eq!(clock.rounds(), rounds.len() as u64);
        prop_assert!(clock.straggler_waste() >= -1e-12);
    }

    #[test]
    fn eq19_matches_homogeneous_clock(t in 1u64..50, d_com in 0.0f64..1.0,
                                      d_cmp in 0.0f64..0.1, tau in 0usize..50) {
        let mut clock = VirtualClock::new();
        for _ in 0..t {
            clock.advance_round(&[DeviceRoundTiming {
                download: d_com / 2.0,
                compute: d_cmp * tau as f64,
                upload: d_com / 2.0,
            }; 3]);
        }
        let want = paper_training_time(t, d_com, d_cmp, tau);
        prop_assert!((clock.now() - want).abs() < 1e-6 * want.max(1.0));
    }
}

/// One frame of every [`Message`] variant, params carrying NaN, −0.0
/// and a subnormal.
fn every_variant() -> Vec<Message> {
    let params = vec![f64::NAN, -0.0, f64::from_bits(1), 2.5];
    vec![
        Message::GlobalModel { round: 3, params: params.clone() },
        Message::GlobalModel { round: 0, params: vec![] },
        Message::LocalModel {
            device: 1,
            round: 3,
            params,
            weight: 0.25,
            grad_evals: 40,
            compute_time: 0.5,
        },
        Message::Panicked { device: 2, round: 4 },
        Message::Failed { device: 5, round: 6, reason: "boom ü".into() },
        Message::Malformed { device: 7 },
        Message::Shutdown,
    ]
}

/// Every truncation of every encoded variant is a typed error, never a
/// panic: each frame's fields are fixed-width or length-prefixed, so no
/// strict prefix is a complete frame.
#[test]
fn every_truncation_of_every_variant_is_an_error() {
    for msg in every_variant() {
        let frame = encode(&msg);
        for cut in 0..frame.len() {
            assert!(decode(&frame[..cut]).is_err(), "{msg:?} cut at {cut}");
        }
    }
}

/// Every single-byte corruption (each position, all 256 values) of every
/// encoded variant decodes to `Ok` or `Err` and never panics — including
/// a parameter-count prefix whose byte length overflows `usize`.
#[test]
fn every_single_byte_corruption_of_every_variant_is_ok_or_err() {
    for msg in every_variant() {
        let frame = encode(&msg).to_vec();
        for pos in 0..frame.len() {
            for value in 0..=u8::MAX {
                let mut bad = frame.clone();
                if let Some(b) = bad.get_mut(pos) {
                    *b = value;
                }
                let _ = decode(&bad);
            }
        }
    }
}
