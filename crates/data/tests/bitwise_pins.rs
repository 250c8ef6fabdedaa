//! Bitwise pins of the population and shard generators.
//!
//! Every value below was recorded from the generators before the
//! bounded-Pareto constants were hoisted and shard synthesis stopped
//! allocating per sample. Those changes are pure refactors of the
//! arithmetic, so each pin must hold exactly: a drift means a seeded
//! dataset, partition or population changed.

use fedprox_data::partition::{power_law_sizes, ZipfPopulation};
use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};

/// FNV-1a over the little-endian bytes of a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn million_device_population_total_is_pinned() {
    let pop = ZipfPopulation::new(1_000_000, 40, 120, 1.5, 4.0, 1);
    assert_eq!(pop.total_samples(), 69_266_440);
    let small = ZipfPopulation::new(20_000, 40, 120, 1.5, 4.0, 1);
    assert_eq!(small.total_samples(), 1_382_329);
}

#[test]
fn size_of_is_pinned_across_alphas() {
    let ids = [0usize, 1, 2, 3, 17, 999, 12_345, 65_536, 99_999];
    let expected: [(f64, u64, [usize; 9]); 4] = [
        (0.5, 122_216_799, [2461, 1049, 1133, 184, 1568, 1077, 1032, 76, 273]),
        (1.0, 72_390_938, [1678, 371, 415, 71, 698, 386, 363, 47, 92]),
        (1.5, 35_039_232, [644, 127, 138, 49, 215, 130, 125, 41, 55]),
        (2.0, 16_971_188, [233, 75, 79, 43, 105, 77, 74, 39, 46]),
    ];
    for (alpha, total, sizes) in expected {
        let pop = ZipfPopulation::new(100_000, 37, 3277, alpha, 4.0, 7);
        assert_eq!(pop.total_samples(), total, "alpha {alpha}");
        let got: Vec<usize> = ids.iter().map(|&d| pop.size_of(d)).collect();
        assert_eq!(got, sizes, "alpha {alpha}");
    }
}

#[test]
fn compute_factors_are_pinned() {
    let pop = ZipfPopulation::new(1000, 37, 3277, 1.5, 4.0, 7);
    let bits: Vec<u64> =
        [0usize, 1, 17, 999].iter().map(|&d| pop.compute_factor_of(d).to_bits()).collect();
    assert_eq!(
        bits,
        [0x3ffe_dc75_7c86_cee4, 0x4001_7d4a_b613_0672, 0x3ff9_cb54_6243_cea6, 0x3ff1_5d15_9043_eeae]
    );
}

#[test]
fn power_law_sizes_are_pinned() {
    let expected: [(f64, [usize; 16]); 4] = [
        (0.5, [73, 696, 149, 2758, 2027, 64, 3143, 1944, 805, 891, 735, 1815, 77, 1192, 1301, 3068]),
        (1.0, [46, 219, 63, 2165, 1123, 44, 2955, 1035, 261, 297, 234, 908, 47, 448, 512, 2785]),
        (1.5, [40, 89, 46, 1038, 362, 40, 2300, 328, 99, 108, 92, 282, 41, 146, 163, 1923]),
        (2.0, [39, 61, 42, 360, 150, 38, 1086, 139, 65, 68, 62, 126, 39, 82, 88, 784]),
    ];
    for (alpha, sizes) in expected {
        assert_eq!(power_law_sizes(16, 37, 3277, alpha, 9), sizes, "alpha {alpha}");
    }
}

#[test]
fn synthetic_shards_are_pinned() {
    let cases = [
        (
            SyntheticConfig { alpha: 1.0, beta: 1.0, seed: 3, ..Default::default() },
            [0x8bf8_c047_2a13_13c3, 0x09a6_7b7b_4f59_473d, 0x6754_7080_1a05_389b],
        ),
        (
            SyntheticConfig { alpha: 0.0, beta: 0.0, seed: 5, ..Default::default() },
            [0x0f44_c145_cb57_7855, 0x65c6_76c5_7166_b52e, 0x7623_03c7_b7ae_50ff],
        ),
        (
            SyntheticConfig { iid: true, seed: 8, ..Default::default() },
            [0xcc9c_b72a_c55c_2f8b, 0x413e_8143_a106_1e56, 0x5e3f_3112_d068_2699],
        ),
    ];
    for (cfg, digests) in cases {
        let pool = SyntheticPool::new(cfg);
        for (&(n, size), &want) in [(0usize, 69usize), (1, 40), (123_456, 7)].iter().zip(&digests) {
            let d = pool.device_shard(n, size);
            let features = (0..d.len()).flat_map(|i| d.x(i).iter().map(|v| v.to_bits()));
            let labels = (0..d.len()).map(|i| d.y(i).to_bits());
            assert_eq!(fnv(features.chain(labels)), want, "device {n}");
        }
    }
}
