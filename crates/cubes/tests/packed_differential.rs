//! Differential property tests: the packed two-plane kernels must agree
//! bit-for-bit with the retained scalar reference implementations —
//! including widths that are not multiples of 64, all-X rows, and
//! fully-specified rows.

use std::hash::{DefaultHasher, Hash, Hasher};

use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::packed::{PackedBits, PackedCubeSet, PackedMatrix};
use dpfill_cubes::stretch::{RowStretches, StretchStats};
use dpfill_cubes::{
    hamming_distance, hamming_distance_scalar, peak_toggles, peak_toggles_scalar, toggle_profile,
    toggle_profile_scalar, total_toggles, total_toggles_scalar, Bit, CubeSet, PinMatrix, TestCube,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_bit() -> impl Strategy<Value = Bit> {
    prop_oneof![
        1 => Just(Bit::Zero),
        1 => Just(Bit::One),
        2 => Just(Bit::X),
    ]
}

/// Widths deliberately straddling the word boundary: 1..=200 covers
/// sub-word, exact-word (64, 128) and multi-word shapes.
fn arb_cube_set() -> impl Strategy<Value = CubeSet> {
    (1usize..=200, 1usize..=12).prop_flat_map(|(width, count)| {
        proptest::collection::vec(proptest::collection::vec(arb_bit(), width), count).prop_map(
            |rows| {
                CubeSet::from_cubes(rows.into_iter().map(TestCube::new)).expect("uniform widths")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamming_packed_equals_scalar(set in arb_cube_set()) {
        for i in 1..set.len() {
            let (a, b) = (set.cube(i - 1), set.cube(i));
            prop_assert_eq!(hamming_distance(&a, &b), hamming_distance_scalar(&a, &b));
        }
        // Packed-native operands agree too.
        let packed = PackedCubeSet::from(&set);
        for i in 1..set.len() {
            prop_assert_eq!(
                packed.cube(i - 1).hamming(packed.cube(i)),
                hamming_distance_scalar(&set.cube(i - 1), &set.cube(i))
            );
        }
    }

    #[test]
    fn toggle_kernels_packed_equal_scalar(set in arb_cube_set()) {
        prop_assert_eq!(
            toggle_profile(&set).unwrap(),
            toggle_profile_scalar(&set).unwrap()
        );
        prop_assert_eq!(
            peak_toggles(&set).unwrap(),
            peak_toggles_scalar(&set).unwrap()
        );
        prop_assert_eq!(
            total_toggles(&set).unwrap(),
            total_toggles_scalar(&set).unwrap()
        );
        let packed = PackedCubeSet::from(&set);
        prop_assert_eq!(packed.toggle_profile(), toggle_profile_scalar(&set).unwrap());
    }

    #[test]
    fn pin_matrix_word_blocked_transpose_equals_scalar(set in arb_cube_set()) {
        let scalar = PinMatrix::from_cube_set_scalar(&set);
        // The public constructor (packed above the cutoff).
        prop_assert_eq!(&PinMatrix::from_cube_set(&set), &scalar);
        // The packed transpose and its inverse, explicitly.
        let packed = PackedMatrix::from_packed_set(&PackedCubeSet::from(&set));
        prop_assert_eq!(&packed.to_pin_matrix(), &scalar);
        prop_assert_eq!(packed.to_packed_set().to_cube_set(), set);
    }

    #[test]
    fn stretch_classification_packed_equals_scalar(row in proptest::collection::vec(arb_bit(), 1..200)) {
        let packed = PackedBits::from_bits(&row);
        prop_assert_eq!(
            RowStretches::analyze_packed(&packed),
            RowStretches::analyze(&row)
        );
    }

    #[test]
    fn stretch_stats_packed_equal_scalar(set in arb_cube_set()) {
        let scalar = StretchStats::of_matrix(&set.to_pin_matrix());
        let packed = StretchStats::of_packed(&PackedMatrix::from_packed_set(
            &PackedCubeSet::from(&set),
        ));
        prop_assert_eq!(scalar, packed);
    }

    #[test]
    fn packed_bits_round_trip(row in proptest::collection::vec(arb_bit(), 0..200)) {
        let packed = PackedBits::from_bits(&row);
        prop_assert_eq!(packed.to_bits(), row.clone());
        prop_assert_eq!(packed.len(), row.len());
        prop_assert_eq!(
            packed.x_count(),
            row.iter().filter(|b| b.is_x()).count()
        );
        for (i, &b) in row.iter().enumerate() {
            prop_assert_eq!(packed.get(i), b);
        }
    }
}

/// The scalar oracle of [`PackedBits::fill_runs_copy_left`]: every `X`
/// copies the nearest care value to its left, a leading run copies the
/// first care value, and a row with no care bit becomes `default`.
fn copy_left_scalar(row: &mut [Bit], default: Bit) {
    let Some(first) = row.iter().copied().find(|b| !b.is_x()) else {
        row.fill(default);
        return;
    };
    let mut last = first;
    for b in row {
        if b.is_x() {
            *b = last;
        } else {
            last = *b;
        }
    }
}

fn hash_of(row: &PackedBits) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// Runs every mutating plane kernel on `row` and on its scalar copy and
/// checks that they agree, with parameters drawn from `rng`. Also checks
/// that the three ways of building a row give equal values and hashes.
fn check_mutating_kernels(row: &[Bit], other: &[Bit], rng: &mut StdRng, ctx: &str) {
    let width = row.len();
    let packed = PackedBits::from_bits(row);
    let text: String = row.iter().map(|b| b.to_char()).collect();
    let parsed = PackedBits::from_pattern_ascii(text.as_bytes()).expect("01X text");
    let mut built = PackedBits::all_x(width);
    for (i, &b) in row.iter().enumerate() {
        built.set(i, b);
    }
    assert_eq!(parsed, packed, "{ctx}: from_pattern_ascii");
    assert_eq!(built, packed, "{ctx}: all_x + set");
    assert_eq!(hash_of(&parsed), hash_of(&packed), "{ctx}: hash");
    assert_eq!(hash_of(&built), hash_of(&packed), "{ctx}: hash");

    let bits = [Bit::Zero, Bit::One, Bit::X];
    let mut p = packed.clone();
    let mut s = row.to_vec();
    for _ in 0..8 {
        if width == 0 {
            break;
        }
        let (i, v) = (rng.gen_range(0..width), bits[rng.gen_range(0..3usize)]);
        p.set(i, v);
        s[i] = v;
        assert_eq!(p.to_bits(), s, "{ctx}: set({i}, {v:?})");
    }
    for _ in 0..8 {
        let lo = rng.gen_range(0..=width);
        let hi = rng.gen_range(lo..=width);
        let v = bits[rng.gen_range(0..3usize)];
        let mut p = packed.clone();
        p.fill_range(lo, hi, v);
        let mut s = row.to_vec();
        s[lo..hi].fill(v);
        assert_eq!(p.to_bits(), s, "{ctx}: fill_range({lo}, {hi}, {v:?})");
    }
    for v in bits {
        let mut p = packed.clone();
        p.fill_x_with(v);
        let s: Vec<Bit> = row.iter().map(|&b| if b.is_x() { v } else { b }).collect();
        assert_eq!(p.to_bits(), s, "{ctx}: fill_x_with({v:?})");
        assert_eq!(p, PackedBits::from_bits(&s), "{ctx}: fill_x_with canonical");

        let mut p = packed.clone();
        p.fill_runs_copy_left(v);
        let mut s = row.to_vec();
        copy_left_scalar(&mut s, v);
        assert_eq!(p.to_bits(), s, "{ctx}: fill_runs_copy_left({v:?})");
    }
    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
    let mut p = packed.clone();
    p.fill_x_from_words(|w| words[w]);
    let s: Vec<Bit> = row
        .iter()
        .enumerate()
        .map(|(i, &b)| match b {
            Bit::X => Bit::from_bool(words[i / 64] >> (i % 64) & 1 == 1),
            care => care,
        })
        .collect();
    assert_eq!(p.to_bits(), s, "{ctx}: fill_x_from_words");
    assert_eq!(
        p,
        PackedBits::from_bits(&s),
        "{ctx}: fill_x_from_words canonical"
    );

    let q = PackedBits::from_bits(other);
    let compatible = row.iter().zip(other).all(|(a, b)| !a.conflicts(*b));
    let merged = compatible.then(|| {
        row.iter()
            .zip(other)
            .map(|(&a, &b)| if a.is_x() { b } else { a })
            .collect::<Vec<Bit>>()
    });
    assert_eq!(
        packed.merge(&q),
        merged.as_deref().map(PackedBits::from_bits),
        "{ctx}: merge"
    );
}

/// Deterministic seeded sweeps over the shapes the proptest generator is
/// unlikely to hit: the empty row, exact word multiples, the inline/heap
/// row boundary (63, 64, 65), all-X and zero-X densities.
#[test]
fn seeded_edge_shape_sweep() {
    for &width in &[0usize, 1, 63, 64, 65, 127, 128, 129, 192] {
        // Sparse neighbours are mostly compatible, so `merge` is checked
        // on merged rows as well as on conflicts.
        let sparse = random_cube_set(width, 9, 0.9, width as u64);
        let mut rng = StdRng::seed_from_u64(width as u64);
        for c in 0..sparse.len() {
            let ctx = format!("width {width} sparse cube {c}");
            let other = sparse.cube((c + 1) % sparse.len());
            check_mutating_kernels(sparse.cube(c).bits(), other.bits(), &mut rng, &ctx);
        }
        for &density in &[0.0, 0.5, 1.0] {
            let seed = width as u64 * 31 + (density * 10.0) as u64;
            let set = random_cube_set(width, 9, density, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for c in 0..set.len() {
                let ctx = format!("width {width} density {density} cube {c}");
                let other = set.cube((c + 1) % set.len());
                check_mutating_kernels(set.cube(c).bits(), other.bits(), &mut rng, &ctx);
            }
            assert_eq!(
                toggle_profile(&set).unwrap(),
                toggle_profile_scalar(&set).unwrap(),
                "width {width} density {density}"
            );
            assert_eq!(
                PinMatrix::from_cube_set(&set),
                PinMatrix::from_cube_set_scalar(&set)
            );
            let m = PackedMatrix::from_packed_set(&PackedCubeSet::from(&set));
            for r in 0..m.rows() {
                let scalar_row: Vec<Bit> = (0..m.cols()).map(|c| set.cube(c).bits()[r]).collect();
                assert_eq!(
                    RowStretches::analyze_packed(m.row(r)),
                    RowStretches::analyze(&scalar_row),
                    "width {width} density {density} row {r}"
                );
            }
        }
    }
}

/// An all-X cube set exercises the AllX stretch path and constant fill
/// conventions end to end.
#[test]
fn all_x_rows_classified_and_counted() {
    let set = random_cube_set(130, 7, 1.0, 3);
    assert_eq!(set.x_count(), 130 * 7);
    assert_eq!(peak_toggles(&set).unwrap(), 0);
    assert_eq!(peak_toggles_scalar(&set).unwrap(), 0);
    let m = PackedMatrix::from_packed_set(&PackedCubeSet::from(&set));
    let stats = StretchStats::of_packed(&m);
    assert_eq!(stats.total_stretches(), 130);
    assert_eq!(stats.max_len(), 7);
    assert_eq!(stats.transition_stretches(), 0);
}
