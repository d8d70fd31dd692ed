//! Differential tests for the plane→ASCII emit kernel: its bytes must
//! equal the per-char `Display` oracle at every width shape (empty,
//! sub-byte, exact byte, byte + 1, word ± 1, multi-word with a ragged
//! tail), every emit entry point must produce the same bytes, and the
//! parser must invert the emitter.

use dpfill_cubes::faultio::{FaultPlan, FaultyWriter, OpFault};
use dpfill_cubes::format::{parse_patterns, patterns_to_string, write_patterns, PatternWriter};
use dpfill_cubes::gen::random_cube_set;
use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::{Bit, CubeSet};
use proptest::prelude::*;

const WIDTHS: [usize; 10] = [0, 1, 7, 8, 9, 63, 64, 65, 127, 2051];

/// The kernel's rendering of one row.
fn kernel(row: &PackedBits) -> Vec<u8> {
    let mut out = Vec::new();
    row.append_pattern_ascii(&mut out);
    out
}

/// The rows whose `x_count` sits at an extreme: all X, fully
/// specified, exactly one care bit, exactly one X (at `pos`).
fn extremes(width: usize, pos: usize, seed: u64) -> Vec<PackedBits> {
    let care = random_cube_set(width, 1, 0.0, seed)
        .as_packed()
        .cube(0)
        .clone();
    let mut rows = vec![PackedBits::all_x(width), care.clone()];
    if width > 0 {
        let pos = pos % width;
        let mut one_care = PackedBits::all_x(width);
        one_care.set(pos, care.get(pos));
        let mut one_x = care;
        one_x.set(pos, Bit::X);
        rows.extend([one_care, one_x]);
    }
    rows
}

#[test]
fn kernel_appends_after_existing_bytes() {
    let row = random_cube_set(65, 1, 0.5, 3).as_packed().cube(0).clone();
    let mut out = b"prefix ".to_vec();
    row.append_pattern_ascii(&mut out);
    assert_eq!(out, format!("prefix {row}").into_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernel_equals_display_oracle(
        seed in 0u64..u64::MAX,
        x_percent in 0u32..=100,
        pos in 0u64..u64::MAX,
    ) {
        for width in WIDTHS {
            let set = random_cube_set(width, 3, f64::from(x_percent) / 100.0, seed);
            let random = set.packed_cubes().iter().cloned();
            for row in extremes(width, pos as usize, seed).into_iter().chain(random) {
                prop_assert_eq!(
                    String::from_utf8(kernel(&row)).unwrap(),
                    row.to_string(),
                    "width {}, x_count {}", width, row.x_count()
                );
            }
        }
    }

    #[test]
    fn every_emit_path_writes_the_same_bytes(
        seed in 0u64..u64::MAX,
        x_percent in 0u32..=100,
        cubes in 0usize..40,
    ) {
        for width in WIDTHS {
            let set = random_cube_set(width, cubes, f64::from(x_percent) / 100.0, seed);
            let oracle: String = set.packed_cubes().iter().map(|row| format!("{row}\n")).collect();
            for header in [None, Some("one line"), Some("line a\nline b\n\nline d")] {
                let mut want = String::new();
                for line in header.iter().flat_map(|h| h.lines()) {
                    want.push_str(&format!("# {line}\n"));
                }
                want.push_str(&oracle);
                let mut written = Vec::new();
                write_patterns(&mut written, &set, header).unwrap();
                prop_assert_eq!(&String::from_utf8(written).unwrap(), &want);
                prop_assert_eq!(&patterns_to_string(&set, header), &want);
            }
        }
    }

    #[test]
    fn parse_inverts_emit(seed in 0u64..u64::MAX, x_percent in 0u32..=100, cubes in 1usize..40) {
        // Width 0 rows emit blank lines, which the parser skips.
        for width in WIDTHS.into_iter().filter(|&w| w > 0) {
            let set = random_cube_set(width, cubes, f64::from(x_percent) / 100.0, seed);
            prop_assert_eq!(&parse_patterns(&patterns_to_string(&set, None)).unwrap(), &set);
            let mut bytes = Vec::new();
            write_patterns(&mut bytes, &set, Some("hdr")).unwrap();
            prop_assert_eq!(
                &parse_patterns(&String::from_utf8(bytes).unwrap()).unwrap(),
                &set
            );
        }
    }
}

/// Short writes and interrupts behind the chunked writer — on the
/// first chunk, inside later ones, and on the last — are absorbed by its
/// retry policy: the sink receives the fault-free bytes.
#[test]
fn short_and_interrupted_writes_leave_chunked_output_byte_identical() {
    // ~205 KB: four 64 KiB chunks, the last one partial.
    let set = random_cube_set(2051, 100, 0.5, 7);
    let want = patterns_to_string(&set, Some("noisy sink"));
    let storm = FaultPlan::new()
        .on_op(0, OpFault::Interrupt)
        .on_op(1, OpFault::Short(1))
        .on_op(2, OpFault::Interrupt)
        .on_op(3, OpFault::Short(4096))
        .on_op(5, OpFault::Short(3))
        .on_op(6, OpFault::Interrupt)
        .on_op(8, OpFault::Short(1));
    let write_through = |plan| {
        let mut sink = FaultyWriter::new(Vec::new(), plan);
        write_patterns(&mut sink, &set, Some("noisy sink")).unwrap();
        let log = sink.log();
        (sink.into_inner(), log)
    };
    let (bytes, log) = write_through(storm);
    assert!(
        log.interrupts >= 2 && log.shorts >= 2,
        "storm did not fire: {log:?}"
    );
    assert_eq!(bytes, want.as_bytes());
    for seed in 0..16 {
        let (bytes, _) = write_through(FaultPlan::benign_noise(seed, 64));
        assert_eq!(bytes, want.as_bytes(), "noise seed {seed}");
    }
}

/// Many small sets through one writer equal the whole set written at
/// once: windows concatenate, whatever the chunk boundaries.
#[test]
fn windows_through_one_writer_concatenate() {
    let set = random_cube_set(2051, 200, 0.5, 11);
    let whole = patterns_to_string(&set, Some("w"));
    for window in [1, 7, 64, 200] {
        let mut out = Vec::new();
        let mut w = PatternWriter::new(&mut out);
        w.header("w").unwrap();
        for start in (0..set.len()).step_by(window) {
            let end = (start + window).min(set.len());
            let mut part = CubeSet::new(set.width());
            for row in &set.as_packed().cubes()[start..end] {
                part.push_packed(row.clone()).unwrap();
            }
            w.set(&part).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), whole, "window {window}");
    }
}
