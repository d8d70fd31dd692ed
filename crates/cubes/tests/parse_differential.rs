//! Differential tests for the ASCII→plane parse kernel: its rows and
//! its first bad byte must equal the per-char oracle (`Bit::from_char`
//! per byte) for every byte value at every lane of an 8-byte group and
//! of the ragged tail, at every width shape; the line reader built on
//! it must report the same `ParseLine` errors as the scalar reference
//! parser (`parse_patterns_scalar`) and accept the same line shapes;
//! and windowed reads through `PatternStream` must concatenate to the
//! whole-file parse at any window size, across read-buffer refills.

use dpfill_cubes::format::{
    parse_patterns, parse_patterns_scalar, read_patterns, PatternError, PatternStream,
};
use dpfill_cubes::packed::PackedBits;
use dpfill_cubes::{Bit, CubeError, CubeSet};

/// The per-char oracle: each byte through `Bit::from_char`, the first
/// rejected byte as `Err`.
fn oracle(text: &[u8]) -> Result<PackedBits, u8> {
    let bits = text
        .iter()
        .map(|&b| Bit::from_char(b as char).map_err(|_| b))
        .collect::<Result<Vec<Bit>, u8>>()?;
    Ok(PackedBits::from_bits(&bits))
}

fn assert_kernel_matches(text: &[u8], ctx: &str) {
    assert_eq!(
        PackedBits::from_pattern_ascii(text),
        oracle(text),
        "{ctx}: {:?}",
        String::from_utf8_lossy(text)
    );
}

/// A fixed xorshift stream, so every run checks the same rows.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A row of `width` alphabet bytes, every spelling included.
    fn row(&mut self, width: usize) -> Vec<u8> {
        (0..width)
            .map(|_| b"01Xx-"[(self.next() % 5) as usize])
            .collect()
    }
}

#[test]
fn every_byte_value_at_every_lane_matches_the_oracle() {
    // 8: one full group; 15: a group and a 7-lane tail; 64: a full
    // word; 71 and 130: a second (third) word with a ragged tail.
    let mut rng = Rng(0x5EED);
    for width in [8, 15, 64, 71, 130] {
        let base = rng.row(width);
        assert_kernel_matches(&base, "base row");
        for pos in 0..width {
            for byte in 0..=255u8 {
                let mut text = base.clone();
                text[pos] = byte;
                assert_kernel_matches(&text, &format!("width {width}, byte {byte:#04x} at {pos}"));
            }
        }
    }
}

#[test]
fn every_width_matches_the_oracle_with_and_without_bad_bytes() {
    let mut rng = Rng(0xC0FFEE);
    for width in (0..=130).chain([2048]) {
        for _ in 0..4 {
            let text = rng.row(width);
            assert_kernel_matches(&text, &format!("width {width}"));
            if width == 0 {
                continue;
            }
            // Two bad bytes: the kernel must name the first.
            let mut bad = text.clone();
            let a = (rng.next() % width as u64) as usize;
            let b = (rng.next() % width as u64) as usize;
            bad[a] = [b'2', b'#', b' ', 0xC3, b'\n', b'Y'][(rng.next() % 6) as usize];
            bad[b] = [b'z', 0xFF, b'\r', b'/', b'.'][(rng.next() % 5) as usize];
            assert_kernel_matches(&bad, &format!("width {width}, bad at {a} and {b}"));
        }
    }
}

fn parse_line_error(result: Result<CubeSet, CubeError>) -> (usize, String) {
    match result {
        Err(CubeError::ParseLine { line, message }) => (line, message),
        other => panic!("expected a ParseLine error, got {other:?}"),
    }
}

#[test]
fn bad_characters_fail_with_the_scalar_oracles_message() {
    let mut rng = Rng(0xBAD);
    for width in [1, 7, 8, 9, 64, 65, 130] {
        for bad in ['2', 'Z', '#', '\t', 'é', '€', '\u{7f}', '\u{0}'] {
            let pos = (rng.next() % width as u64) as usize;
            let mut line: Vec<char> = rng.row(width).into_iter().map(char::from).collect();
            line[pos] = bad;
            let good: String = rng.row(width).into_iter().map(char::from).collect();
            let line: String = line.into_iter().collect();
            let text = format!("{good}\n{good}\n{line}\n{good}\n");
            let scalar = parse_patterns_scalar(&text);
            if let Ok(set) = scalar {
                // `#` and whitespace at the edges are legal: a comment
                // or padding, never an error.
                assert_eq!(parse_patterns(&text).unwrap(), set, "{text:?}");
                continue;
            }
            let want = parse_line_error(scalar);
            assert_eq!(parse_line_error(parse_patterns(&text)), want, "{text:?}");
            match read_patterns(text.as_bytes()) {
                Err(PatternError::Cube(CubeError::ParseLine { line, message })) => {
                    assert_eq!((line, message), want, "{text:?}");
                }
                other => panic!("expected ParseLine, got {other:?}"),
            }
        }
    }
}

#[test]
fn non_utf8_bytes_fail_at_their_line_naming_the_first_invalid_byte() {
    let mut rng = Rng(0x0BAD_0BAD);
    for width in [1, 8, 13, 64, 65, 2048] {
        for byte in [0x80u8, 0xC3, 0xE2, 0xFE, 0xFF] {
            let pos = (rng.next() % width as u64) as usize;
            let mut line = rng.row(width);
            line[pos] = byte;
            let mut text = rng.row(width);
            text.push(b'\n');
            text.extend_from_slice(&line);
            text.extend_from_slice(b"\r\n");
            // The lone byte is never valid UTF-8 here: a lead byte is
            // followed by a pattern character or the line end.
            let message = format!("invalid pattern byte 0x{byte:02X} (not UTF-8)");
            match read_patterns(text.as_slice()) {
                Err(PatternError::Cube(CubeError::ParseLine { line, message: got })) => {
                    assert_eq!((line, got), (2, message.clone()), "width {width}");
                }
                other => panic!("expected ParseLine at line 2, got {other:?}"),
            }
        }
    }
}

/// Line shapes the reader must accept exactly like the scalar parser:
/// trailing spaces, an inline `#` comment, `\r\n`, blank and
/// comment-only lines, and no final newline.
fn shaped_text(rng: &mut Rng, width: usize, cubes: usize) -> String {
    let mut text = String::from("# generated\n\n");
    for i in 0..cubes {
        let row: String = rng.row(width).into_iter().map(char::from).collect();
        let line = match i % 6 {
            0 => format!("{row}\n"),
            1 => format!("{row}   \n"),
            2 => format!("{row} # cube {i}\n"),
            3 => format!("{row}\r\n"),
            4 => format!("  {row}\n# between\n\n"),
            _ => format!("{row}\t\n"),
        };
        text.push_str(&line);
    }
    // No final newline on the last row.
    let last: String = rng.row(width).into_iter().map(char::from).collect();
    text.push_str(&last);
    text
}

#[test]
fn line_shapes_parse_like_the_scalar_oracle() {
    let mut rng = Rng(0x11AE);
    for width in [1, 7, 8, 64, 65, 130, 2048] {
        let text = shaped_text(&mut rng, width, 13);
        let want = parse_patterns_scalar(&text).expect("scalar parse");
        assert_eq!(want.len(), 14);
        assert_eq!(parse_patterns(&text).unwrap(), want, "width {width}");
        assert_eq!(
            read_patterns(text.as_bytes()).unwrap(),
            want,
            "width {width}"
        );
    }
}

#[test]
fn window_splits_concatenate_to_the_whole_parse_across_refills() {
    let mut rng = Rng(0x5711);
    // Enough text to cross several 64 KiB read-buffer refills, so lines
    // of every shape straddle a refill somewhere.
    for (width, cubes) in [(9, 16000), (130, 1600), (2048, 100)] {
        let text = shaped_text(&mut rng, width, cubes);
        assert!(text.len() > 3 * 64 * 1024);
        let whole = parse_patterns_scalar(&text).expect("scalar parse");
        for window in [1, 2, 64] {
            let mut stream = PatternStream::new(text.as_bytes());
            let mut got = CubeSet::new(width);
            while let Some(w) = stream.next_window(window).unwrap() {
                assert!(!w.is_empty() && w.len() <= window);
                for cube in w.packed_cubes() {
                    got.push_packed(cube.clone()).unwrap();
                }
            }
            assert_eq!(got, whole, "width {width} window {window}");
            assert_eq!(stream.cubes_read(), whole.len());
        }
    }
}

#[test]
fn a_line_longer_than_the_read_buffer_parses() {
    let mut rng = Rng(0x10_0000);
    let width = 200_000;
    let rows: Vec<String> = (0..3)
        .map(|_| rng.row(width).into_iter().map(char::from).collect())
        .collect();
    let text = format!("{}\n{} # wide\n{}", rows[0], rows[1], rows[2]);
    let want = parse_patterns_scalar(&text).expect("scalar parse");
    assert_eq!(read_patterns(text.as_bytes()).unwrap(), want);
}

#[test]
fn late_errors_after_every_line_shape_report_the_scalar_line() {
    // Each error follows lines of every shape (so a reader that framed
    // any of them wrongly would drift its line count), and a row one
    // pin too long or too short must fail as a width error, never be
    // split into rows of the known width.
    let mut rng = Rng(0x1A7E);
    for width in [2, 8, 64, 65, 130] {
        let prefix = shaped_text(&mut rng, width, 12);
        let long: String = rng.row(width + 1).into_iter().map(char::from).collect();
        let short: String = rng.row(width - 1).into_iter().map(char::from).collect();
        let mut bad: Vec<char> = rng.row(width).into_iter().map(char::from).collect();
        bad[width / 2] = 'Q';
        let bad: String = bad.into_iter().collect();
        for tail in [long, short, bad] {
            let text = format!("{prefix}\n{tail}\n");
            let want = parse_line_error(parse_patterns_scalar(&text));
            assert_eq!(parse_line_error(parse_patterns(&text)), want, "{text:?}");
        }
    }
}
