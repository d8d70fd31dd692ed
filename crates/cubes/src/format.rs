//! Plain-text pattern format.
//!
//! One cube per line as a `01X` string; `#` starts a comment; blank lines
//! are ignored. This mirrors the pattern dumps that commercial ATPG flows
//! exchange (a simplified STIL), and is the on-disk format used by the
//! experiment harness.
//!
//! ```text
//! # patterns for b03, tool order
//! 0X1XX10X
//! 1XX0X10X
//! ```
//!
//! # Streaming ingestion
//!
//! Every parser reads through one line reader, [`PatternStream`]:
//! [`read_patterns`] and [`parse_patterns`] drain a single unbounded
//! window of it. Lines are framed in one 64 KiB read buffer and packed
//! straight into the `(care, value)` plane words of the [`CubeSet`]
//! backing store by the byte-parallel kernel
//! [`PackedBits::from_pattern_ascii`] — no intermediate `Vec<Bit>` or
//! [`TestCube`] is ever materialized. Memory is bounded by the read
//! buffer (which grows only for a line longer than itself) and one
//! packed row (`2 · ⌈width/64⌉` words) beyond the output set itself, so
//! million-cube pattern files never exist in scalar form.
//! [`parse_patterns_scalar`] retains the original cube-at-a-time parser
//! as the differential-test reference and benchmark baseline.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::packed::PackedBits;
use crate::retry::{self, RetryReader};
use crate::{Bit, CubeError, CubeSet, TestCube};

/// Parse/emit throughput (relaxed no-ops unless a [`minitrace`] sink is
/// live): wall-clock per parsed window, cubes and raw bytes ingested,
/// cubes and bytes emitted.
static PARSE_WINDOW_NS: minitrace::Histogram = minitrace::Histogram::new("cubes.parse.window_ns");
static PARSE_CUBES: minitrace::Counter = minitrace::Counter::new("cubes.parse.cubes");
static PARSE_BYTES: minitrace::Counter = minitrace::Counter::new("cubes.parse.bytes");
static EMIT_CUBES: minitrace::Counter = minitrace::Counter::new("cubes.emit.cubes");
static EMIT_BYTES: minitrace::Counter = minitrace::Counter::new("cubes.emit.bytes");

/// A pattern-file failure: either the underlying reader failed or a line
/// did not parse. Flattens the previous `io::Result<Result<_, _>>`
/// nesting into one enum.
#[derive(Debug)]
pub enum PatternError {
    /// The reader returned an I/O error.
    Io(io::Error),
    /// A line failed to parse (see [`CubeError::ParseLine`]).
    Cube(CubeError),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Io(e) => write!(f, "pattern file I/O error: {e}"),
            PatternError::Cube(e) => e.fmt(f),
        }
    }
}

impl Error for PatternError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PatternError::Io(e) => Some(e),
            PatternError::Cube(e) => Some(e),
        }
    }
}

impl From<io::Error> for PatternError {
    fn from(e: io::Error) -> PatternError {
        PatternError::Io(e)
    }
}

impl From<CubeError> for PatternError {
    fn from(e: CubeError) -> PatternError {
        PatternError::Cube(e)
    }
}

/// Parses one raw pattern line into a packed row. Returns `Ok(None)` for
/// blank and comment-only lines; `idx` is the 0-based line number used
/// in errors. This is the single line-level kernel behind every parser
/// and the windowed [`PatternStream`]. It takes raw bytes, so a line
/// that is not UTF-8 fails as a [`CubeError::ParseLine`] at its own line
/// instead of failing the read.
fn parse_line(idx: usize, line: &[u8]) -> Result<Option<PackedBits>, CubeError> {
    // Fast path: most lines of a large pattern file are pure `01X`
    // rows, which the branchless kernel packs in one pass with no
    // comment scan or UTF-8 check. A `#` (or any other byte) falls
    // through to the comment-stripping slow path.
    let trimmed = line.trim_ascii();
    if trimmed.is_empty() {
        return Ok(None);
    }
    if let Ok(row) = PackedBits::from_pattern_ascii(trimmed) {
        return Ok(Some(row));
    }
    let text = std::str::from_utf8(line).map_err(|e| CubeError::ParseLine {
        line: idx + 1,
        message: format!(
            "invalid pattern byte 0x{:02X} (not UTF-8)",
            line[e.valid_up_to()]
        ),
    })?;
    let trimmed = text.trim();
    let content = match trimmed.find('#') {
        Some(pos) => &trimmed[..pos],
        None => trimmed,
    };
    let content = content.trim_end();
    if content.is_empty() {
        return Ok(None);
    }
    match PackedBits::from_pattern_ascii(content.as_bytes()) {
        Ok(row) => Ok(Some(row)),
        Err(_) => {
            // Cold path: rescan as chars for the exact offending
            // character (a UTF-8 sequence fails on its lead byte). A
            // byte already failed, so some char fails; the fallback
            // message keeps this branch panic-free regardless.
            let message = content
                .chars()
                .map(Bit::from_char)
                .find_map(Result::err)
                .map_or_else(|| "unparsable pattern line".to_string(), |e| e.to_string());
            Err(CubeError::ParseLine {
                line: idx + 1,
                message,
            })
        }
    }
}

/// The width-mismatch error every parser reports, so monolithic and
/// windowed ingestion fail with byte-identical messages.
fn width_error(idx: usize, got: usize, want: usize) -> CubeError {
    CubeError::ParseLine {
        line: idx + 1,
        message: format!("cube width {got} does not match width {want}"),
    }
}

/// The line reader's buffer size: the source is read in chunks of this
/// many bytes, and a line is copied only when it straddles a refill.
const PARSE_CHUNK: usize = 64 * 1024;

/// Windowed pattern ingestion: reads a pattern file **in bounded chunks
/// of cubes** instead of materializing the whole set — the one line
/// reader behind every parser ([`read_patterns`] and [`parse_patterns`]
/// drain a single unbounded window).
///
/// Lines are framed in place in one [`PARSE_CHUNK`]-byte read buffer;
/// only a line that straddles a refill is copied, to the buffer's
/// front. Once the width is known, a line that is exactly `width`
/// pattern bytes and a `\n` is packed straight from the buffer by
/// [`PackedBits::from_pattern_ascii`] with no newline search; any other
/// line (comments, blanks, whitespace, `\r\n`, errors) takes the
/// general per-line path.
///
/// The stream enforces one width across *all* windows, with 1-based
/// line numbers in its errors, and keeps only the read buffer plus the
/// current window resident. Reading to the end yields `Ok(None)`.
///
/// ```
/// use dpfill_cubes::format::PatternStream;
///
/// let mut stream = PatternStream::new("0X\n1X\nX1\n".as_bytes());
/// let w1 = stream.next_window(2).unwrap().unwrap();
/// assert_eq!(w1.len(), 2);
/// let w2 = stream.next_window(2).unwrap().unwrap();
/// assert_eq!(w2.len(), 1);
/// assert!(stream.next_window(2).unwrap().is_none());
/// assert_eq!(stream.cubes_read(), 3);
/// ```
pub struct PatternStream<R: Read> {
    // The raw source is wrapped in a RetryReader, so `EINTR` storms are
    // absorbed at the syscall boundary with a bounded budget instead of
    // aborting (or looping) mid-window.
    reader: RetryReader<R>,
    /// The read buffer: `buf[start..end]` is read but not yet framed.
    /// It grows only for a line longer than the buffer itself.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    next_line: usize,
    width: Option<usize>,
    cubes_read: usize,
}

impl<R: Read> PatternStream<R> {
    /// Wraps a reader. Nothing is read until the first
    /// [`PatternStream::next_window`] call.
    pub fn new(reader: R) -> PatternStream<R> {
        PatternStream {
            reader: RetryReader::new(reader),
            buf: vec![0; PARSE_CHUNK],
            start: 0,
            end: 0,
            eof: false,
            next_line: 0,
            width: None,
            cubes_read: 0,
        }
    }

    /// The cube width, once the first cube has been read.
    pub fn width(&self) -> Option<usize> {
        self.width
    }

    /// Total cubes returned across all windows so far.
    pub fn cubes_read(&self) -> usize {
        self.cubes_read
    }

    /// Moves the unframed tail (the head of a straddling line) to the
    /// front of the buffer and reads more behind it.
    fn refill(&mut self) -> io::Result<()> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            // One line fills the whole buffer.
            self.buf.resize(2 * self.buf.len(), 0);
        }
        match self.reader.read(&mut self.buf[self.end..])? {
            0 => self.eof = true,
            n => self.end += n,
        }
        Ok(())
    }

    /// Frames and parses the next line. Returns `Ok(None)` at end of
    /// input, else the line's row (`None` for a blank or comment line)
    /// and its raw length in bytes.
    fn frame_line(&mut self) -> Result<Option<(Option<PackedBits>, usize)>, PatternError> {
        let idx = self.next_line;
        loop {
            let avail = &self.buf[self.start..self.end];
            if let Some(w) = self.width {
                // Fast path: a bare row of the known width.
                if avail.get(w) == Some(&b'\n') {
                    if let Ok(row) = PackedBits::from_pattern_ascii(&avail[..w]) {
                        return Ok(Some(self.framed(Some(row), w + 1)));
                    }
                }
            }
            if let Some(end) = avail.iter().position(|&b| b == b'\n') {
                let row = parse_line(idx, &avail[..=end])?;
                return Ok(Some(self.framed(row, end + 1)));
            }
            if self.eof {
                // A final line without a newline, or nothing left.
                if avail.is_empty() {
                    return Ok(None);
                }
                let row = parse_line(idx, avail)?;
                return Ok(Some(self.framed(row, avail.len())));
            }
            self.refill()?;
        }
    }

    /// Consumes a framed line of `len` bytes.
    fn framed(&mut self, row: Option<PackedBits>, len: usize) -> (Option<PackedBits>, usize) {
        self.start += len;
        self.next_line += 1;
        (row, len)
    }

    /// Reads the next window of at most `max_cubes` cubes. Returns
    /// `Ok(None)` at end of input (a window is never empty).
    ///
    /// # Panics
    ///
    /// Panics if `max_cubes` is zero.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Io`] for reader failures and
    /// [`PatternError::Cube`] with the 1-based line number for the first
    /// malformed line — including a width that disagrees with any
    /// earlier window.
    pub fn next_window(&mut self, max_cubes: usize) -> Result<Option<CubeSet>, PatternError> {
        assert!(max_cubes > 0, "a window must hold at least one cube");
        let parse_start = if minitrace::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let mut set = self.width.map(CubeSet::new);
        let mut count = 0usize;
        let mut bytes = 0usize;
        while count < max_cubes {
            let idx = self.next_line;
            let Some((row, len)) = self.frame_line()? else {
                break;
            };
            bytes += len;
            let Some(row) = row else {
                continue;
            };
            if let Some(w) = self.width {
                if row.len() != w {
                    return Err(width_error(idx, row.len(), w).into());
                }
            } else {
                self.width = Some(row.len());
            }
            set.get_or_insert_with(|| CubeSet::new(row.len()))
                .push_packed(row)?;
            count += 1;
        }
        if let Some(at) = parse_start {
            PARSE_WINDOW_NS.record(at.elapsed().as_nanos() as u64);
            PARSE_CUBES.add(count as u64);
            PARSE_BYTES.add(bytes as u64);
        }
        if count == 0 {
            return Ok(None);
        }
        self.cubes_read += count;
        Ok(set)
    }
}

/// The emit buffer's drain threshold. Rendered lines leave for the
/// writer once this many bytes are pending, so the buffer holds at most
/// one chunk plus one line whatever the size of a set or window.
const EMIT_CHUNK: usize = 64 * 1024;

/// Incremental pattern emission: filled patterns leave the process as
/// each window of the streaming pipeline retires — no full-set buffer
/// is ever built.
///
/// Rows are rendered by the plane→ASCII kernel
/// ([`PackedBits::append_pattern_ascii`]) into one reused byte buffer,
/// which is handed to the writer every [`EMIT_CHUNK`] bytes and at the
/// end of every [`PatternWriter::header`] and [`PatternWriter::set`]
/// call, so nothing stays pending between calls. Each hand-off goes
/// through the bounded retry policy in [`crate::retry`]: short writes
/// and `EINTR` storms up to the budget are absorbed, and any other
/// error (a broken pipe, say) surfaces from the call that hit it —
/// callers in the pattern pipeline wrap it as [`PatternError::Io`].
///
/// ```
/// use dpfill_cubes::format::{parse_patterns, PatternWriter};
///
/// let set = parse_patterns("0X\n1X\n").unwrap();
/// let mut out = Vec::new();
/// let mut w = PatternWriter::new(&mut out);
/// w.header("two cubes").unwrap();
/// w.set(&set).unwrap();
/// w.finish().unwrap();
/// assert_eq!(out, b"# two cubes\n0X\n1X\n");
/// ```
pub struct PatternWriter<W: Write> {
    writer: W,
    /// Rendered bytes not yet handed to `writer`; empty between calls.
    buf: Vec<u8>,
}

impl<W: Write> PatternWriter<W> {
    /// Wraps a writer (pass a `BufWriter` for unbuffered sinks).
    pub fn new(writer: W) -> PatternWriter<W> {
        PatternWriter {
            writer,
            buf: Vec::new(),
        }
    }

    /// Hands the pending bytes to the writer through the bounded retry
    /// policy and empties the buffer.
    fn drain(&mut self) -> io::Result<()> {
        let result = retry::write_all(&mut self.writer, &self.buf);
        if result.is_ok() {
            EMIT_BYTES.add(self.buf.len() as u64);
        }
        self.buf.clear();
        result
    }

    /// Writes a (possibly multi-line) header comment.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn header(&mut self, header: &str) -> io::Result<()> {
        for line in header.lines() {
            // Rendering into the in-memory buffer cannot fail; the
            // fallible step is the single retried write below.
            let _ = writeln!(self.buf, "# {line}");
        }
        self.drain()
    }

    /// Writes every cube of a set (one retired window, say) as `01X`
    /// lines, straight off the packed planes.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn set(&mut self, set: &CubeSet) -> io::Result<()> {
        // Sized once: a line starts below the threshold and adds at most
        // `width + 1` bytes before the drain check.
        self.buf.reserve_exact(EMIT_CHUNK + set.width() + 1);
        for cube in set.packed_cubes() {
            cube.append_pattern_ascii(&mut self.buf);
            self.buf.push(b'\n');
            if self.buf.len() >= EMIT_CHUNK {
                self.drain()?;
            }
        }
        self.drain()?;
        EMIT_CUBES.add(set.len() as u64);
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        retry::with_retries(retry::MAX_INTERRUPT_RETRIES, retry::is_interrupted, |_| {
            self.writer.flush()
        })?;
        Ok(self.writer)
    }
}

/// Parses a pattern file from any reader: one unbounded
/// [`PatternStream`] window, so memory stays bounded by the output set
/// plus the stream's read buffer. Note that a `&[u8]` or `&mut R` can be
/// passed where `R: Read` is expected.
///
/// # Errors
///
/// Returns [`PatternError::Io`] for reader failures and
/// [`PatternError::Cube`] (wrapping [`CubeError::ParseLine`] with the
/// 1-based line number) for the first offending line.
pub fn read_patterns<R: Read>(reader: R) -> Result<CubeSet, PatternError> {
    Ok(PatternStream::new(reader)
        .next_window(usize::MAX)?
        .unwrap_or_else(|| CubeSet::new(0)))
}

/// Parses a pattern file from a string through the same line reader as
/// [`read_patterns`].
///
/// # Errors
///
/// Returns [`CubeError::ParseLine`] on the first malformed line.
pub fn parse_patterns(text: &str) -> Result<CubeSet, CubeError> {
    read_patterns(text.as_bytes()).map_err(|e| match e {
        PatternError::Cube(e) => e,
        // Reading a byte slice cannot fail; kept total without a panic.
        PatternError::Io(e) => CubeError::ParseLine {
            line: 0,
            message: e.to_string(),
        },
    })
}

/// The original cube-at-a-time parser (`Vec<Bit>` per line, packed on
/// push), retained as the executable reference for the differential
/// tests and the parse-throughput benchmark baseline.
///
/// # Errors
///
/// Returns [`CubeError::ParseLine`] on the first malformed line, with
/// the same line numbers and messages as [`parse_patterns`].
pub fn parse_patterns_scalar(text: &str) -> Result<CubeSet, CubeError> {
    let mut cubes: Vec<TestCube> = Vec::new();
    let mut width: Option<usize> = None;
    for (idx, line) in text.lines().enumerate() {
        let content = match line.find('#') {
            Some(pos) => &line[..pos],
            None => line,
        };
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        let cube: TestCube = match content.parse() {
            Ok(c) => c,
            Err(e) => {
                return Err(CubeError::ParseLine {
                    line: idx + 1,
                    message: e.to_string(),
                })
            }
        };
        if let Some(w) = width {
            if cube.width() != w {
                return Err(CubeError::ParseLine {
                    line: idx + 1,
                    message: format!("cube width {} does not match width {}", cube.width(), w),
                });
            }
        } else {
            width = Some(cube.width());
        }
        cubes.push(cube);
    }
    CubeSet::from_cubes(cubes)
}

/// Writes a cube set in the pattern format, with an optional header
/// comment. Rows are rendered straight from the packed planes.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_patterns<W: Write>(writer: W, set: &CubeSet, header: Option<&str>) -> io::Result<()> {
    let mut w = PatternWriter::new(writer);
    if let Some(h) = header {
        w.header(h)?;
    }
    w.set(set)?;
    w.finish().map(drop)
}

/// Renders a cube set to a pattern-format string, through the same
/// [`PatternWriter`] as [`write_patterns`].
pub fn patterns_to_string(set: &CubeSet, header: Option<&str>) -> String {
    let mut out = Vec::with_capacity(set.len().saturating_mul(set.width() + 1));
    // Writes to memory cannot fail, so this stays panic-free without an
    // `expect`.
    let _ = write_patterns(&mut out, set, header);
    // Rows are ASCII and the header came in as `str`, so the lossy
    // branch never runs.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let set = CubeSet::parse_rows(&["0X1X", "1XX0", "XXXX"]).unwrap();
        let text = patterns_to_string(&set, Some("three cubes"));
        assert!(text.starts_with("# three cubes\n"));
        let back = parse_patterns(&text).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n0X1 # trailing comment\n  1X0  \n";
        let set = parse_patterns(text).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.cube(0).to_string(), "0X1");
        assert_eq!(set.cube(1).to_string(), "1X0");
    }

    #[test]
    fn reports_line_numbers() {
        let text = "0X1\n1Z0\n";
        match parse_patterns(text) {
            Err(CubeError::ParseLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected ParseLine error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_ragged_widths() {
        let text = "0X1\n10\n";
        match parse_patterns(text) {
            Err(CubeError::ParseLine { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("width"));
            }
            other => panic!("expected ParseLine error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_gives_empty_set() {
        let set = parse_patterns("# nothing here\n\n").unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn multi_line_header() {
        let set = CubeSet::parse_rows(&["01"]).unwrap();
        let text = patterns_to_string(&set, Some("line a\nline b"));
        assert!(text.contains("# line a\n# line b\n"));
        assert_eq!(parse_patterns(&text).unwrap(), set);
    }

    #[test]
    fn read_patterns_flattened_errors() {
        // Happy path from a byte reader.
        let set = read_patterns("0X\n10\n".as_bytes()).unwrap();
        assert_eq!(set.len(), 2);
        // Parse failure arrives as PatternError::Cube.
        match read_patterns("0X\nZZ\n".as_bytes()) {
            Err(PatternError::Cube(CubeError::ParseLine { line, .. })) => assert_eq!(line, 2),
            other => panic!("expected Cube(ParseLine), got {other:?}"),
        }
        // I/O failure arrives as PatternError::Io via From<io::Error>.
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("reader broke"))
            }
        }
        match read_patterns(Broken) {
            Err(PatternError::Io(e)) => assert_eq!(e.to_string(), "reader broke"),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn read_patterns_handles_crlf_and_missing_final_newline() {
        let set = read_patterns("0X\r\n10".as_bytes()).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.cube(1).to_string(), "10");
    }

    #[test]
    fn streaming_and_scalar_parsers_agree() {
        let text = "# hdr\n\n0X1X0X1\n  1111111  # c\nXXXXXXX\n";
        assert_eq!(
            parse_patterns(text).unwrap(),
            parse_patterns_scalar(text).unwrap()
        );
        for bad in ["01\nZZ\n", "01\n010\n"] {
            assert_eq!(
                parse_patterns(bad).unwrap_err(),
                parse_patterns_scalar(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn pattern_stream_windows_concatenate_to_the_monolithic_parse() {
        let text = "# hdr\n\n0X1X0X1\n  1111111  # c\nXXXXXXX\n0101010\nX1X1X1X\n";
        let whole = parse_patterns(text).unwrap();
        for window in [1, 2, 3, 64] {
            let mut stream = PatternStream::new(text.as_bytes());
            let mut got = CubeSet::new(whole.width());
            while let Some(w) = stream.next_window(window).unwrap() {
                assert!(!w.is_empty() && w.len() <= window);
                assert_eq!(w.width(), whole.width());
                for cube in w.packed_cubes() {
                    got.push_packed(cube.clone()).unwrap();
                }
            }
            assert_eq!(got, whole, "window {window}");
            assert_eq!(stream.cubes_read(), whole.len());
            assert_eq!(stream.width(), Some(whole.width()));
            // EOF is sticky.
            assert!(stream.next_window(window).unwrap().is_none());
        }
    }

    #[test]
    fn pattern_stream_reports_errors_at_the_offending_line() {
        // A malformed line deep in a later window, with the same 1-based
        // line numbers read_patterns reports.
        let text = "0X\n10\nZZ\n";
        let mut stream = PatternStream::new(text.as_bytes());
        let first = stream.next_window(2).unwrap().unwrap();
        assert_eq!(first.len(), 2);
        match stream.next_window(2) {
            Err(PatternError::Cube(CubeError::ParseLine { line, .. })) => assert_eq!(line, 3),
            other => panic!("expected ParseLine at line 3, got {other:?}"),
        }
        // A width mismatch across windows carries its line index too.
        let text = "0X\n10\n010\n";
        let mut stream = PatternStream::new(text.as_bytes());
        stream.next_window(2).unwrap().unwrap();
        match stream.next_window(2) {
            Err(PatternError::Cube(CubeError::ParseLine { line, message })) => {
                assert_eq!(line, 3);
                assert!(message.contains("width"), "{message}");
            }
            other => panic!("expected width ParseLine, got {other:?}"),
        }
    }

    #[test]
    fn pattern_stream_empty_input() {
        let mut stream = PatternStream::new("# nothing\n\n".as_bytes());
        assert!(stream.next_window(8).unwrap().is_none());
        assert_eq!(stream.cubes_read(), 0);
        assert_eq!(stream.width(), None);
    }

    #[test]
    fn pattern_writer_matches_patterns_to_string() {
        let set = CubeSet::parse_rows(&["0X1X", "1XX0", "XXXX"]).unwrap();
        let mut buf = Vec::new();
        let mut w = PatternWriter::new(&mut buf);
        w.header("line a\nline b").unwrap();
        for window in [&["0X1X", "1XX0"][..], &["XXXX"][..]] {
            w.set(&CubeSet::parse_rows(window).unwrap()).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            patterns_to_string(&set, Some("line a\nline b"))
        );
    }

    #[test]
    fn pattern_writer_surfaces_broken_pipe() {
        // A sink that accepts the header, then breaks — the incremental
        // writer must surface the error at the offending cube, and the
        // pattern pipeline wraps it as PatternError::Io.
        struct BrokenPipe {
            accepted: Vec<u8>,
            remaining: usize,
        }
        impl Write for BrokenPipe {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.remaining == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
                }
                let n = buf.len().min(self.remaining);
                self.remaining -= n;
                self.accepted.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let set = CubeSet::parse_rows(&["0X1X", "1XX0"]).unwrap();
        let mut w = PatternWriter::new(BrokenPipe {
            accepted: Vec::new(),
            remaining: 10,
        });
        w.header("header!").unwrap(); // "# header!\n" is exactly 10 bytes
        let err = w.set(&set).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let wrapped = PatternError::from(err);
        assert!(matches!(wrapped, PatternError::Io(_)));
        assert!(wrapped.to_string().contains("pipe closed"), "{wrapped}");

        // A break in the middle of a later chunk of one large set: the
        // chunks before it arrive whole, and set() still reports the
        // pipe's error kind.
        let rows = vec!["01X".repeat(100); 1000];
        let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
        let set = CubeSet::parse_rows(&rows).unwrap();
        let want = patterns_to_string(&set, None);
        assert!(want.len() > 4 * EMIT_CHUNK);
        let cut = 2 * EMIT_CHUNK + EMIT_CHUNK / 2;
        let mut w = PatternWriter::new(BrokenPipe {
            accepted: Vec::new(),
            remaining: cut,
        });
        let err = w.set(&set).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.writer.accepted, want.as_bytes()[..cut]);
    }

    #[test]
    fn pattern_writer_buffer_stays_one_chunk_plus_one_line() {
        let (cubes, width) = (16384, 2048);
        let mut set = CubeSet::new(width);
        for _ in 0..cubes {
            set.push_packed(PackedBits::all_x(width)).unwrap();
        }
        let mut w = PatternWriter::new(io::sink());
        w.set(&set).unwrap();
        assert!(w.buf.is_empty());
        assert!(
            w.buf.capacity() <= EMIT_CHUNK + width + 1,
            "capacity {} after a {cubes} x {width} set",
            w.buf.capacity()
        );
    }

    #[test]
    fn non_utf8_bytes_are_a_parse_error_at_their_line() {
        let text: &[u8] = b"0X1\n1\xff0\n";
        let expect = |e: PatternError| match e {
            PatternError::Cube(CubeError::ParseLine { line, message }) => {
                assert_eq!(line, 2);
                assert_eq!(message, "invalid pattern byte 0xFF (not UTF-8)");
            }
            other => panic!("expected ParseLine at line 2, got {other:?}"),
        };
        expect(read_patterns(text).unwrap_err());
        let mut stream = PatternStream::new(text);
        assert!(stream.next_window(1).unwrap().is_some());
        expect(stream.next_window(1).unwrap_err());
    }

    #[test]
    fn pattern_error_display_and_source() {
        let e = PatternError::from(CubeError::EmptySet);
        assert!(e.to_string().contains("non-empty"));
        assert!(e.source().is_some());
        let io_e = PatternError::from(io::Error::other("boom"));
        assert!(io_e.to_string().contains("boom"));
    }
}
