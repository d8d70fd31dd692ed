//! The plane spool: pass 1's windows, kept on disk for pass 2.
//!
//! The planned fills need two passes over the cubes — analyze and
//! solve, then fill and emit — but the input text is parsed once. Pass
//! 1 appends every window it analyzed to a [`PlaneSpool`], in the order
//! the analyzer saw the cubes (after any banded reorder), and pass 2
//! replays the spool instead of re-opening the source. Each cube is one
//! fixed-size record of its raw planes
//! ([`PackedBits::append_plane_bytes`]: `2 · ⌈width/64⌉` little-endian
//! words, about a quarter of the text), so a replay needs no framing
//! and no parse.
//!
//! The spool is never held in memory: records pass through one buffer
//! of at most [`SPOOL_CHUNK`] bytes (or one record, if a record is
//! larger), which is the write buffer in pass 1 and the read buffer in
//! pass 2. Production spools live in an unlinked temp file
//! ([`temp_file`]), so no path is left behind on any exit. The backing
//! is generic over `Read + Write + Seek`, so the fault-injection
//! wrappers of [`dpfill_cubes::faultio`] can stand in for the file.
//! Every failure — a cut or short write, an interrupt storm past the
//! retry budget, a short read, a non-canonical record — surfaces as a
//! typed [`StreamError::Spool`].

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dpfill_cubes::packed::{PackedBits, PackedCubeSet};
use dpfill_cubes::retry::{self, RetryReader};
use dpfill_cubes::CubeSet;

use super::StreamError;

/// Spool traffic (relaxed no-ops unless a [`minitrace`] sink is live):
/// record bytes written in pass 1 and read back in pass 2.
static SPOOL_BYTES: minitrace::Counter = minitrace::Counter::new("stream.spool.bytes");
static SPOOL_READ_BYTES: minitrace::Counter = minitrace::Counter::new("stream.spool.read_bytes");

/// The spool buffer's size bound: the write buffer drains, and the read
/// buffer refills, in chunks of at most this many bytes.
pub(crate) const SPOOL_CHUNK: usize = 64 * 1024;

/// Opens a fresh file for reading and writing with `create_new`, which
/// refuses to follow symlinks or reuse an existing path — a predictable
/// name in a shared directory can be neither clobbered nor pre-planted.
/// The `name` callback receives a timestamp nonce and the attempt
/// number; the open retries with a new name on collision and returns
/// the final collision error if all sixteen attempts collide.
///
/// # Errors
///
/// The last open error.
pub fn create_exclusive(name: impl Fn(u32, u32) -> PathBuf) -> io::Result<(File, PathBuf)> {
    retry::with_retries(
        16,
        |e| e.kind() == io::ErrorKind::AlreadyExists,
        |attempt| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.subsec_nanos());
            let path = name(nanos, attempt as u32);
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
                .map(|file| (file, path))
        },
    )
}

/// Creates the production spool backing: an exclusive file in the
/// system temp directory (`TMPDIR`), unlinked as soon as it exists so
/// it vanishes with the process however the run ends.
///
/// # Errors
///
/// [`StreamError::Spool`] when the file cannot be created or unlinked.
pub(crate) fn temp_file() -> Result<File, StreamError> {
    temp_file_in(&std::env::temp_dir())
}

/// [`temp_file`] in an explicit directory.
fn temp_file_in(dir: &Path) -> Result<File, StreamError> {
    let (file, path) = create_exclusive(|nanos, attempt| {
        dir.join(format!(
            "dpfill-spool-{}-{nanos}-{attempt}.planes",
            std::process::id()
        ))
    })
    .map_err(spool_error("create"))?;
    std::fs::remove_file(&path).map_err(spool_error("create"))?;
    Ok(file)
}

fn spool_error(op: &'static str) -> impl Fn(io::Error) -> StreamError {
    move |source| StreamError::Spool { op, source }
}

/// Fixed-size plane records of every cube pass 1 analyzed, replayed in
/// the same order by pass 2 (see the [module docs](self)).
pub(crate) struct PlaneSpool<F> {
    backing: F,
    width: usize,
    /// Bytes per cube record.
    record: usize,
    /// The one buffer: pending records in pass 1, loaded records in
    /// pass 2. Its capacity is [`PlaneSpool::buffer_bytes`].
    buf: Vec<u8>,
    /// Next unread byte of `buf` in pass 2.
    pos: usize,
    /// Records appended in pass 1.
    written: usize,
    /// Records loaded into `buf` in pass 2.
    loaded: usize,
    /// Records replayed in pass 2.
    served: usize,
}

impl<F: Read + Write + Seek> PlaneSpool<F> {
    /// An empty spool of `width`-pin cubes over `backing`.
    pub fn new(backing: F, width: usize) -> PlaneSpool<F> {
        let record = PackedBits::plane_bytes_len(width);
        let mut spool = PlaneSpool {
            backing,
            width,
            record,
            buf: Vec::new(),
            pos: 0,
            written: 0,
            loaded: 0,
            served: 0,
        };
        spool.buf.reserve_exact(spool.capacity());
        spool
    }

    /// The cube width of every record.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whole records per buffer: [`SPOOL_CHUNK`] rounded down to a
    /// record multiple, at least one record.
    fn capacity(&self) -> usize {
        let record = self.record.max(1);
        record * (SPOOL_CHUNK / record).max(1)
    }

    /// Bytes the spool holds resident (its one buffer), charged to the
    /// memory-budget governor in both passes.
    pub fn buffer_bytes(&self) -> u64 {
        self.buf.capacity() as u64
    }

    /// Appends every cube of a window, draining the buffer to the
    /// backing whenever it fills.
    ///
    /// # Errors
    ///
    /// [`StreamError::Spool`] when the backing rejects a write.
    pub fn append(&mut self, set: &CubeSet) -> Result<(), StreamError> {
        for cube in set.packed_cubes() {
            cube.append_plane_bytes(&mut self.buf);
            if self.buf.len() >= self.capacity() {
                self.drain()?;
            }
        }
        self.written += set.len();
        Ok(())
    }

    fn drain(&mut self) -> Result<(), StreamError> {
        retry::write_all(&mut self.backing, &self.buf).map_err(spool_error("write"))?;
        SPOOL_BYTES.add(self.buf.len() as u64);
        self.buf.clear();
        Ok(())
    }

    /// Ends pass 1: writes out the pending records and rewinds the
    /// backing for the replay.
    ///
    /// # Errors
    ///
    /// [`StreamError::Spool`] when the final write, the flush or the
    /// seek back to the start fails.
    pub fn rewind(&mut self) -> Result<(), StreamError> {
        self.drain()?;
        retry::with_retries(retry::MAX_INTERRUPT_RETRIES, retry::is_interrupted, |_| {
            self.backing.flush()
        })
        .and_then(|()| self.backing.seek(SeekFrom::Start(0)))
        .map_err(spool_error("rewind"))?;
        self.pos = 0;
        Ok(())
    }

    /// Replays the next window of at most `max` cubes, in the order
    /// they were appended. Returns `Ok(None)` once every record is
    /// replayed.
    ///
    /// # Errors
    ///
    /// [`StreamError::Spool`] when the backing fails or ends early, or a
    /// record's planes are not canonical.
    pub fn next_window(&mut self, max: usize) -> Result<Option<CubeSet>, StreamError> {
        let take = max.min(self.written - self.served);
        if take == 0 {
            return Ok(None);
        }
        let mut set = PackedCubeSet::new(self.width);
        for _ in 0..take {
            if self.pos == self.buf.len() {
                self.load()?;
            }
            let record = &self.buf[self.pos..self.pos + self.record];
            let cube = PackedBits::from_plane_bytes(self.width, record).ok_or_else(|| {
                StreamError::Spool {
                    op: "read",
                    source: io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("record {} has non-canonical planes", self.served),
                    ),
                }
            })?;
            set.push(cube);
            self.pos += self.record;
            self.served += 1;
        }
        Ok(Some(CubeSet::from_packed(set)))
    }

    /// Refills the buffer with the next chunk of whole records.
    fn load(&mut self) -> Result<(), StreamError> {
        let records = (self.written - self.loaded).min(self.capacity() / self.record.max(1));
        self.buf.resize(records * self.record, 0);
        // Bounded EINTR retries under read_exact; a short backing is
        // an `UnexpectedEof`.
        RetryReader::new(&mut self.backing)
            .read_exact(&mut self.buf)
            .map_err(spool_error("read"))?;
        SPOOL_READ_BYTES.add(self.buf.len() as u64);
        self.loaded += records;
        self.pos = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpfill_cubes::faultio::{FaultPlan, FaultyReader, FaultyWriter, OpFault};
    use dpfill_cubes::gen::random_cube_set;
    use std::io::Cursor;

    /// A spool backing faulted on both sides: writes by `writes`, reads
    /// by `reads`.
    type Faulty = FaultyReader<FaultyWriter<Cursor<Vec<u8>>>>;

    fn faulty(writes: FaultPlan, reads: FaultPlan) -> Faulty {
        FaultyReader::new(FaultyWriter::new(Cursor::new(Vec::new()), writes), reads)
    }

    /// Spools `set` in windows of `window` and replays it in windows of
    /// `replay`, returning the replayed cubes.
    fn round_trip<F: Read + Write + Seek>(
        spool: &mut PlaneSpool<F>,
        set: &CubeSet,
        window: usize,
        replay: usize,
    ) -> Result<Vec<PackedBits>, StreamError> {
        for chunk in set.packed_cubes().chunks(window) {
            let part = PackedCubeSet::from_rows(set.width(), chunk.to_vec());
            spool.append(&CubeSet::from_packed(part))?;
        }
        spool.rewind()?;
        let mut out = Vec::new();
        while let Some(w) = spool.next_window(replay)? {
            assert!(!w.is_empty() && w.len() <= replay);
            out.extend(w.packed_cubes().iter().cloned());
        }
        Ok(out)
    }

    #[test]
    fn replays_every_cube_in_order_across_buffer_refills() {
        // Records of 16 B (narrow) and 528 B (width 2100): both sets
        // span several 64 KiB buffers, and the replay windows straddle
        // refills.
        for (width, cubes) in [(1, 5000), (64, 4500), (65, 3000), (2100, 300)] {
            let set = random_cube_set(width, cubes, 0.5, width as u64);
            for (window, replay) in [(1, 7), (512, 512), (cubes, 1000)] {
                let mut spool = PlaneSpool::new(Cursor::new(Vec::new()), width);
                let got = round_trip(&mut spool, &set, window, replay).unwrap();
                assert_eq!(got, set.packed_cubes(), "width {width} window {window}");
                assert!(spool.buffer_bytes() <= SPOOL_CHUNK as u64);
                assert!(spool.next_window(4).unwrap().is_none());
            }
        }
    }

    #[test]
    fn a_record_wider_than_the_chunk_still_round_trips() {
        // At 307200 pins a record is 76800 B, above the 64 KiB chunk:
        // the buffer holds exactly one record.
        let width = 307_200;
        let set = random_cube_set(width, 3, 0.5, 9);
        let mut spool = PlaneSpool::new(Cursor::new(Vec::new()), width);
        let got = round_trip(&mut spool, &set, 2, 2).unwrap();
        assert_eq!(got, set.packed_cubes());
        assert_eq!(
            spool.buffer_bytes(),
            PackedBits::plane_bytes_len(width) as u64
        );
    }

    #[test]
    fn recoverable_faults_on_both_sides_are_invisible() {
        let set = random_cube_set(130, 2000, 0.4, 3);
        let storm = |ops| {
            let mut plan = FaultPlan::new();
            for op in 0..ops {
                plan = plan.on_op(
                    op,
                    if op % 2 == 0 {
                        OpFault::Interrupt
                    } else {
                        OpFault::Short(7)
                    },
                );
            }
            plan
        };
        let mut spool = PlaneSpool::new(faulty(storm(40), storm(40)), 130);
        let got = round_trip(&mut spool, &set, 100, 333).unwrap();
        assert_eq!(got, set.packed_cubes());
    }

    fn expect_spool_error(err: StreamError, op: &str, kind: io::ErrorKind) {
        match err {
            StreamError::Spool { op: got, source } => {
                assert_eq!(got, op, "{source}");
                assert_eq!(source.kind(), kind, "{source}");
            }
            other => panic!("expected a {op} spool error, got {other}"),
        }
    }

    #[test]
    fn write_faults_surface_as_typed_spool_errors() {
        let set = random_cube_set(64, 5000, 0.4, 5);
        // A cut write on the second chunk.
        let cut = FaultPlan::new().on_op(1, OpFault::Fail(io::ErrorKind::StorageFull));
        let mut spool = PlaneSpool::new(faulty(cut, FaultPlan::new()), 64);
        let err = round_trip(&mut spool, &set, 512, 512).unwrap_err();
        expect_spool_error(err, "write", io::ErrorKind::StorageFull);
        // An interrupt storm past the retry budget.
        let mut storm = FaultPlan::new();
        for op in 0..2 * retry::MAX_INTERRUPT_RETRIES as u64 {
            storm = storm.on_op(op, OpFault::Interrupt);
        }
        let mut spool = PlaneSpool::new(faulty(storm.clone(), FaultPlan::new()), 64);
        let err = round_trip(&mut spool, &set, 512, 512).unwrap_err();
        assert!(
            matches!(err, StreamError::Spool { op: "write", .. }),
            "{err}"
        );
        // The same storm on the read side.
        let mut spool = PlaneSpool::new(faulty(FaultPlan::new(), storm), 64);
        let err = round_trip(&mut spool, &set, 512, 512).unwrap_err();
        assert!(
            matches!(err, StreamError::Spool { op: "read", .. }),
            "{err}"
        );
    }

    #[test]
    fn a_short_backing_is_an_unexpected_eof() {
        let set = random_cube_set(64, 100, 0.4, 6);
        let mut spool = PlaneSpool::new(Cursor::new(Vec::new()), 64);
        spool.append(&set).unwrap();
        spool.rewind().unwrap();
        // Lose the last record's bytes behind the spool's back.
        let len = spool.backing.get_ref().len();
        spool.backing.get_mut().truncate(len - 3);
        let err = spool.next_window(1000).unwrap_err();
        expect_spool_error(err, "read", io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn non_canonical_records_are_typed_errors() {
        let set = random_cube_set(70, 4, 0.5, 7);
        let record = PackedBits::plane_bytes_len(70);
        // (byte offset within record 1, bit to set): a value bit where
        // the care bit is clear, and a live bit past the width in each
        // plane.
        let x_pos = (0..70)
            .find(|&i| set.as_packed().cube(1).get(i) == dpfill_cubes::Bit::X)
            .unwrap();
        // Record layout at 70 pins: care words at bytes 0 and 8, value
        // words at 16 and 24; pin 70 is bit 6 of word 1.
        for (offset, bit) in [
            (16 + x_pos / 8, x_pos % 8), // value plane, over an X
            (8, 6),                      // care plane, past the width
            (24, 6),                     // value plane, past the width
        ] {
            let mut spool = PlaneSpool::new(Cursor::new(Vec::new()), 70);
            spool.append(&set).unwrap();
            spool.rewind().unwrap();
            spool.backing.get_mut()[record + offset] |= 1 << bit;
            let err = spool.next_window(4).unwrap_err();
            match err {
                StreamError::Spool { op: "read", source } => {
                    assert_eq!(source.kind(), io::ErrorKind::InvalidData);
                    assert!(source.to_string().contains("record 1"), "{source}");
                }
                other => panic!("expected a non-canonical record error, got {other}"),
            }
        }
    }

    #[test]
    fn temp_files_are_unlinked_on_create() {
        let dir = std::env::temp_dir().join(format!(
            "dpfill-spool-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spool = PlaneSpool::new(temp_file_in(&dir).unwrap(), 8);
        let set = random_cube_set(8, 10, 0.5, 1);
        let got = round_trip(&mut spool, &set, 3, 4).unwrap();
        assert_eq!(got, set.packed_cubes());
        let left = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir(&dir).unwrap();
        assert_eq!(left, 0, "the spool left a path behind");
        // A missing directory is a typed create error.
        let err = temp_file_in(&dir).unwrap_err();
        expect_spool_error(err, "create", io::ErrorKind::NotFound);
    }
}
