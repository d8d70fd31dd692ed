//! Bounded, deterministic retry for fallible I/O.
//!
//! Long-running fill services cannot treat a transient failure the way a
//! one-shot CLI can: a signal landing mid-`read` (`EINTR`), a short
//! write to a pipe, or a temp-file name collision must be *retried a
//! bounded number of times* and then surface as a typed error — never
//! retried forever (a hostile fault schedule would hang the daemon) and
//! never panicked over. This module is the one retry policy every I/O
//! path in the workspace routes through:
//!
//! * [`with_retries`] — the generic bounded-retry driver with a
//!   deterministic (clock-free) backoff; on exhaustion the **final**
//!   error is returned, not a panic;
//! * [`read`] / [`write_all`] — `EINTR`-hardened primitives used by the
//!   pattern reader/writer; exhausted interrupt budgets are reported as
//!   a *non*-`Interrupted` error so buffered wrappers above (whose own
//!   loops retry `Interrupted` unconditionally) cannot spin forever;
//! * [`RetryReader`] — a `Read` adapter applying the same policy, used
//!   by the windowed [`PatternStream`](crate::format::PatternStream)
//!   and by the streaming pipeline's plane-spool reads.
//!
//! The backoff is deliberately clock- and RNG-free (spin/yield only) so
//! fault-injection tests stay bit-for-bit deterministic.

use std::io::{self, Read};

/// Retryable errors absorbed (interrupts, short ops, name collisions)
/// across every retry loop — a relaxed no-op unless a [`minitrace`]
/// sink is live.
static RETRY_ABSORBED: minitrace::Counter = minitrace::Counter::new("retry.absorbed");

/// How many consecutive `Interrupted` results an I/O primitive absorbs
/// before giving up. Any real signal storm is far below this; a fault
/// schedule injecting more is treated as a broken stream.
pub const MAX_INTERRUPT_RETRIES: usize = 64;

/// Deterministic backoff between retry attempts: an exponentially
/// growing spin (capped), switching to scheduler yields once the spin
/// budget is large. No clocks, no randomness — fault-injection tests
/// replay identically.
fn backoff(attempt: usize) {
    if attempt < 6 {
        for _ in 0..(1u32 << attempt.min(5)) {
            std::hint::spin_loop();
        }
    } else {
        std::thread::yield_now();
    }
}

/// Runs `op` up to `attempts` times, backing off deterministically
/// between attempts, retrying only errors `retryable` accepts. The
/// first success or non-retryable error returns immediately; an
/// exhausted budget returns the **final** retryable error.
///
/// `op` receives the 0-based attempt number (temp-file creation uses it
/// to vary the candidate name).
///
/// # Errors
///
/// The last error `op` produced: the first non-retryable one, or the
/// final retryable one once the budget is spent.
pub fn with_retries<T>(
    attempts: usize,
    retryable: impl Fn(&io::Error) -> bool,
    mut op: impl FnMut(usize) -> io::Result<T>,
) -> io::Result<T> {
    let attempts = attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(value) => return Ok(value),
            Err(e) if attempt + 1 < attempts && retryable(&e) => {
                RETRY_ABSORBED.add(1);
                backoff(attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Is this error `EINTR`?
pub fn is_interrupted(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Interrupted
}

/// The typed error reported when an interrupt budget is exhausted.
/// Deliberately **not** `ErrorKind::Interrupted`: `BufReader`/`BufWriter`
/// internals retry `Interrupted` unconditionally, so re-surfacing that
/// kind would let a hostile fault schedule pin the process in a retry
/// storm above us.
fn interrupts_exhausted(what: &str) -> io::Error {
    io::Error::other(format!(
        "{what} interrupted {MAX_INTERRUPT_RETRIES} times without progress; giving up"
    ))
}

/// One `read` with a bounded `EINTR` budget.
///
/// # Errors
///
/// The reader's first non-`Interrupted` error, or the exhaustion error
/// above after [`MAX_INTERRUPT_RETRIES`] consecutive interrupts.
pub fn read<R: Read + ?Sized>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    with_retries(MAX_INTERRUPT_RETRIES, is_interrupted, |_| reader.read(buf)).map_err(|e| {
        if is_interrupted(&e) {
            interrupts_exhausted("read")
        } else {
            e
        }
    })
}

/// Writes all of `buf`, absorbing short writes and up to
/// [`MAX_INTERRUPT_RETRIES`] consecutive `EINTR`s (the budget resets
/// whenever bytes move).
///
/// # Errors
///
/// The writer's first non-`Interrupted` error, [`io::ErrorKind::WriteZero`]
/// if the writer accepts nothing, or the interrupt-exhaustion error.
pub fn write_all<W: io::Write + ?Sized>(writer: &mut W, mut buf: &[u8]) -> io::Result<()> {
    let mut interrupts = 0usize;
    while !buf.is_empty() {
        match writer.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "writer accepted no bytes",
                ))
            }
            Ok(n) => {
                buf = &buf[n..];
                interrupts = 0;
            }
            Err(e) if is_interrupted(&e) => {
                if interrupts + 1 >= MAX_INTERRUPT_RETRIES {
                    return Err(interrupts_exhausted("write"));
                }
                backoff(interrupts);
                interrupts += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A `Read` adapter routing every `read` through the bounded `EINTR`
/// policy. Wrap the raw source *under* any buffering layer, so the
/// retry happens at the syscall boundary.
#[derive(Debug)]
pub struct RetryReader<R> {
    inner: R,
}

impl<R: Read> RetryReader<R> {
    /// Wraps a reader.
    pub fn new(inner: R) -> RetryReader<R> {
        RetryReader { inner }
    }

    /// Returns the wrapped reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for RetryReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read(&mut self.inner, buf)
    }
}

/// The `Write` twin of [`RetryReader`]: every write goes through
/// [`write_all`] (short writes and bounded `EINTR` bursts absorbed) and
/// `flush` through the same interrupt budget. Diagnostic sinks such as
/// the `--trace` writer wrap their raw target in this so a transient
/// fault never aborts — and a permanent one surfaces as a typed error
/// instead of a spin.
#[derive(Debug)]
pub struct RetryWriter<W> {
    inner: W,
}

impl<W: io::Write> RetryWriter<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> RetryWriter<W> {
        RetryWriter { inner }
    }

    /// Returns the wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> io::Write for RetryWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        write_all(&mut self.inner, buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        with_retries(MAX_INTERRUPT_RETRIES, is_interrupted, |_| {
            self.inner.flush()
        })
        .map_err(|e| {
            if is_interrupted(&e) {
                interrupts_exhausted("flush")
            } else {
                e
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Fails `fail` times with `kind`, then yields `data`.
    struct Flaky {
        fail: usize,
        kind: io::ErrorKind,
        data: Vec<u8>,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.fail > 0 {
                self.fail -= 1;
                return Err(io::Error::new(self.kind, "flaky"));
            }
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn with_retries_returns_first_success() {
        let mut calls = 0;
        let out = with_retries(
            5,
            |_| true,
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err(io::Error::other("not yet"))
                } else {
                    Ok(attempt)
                }
            },
        )
        .unwrap();
        assert_eq!(out, 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn with_retries_returns_the_final_error_on_exhaustion() {
        let mut calls = 0;
        let err = with_retries::<()>(
            4,
            |_| true,
            |attempt| {
                calls += 1;
                Err(io::Error::other(format!("attempt {attempt}")))
            },
        )
        .unwrap_err();
        assert_eq!(calls, 4);
        assert_eq!(err.to_string(), "attempt 3");
    }

    #[test]
    fn with_retries_stops_at_non_retryable_errors() {
        let mut calls = 0;
        let err = with_retries::<()>(10, is_interrupted, |_| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_absorbs_interrupts() {
        let mut flaky = Flaky {
            fail: 3,
            kind: io::ErrorKind::Interrupted,
            data: b"abc".to_vec(),
        };
        let mut buf = [0u8; 8];
        assert_eq!(read(&mut flaky, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
    }

    #[test]
    fn read_gives_up_after_the_interrupt_budget_without_surfacing_eintr() {
        let mut flaky = Flaky {
            fail: MAX_INTERRUPT_RETRIES + 10,
            kind: io::ErrorKind::Interrupted,
            data: b"abc".to_vec(),
        };
        let mut buf = [0u8; 8];
        let err = read(&mut flaky, &mut buf).unwrap_err();
        // Must NOT be Interrupted: upper retry loops treat that kind as
        // "try again forever".
        assert_ne!(err.kind(), io::ErrorKind::Interrupted);
        assert!(err.to_string().contains("interrupted"), "{err}");
    }

    /// Accepts one byte per call, with optional interrupts in between.
    struct Dribble {
        interrupt_every: usize,
        calls: usize,
        sink: Vec<u8>,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls.is_multiple_of(self.interrupt_every) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if let Some(&b) = buf.first() {
                self.sink.push(b);
                Ok(1)
            } else {
                Ok(0)
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_all_survives_short_writes_and_interrupts() {
        let mut w = Dribble {
            interrupt_every: 3,
            calls: 0,
            sink: Vec::new(),
        };
        write_all(&mut w, b"hello, streams").unwrap();
        assert_eq!(w.sink, b"hello, streams");
    }

    #[test]
    fn write_all_gives_up_on_a_permanent_interrupt_storm() {
        struct Storm;
        impl Write for Storm {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::Interrupted, "signal"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_all(&mut Storm, b"data").unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::Interrupted);
        assert!(err.to_string().contains("interrupted"), "{err}");
    }

    #[test]
    fn retry_writer_absorbs_dribbles_and_interrupts() {
        let w = Dribble {
            interrupt_every: 2,
            calls: 0,
            sink: Vec::new(),
        };
        let mut w = RetryWriter::new(w);
        w.write_all(b"trace line\n").unwrap();
        w.flush().unwrap();
        assert_eq!(w.into_inner().sink, b"trace line\n");
    }

    #[test]
    fn retry_reader_is_transparent_over_a_clean_source() {
        let mut r = RetryReader::new(&b"0X1\n10X\n"[..]);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "0X1\n10X\n");
    }
}
