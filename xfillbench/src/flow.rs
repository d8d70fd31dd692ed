//! One fill run: the flow `dpfill-xfill` runs, through the library's
//! public functions — parse → order → fill → score → emit, scored as
//! `--stats-json` scores it.
//!
//! An untraced run calls exactly what the CLI calls (`DpFill::try_run`
//! for the fill, `StreamingFill::run` for `--window`). A traced run
//! times every call into a layer from here; for the monolithic fill it
//! makes `DpFill::try_run`'s public calls itself — analyze, solve,
//! preference shift, apply, score — so each layer gets its own span.
//! The output check then shows both runs wrote the same bytes.
//!
//! The timed runs write the filled patterns to a buffer in memory, not
//! a file: the formatting is the program's work, while writing dirty
//! pages back to a shared disk is the host's, and its stalls would
//! swamp the timing. The fresh process behind `peak_rss_mb` writes a
//! file through a `BufWriter`, as `dpfill-xfill --output` does.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::time::Instant;

use dpfill_core::bcp::{BcpError, BcpSolution, SolveOptions};
use dpfill_core::fill::{DpFill, FillMethod};
use dpfill_core::ordering::{BandedMethod, OrderingMethod};
use dpfill_core::stream::{BandedOrder, StreamOptions, StreamReport, StreamingFill, WindowSpec};
use dpfill_core::{FillObjective, MatrixMapping, WeightTable};
use dpfill_cubes::{format, peak_toggles, weighted_peak_toggles, CubeSet};

use crate::trace::Tracer;
use crate::workload::{Inputs, Pipeline, Workload};

/// What one run produced, besides the output bytes.
pub struct Run {
    /// The fill's reported peak toggles.
    pub peak_toggles: u64,
    /// The fill's reported peak in objective units.
    pub objective_peak: u64,
    /// Monolithic only: the scoring step's peaks (unit, and weighted
    /// when the objective has weights).
    pub scored: Option<(u64, Option<u64>)>,
    /// Monolithic only: the certified lower bound.
    pub lower_bound: Option<u64>,
    /// Monolithic only: the input in the order the fill saw it.
    pub ordered: Option<CubeSet>,
    /// Streaming only: the pipeline's report.
    pub stream: Option<StreamReport>,
    /// Layer counts; only a traced run fills them in.
    pub counts: Counts,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub intervals: usize,
    pub colors: usize,
    pub input_passes: usize,
    pub read_bytes: u64,
    pub sink_write_ns: u64,
}

/// Runs the workload once, reading `inputs` and writing the filled
/// patterns to `out`. With an enabled tracer, the run is one root span
/// named `run` holding a span per layer call.
pub fn run<W: Write>(
    w: &Workload,
    inputs: &Inputs,
    out: &mut W,
    tr: &mut Tracer,
) -> Result<Run, String> {
    tr.begin_run();
    tr.span("run", |tr| match w.pipeline {
        Pipeline::Monolithic { order } => monolithic(w, order, inputs, out, tr),
        Pipeline::Streaming { window } => streaming(w, window, inputs, out, tr),
    })
}

/// The fill objective the CLI builds from `--objective`/`--weights`.
fn objective(inputs: &Inputs) -> Result<FillObjective, String> {
    match &inputs.weights {
        None => Ok(FillObjective::peak_toggles()),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            let table = WeightTable::parse(&text).map_err(|e| format!("weights: {e}"))?;
            Ok(FillObjective::weighted(table))
        }
    }
}

/// The DP fill's result, from either path; only the traced path
/// fills in `counts`.
struct Fill {
    filled: CubeSet,
    peak: u64,
    objective_peak: u64,
    lower_bound: u64,
    counts: Counts,
}

fn monolithic<W: Write>(
    w: &Workload,
    order: Option<OrderingMethod>,
    inputs: &Inputs,
    out: &mut W,
    tr: &mut Tracer,
) -> Result<Run, String> {
    let cubes = tr.span("format.parse", |_| {
        let file = File::open(&inputs.patterns)
            .map_err(|e| format!("cannot open {}: {e}", inputs.patterns.display()))?;
        format::read_patterns(file).map_err(|e| format!("parse: {e}"))
    })?;
    if cubes.is_empty() {
        return Err("no patterns in input".to_owned());
    }
    let ordered = match order {
        None => cubes.clone(),
        Some(method) => tr.span("ordering.order", |_| {
            let order = method.order(&cubes).map_err(|e| format!("order: {e}"))?;
            cubes.reordered(&order).map_err(|e| format!("reorder: {e}"))
        })?,
    };
    let objective = objective(inputs)?;
    objective
        .check_width(ordered.width())
        .map_err(|e| format!("weights: {e}"))?;
    let fill = if tr.enabled() {
        dp_by_layer(&ordered, &objective, tr)
    } else {
        dp_whole(&ordered, &objective)
    }?;

    // Scored as `--stats-json` scores it: the 0-filled input as the
    // baseline, then the filled set, then its weighted peak.
    let score_err = |e: dpfill_cubes::CubeError| format!("score: {e}");
    tr.span("score.peak", |_| {
        peak_toggles(&FillMethod::Zero.fill(&cubes))
    })
    .map_err(score_err)?;
    let peak = tr
        .span("score.peak", |_| peak_toggles(&fill.filled))
        .map_err(score_err)? as u64;
    let weighted = match objective.weights() {
        Some(weights) => Some(
            tr.span("score.peak", |_| {
                weighted_peak_toggles(&fill.filled, weights)
            })
            .map_err(score_err)?,
        ),
        None => None,
    };

    tr.span("format.emit", |_| {
        format::write_patterns(out, &fill.filled, Some(&w.header()))
    })
    .map_err(|e| format!("emit: {e}"))?;

    Ok(Run {
        peak_toggles: fill.peak,
        objective_peak: fill.objective_peak,
        scored: Some((peak, weighted)),
        lower_bound: Some(fill.lower_bound),
        ordered: Some(ordered),
        stream: None,
        counts: fill.counts,
    })
}

/// `FillMethod::Dp` as the CLI runs it.
fn dp_whole(ordered: &CubeSet, objective: &FillObjective) -> Result<Fill, String> {
    let report = DpFill::new()
        .with_objective(objective.clone())
        .try_run(ordered)
        .map_err(|e| e.to_string())?;
    Ok(Fill {
        peak: report.peak,
        objective_peak: report.objective_peak,
        lower_bound: report.lower_bound,
        counts: Counts::default(),
        filled: report.filled,
    })
}

/// `DpFill::try_run` made of its public calls, one span per layer.
fn dp_by_layer(
    ordered: &CubeSet,
    objective: &FillObjective,
    tr: &mut Tracer,
) -> Result<Fill, String> {
    let mapping = tr
        .span("mapping.analyze", |_| {
            MatrixMapping::analyze_with(ordered, objective)
        })
        .map_err(|e| format!("analyze: {e}"))?;
    let instance = mapping.instance();
    let solution = tr
        .span("bcp.solve", |_| -> Result<BcpSolution, BcpError> {
            let mut solution = instance.solve_with(&SolveOptions::from_env())?;
            if !mapping.desire().is_empty() {
                let shifted = instance.shift_within_slack(
                    &solution.coloring,
                    mapping.desire(),
                    solution.peak.with_baseline,
                )?;
                solution.peak = instance.verify(&shifted)?;
                solution.coloring = shifted;
            }
            Ok(solution)
        })
        .map_err(|e| format!("solve: {e}"))?;
    let filled = tr.span("mapping.apply", |_| {
        mapping.apply_coloring(&solution.coloring)
    });
    let objective_peak = solution.peak.with_baseline;
    let peak = if objective.is_unit() {
        objective_peak
    } else {
        tr.span("score.peak", |_| {
            peak_toggles(&filled).map_or(0, |p| p as u64)
        })
    };
    Ok(Fill {
        filled,
        peak,
        objective_peak,
        lower_bound: solution.lower_bound,
        counts: Counts {
            intervals: instance.intervals().len(),
            colors: instance.num_colors(),
            ..Counts::default()
        },
    })
}

fn streaming<W: Write>(
    w: &Workload,
    window: usize,
    inputs: &Inputs,
    out: &mut W,
    tr: &mut Tracer,
) -> Result<Run, String> {
    let driver = StreamingFill::new(StreamOptions {
        window: WindowSpec::Cubes(window),
        fill: FillMethod::Dp,
        order: Some(BandedOrder::new(BandedMethod::Interleave)),
        header: Some(w.header()),
        objective: objective(inputs)?,
        ..StreamOptions::default()
    });
    let stream_err = |e| format!("{}: {e}", inputs.patterns.display());
    if !tr.enabled() {
        let report = driver.run_path(&inputs.patterns, out).map_err(stream_err)?;
        return Ok(streamed(report, Counts::default()));
    }

    let log = Rc::new(RefCell::new(ReadLog::default()));
    let mut sink = TimedWriter { inner: out, ns: 0 };
    let epoch = tr.epoch();
    let report = tr.span("stream.run", |tr| {
        let report = driver.run(
            || {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                log.borrow_mut().passes.push((start_ns, None));
                File::open(&inputs.patterns).map(|inner| CountingReader {
                    inner,
                    log: Rc::clone(&log),
                    epoch,
                })
            },
            &mut sink,
        );
        for &(start, end) in &log.borrow().passes {
            tr.record("stream.input_pass", start, end.unwrap_or(start));
        }
        report.map_err(stream_err)
    })?;
    let log = log.borrow();
    Ok(streamed(
        report,
        Counts {
            input_passes: log.passes.len(),
            read_bytes: log.bytes,
            sink_write_ns: sink.ns,
            ..Counts::default()
        },
    ))
}

fn streamed(report: StreamReport, counts: Counts) -> Run {
    Run {
        peak_toggles: report.peak_toggles as u64,
        objective_peak: report.objective_peak,
        scored: None,
        lower_bound: None,
        ordered: None,
        stream: Some(report),
        counts,
    }
}

/// Bytes read over all input passes, and each pass's open → EOF
/// interval (in tracer nanoseconds).
#[derive(Default)]
struct ReadLog {
    bytes: u64,
    passes: Vec<(u64, Option<u64>)>,
}

/// The reader handed to `StreamingFill::run`'s `open` closure: counts
/// bytes and closes its pass's interval at EOF (or when dropped early).
struct CountingReader<R> {
    inner: R,
    log: Rc<RefCell<ReadLog>>,
    epoch: Instant,
}

impl<R> CountingReader<R> {
    fn close_pass(&self) {
        let mut log = self.log.borrow_mut();
        if let Some((_, end @ None)) = log.passes.last_mut() {
            *end = Some(self.epoch.elapsed().as_nanos() as u64);
        }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.log.borrow_mut().bytes += n as u64;
        if n == 0 && !buf.is_empty() {
            self.close_pass();
        }
        Ok(n)
    }
}

impl<R> Drop for CountingReader<R> {
    fn drop(&mut self) {
        self.close_pass();
    }
}

/// The streaming sink, timing every call the pipeline makes into it.
struct TimedWriter<W> {
    inner: W,
    ns: u64,
}

impl<W: Write> TimedWriter<W> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut W) -> T) -> T {
        let start = Instant::now();
        let value = f(&mut self.inner);
        self.ns += start.elapsed().as_nanos() as u64;
        value
    }
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.timed(|w| w.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.timed(Write::flush)
    }
}
