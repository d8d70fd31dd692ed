//! The benchmark's four workloads, why each was chosen, and the seeded
//! set-up that writes their inputs.
//!
//! Every input comes from the sparse-care generator of
//! `examples/gen_patterns.rs`: each cube is all `X` except a handful of
//! randomly placed care bits, the profile of industrial ATPG cube
//! dumps. The seed is the benchmark's `--seed`; the program under test
//! only ever sees the generated files.
//!
//! | workload | shape | flags | the layer metric it should move |
//! |----------|-------|-------|---------------------------------|
//! | `wide-mono` | 16384 × 2048, 4 cares | `--fill dp` | `format.emit_s`, `format.parse_s`, `ordering.order_s` → `run_s` |
//! | `wide-stream` | same input | `--fill dp --window 512` | `stream.pass1_s`/`pass2_s`, `stream.read_mb` → `run_s`; `stream.resident_peak_cubes` → `peak_rss_mb` |
//! | `tall-unit` | 524288 × 16, 3 cares | `--fill dp --order keep` | `mapping.*`, `bcp.solve_s` (unit path), `score.peak_s` → `run_s`, `peak_rss_mb` |
//! | `tall-weighted` | same input | `... --objective weighted --weights W` | `bcp.solve_s` (weighted path) → `run_s` |
//!
//! Each [`Workload`]'s docs say why it was chosen and which change it
//! is meant to expose; the paired workload on the same input is the
//! one where that change should show *no* difference.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use dpfill_core::ordering::OrderingMethod;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How many cubes, how wide, and how many care bits per cube.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub cubes: usize,
    pub width: usize,
    pub cares: usize,
}

/// Which of the two `dpfill-xfill` pipelines a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Pipeline {
    /// Whole-set parse → order → fill → score → emit. `None` is
    /// `--order keep`.
    Monolithic { order: Option<OrderingMethod> },
    /// `--window CUBES` with the default banded interleave order.
    Streaming { window: usize },
}

/// One benchmark workload: an input shape plus the `dpfill-xfill` flags
/// it is filled with.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The measured size.
    pub full: Shape,
    /// The reduced size the self-test runs every check on.
    pub reduced: Shape,
    pub pipeline: Pipeline,
    /// `--objective weighted` with a seeded per-pin weight table.
    pub weighted: bool,
}

/// The wide shape: ROADMAP's reference row (~33.5 MB of text, 99.8% X).
const WIDE: Shape = Shape {
    cubes: 16384,
    width: 2048,
    cares: 4,
};

/// The tall shape: 524288 transitions and ~608k BCP intervals.
const TALL: Shape = Shape {
    cubes: 524288,
    width: 16,
    cares: 3,
};

/// Larger than the streaming ring (band 2 × window 512), so the
/// reduced `wide-stream` still reorders banded.
const WIDE_REDUCED: Shape = Shape {
    cubes: 2500,
    width: 128,
    cares: 4,
};

const TALL_REDUCED: Shape = Shape {
    cubes: 6000,
    width: 16,
    cares: 3,
};

/// `wide-mono` — the industrial shape, monolithic, `--fill dp` with the
/// default interleave order. Pattern text I/O dominates it (emit,
/// parse and the I-ordering each cost several times the BCP solve), so
/// an emit or parse change must move `run_s` here through
/// `format.emit_s`/`format.parse_s`, and a solver change must not.
pub const WIDE_MONO: Workload = Workload {
    name: "wide-mono",
    full: WIDE,
    reduced: WIDE_REDUCED,
    pipeline: Pipeline::Monolithic {
        order: Some(OrderingMethod::Interleaved),
    },
    weighted: false,
};

/// `wide-stream` — the same input through the bounded-memory pipeline
/// (`--window 512`, banded interleave order). It reads the input twice
/// in a fraction of the monolithic memory, so a single-pass or
/// parse-skip change shows in `stream.input_passes`/`stream.read_mb`
/// and `run_s`, and any memory a change costs shows in
/// `stream.resident_peak_cubes` and `peak_rss_mb`.
pub const WIDE_STREAM: Workload = Workload {
    name: "wide-stream",
    full: WIDE,
    reduced: WIDE_REDUCED,
    pipeline: Pipeline::Streaming { window: 512 },
    weighted: false,
};

/// `tall-unit` — the paper's Algorithms 1–2 at scale: `--order keep`,
/// so the matrix mapping, the unit BCP solve and the scoring sweeps
/// dominate (`mapping.*`, `bcp.solve_s`, `score.peak_s`). Text I/O is
/// small here, so an emit change should leave `run_s` unchanged.
pub const TALL_UNIT: Workload = Workload {
    name: "tall-unit",
    full: TALL,
    reduced: TALL_REDUCED,
    pipeline: Pipeline::Monolithic { order: None },
    weighted: false,
};

/// `tall-weighted` — the same input under `--objective weighted` with a
/// seeded 16-pin table (a permutation of the weights 1–16). The `bcp`
/// layer runs its weighted path (fractional bound, galloping probes,
/// weighted EDF), so merging the unit and weighted solvers must hold
/// `bcp.solve_s` and `run_s` on both `tall-*` rows.
pub const TALL_WEIGHTED: Workload = Workload {
    name: "tall-weighted",
    full: TALL,
    reduced: TALL_REDUCED,
    pipeline: Pipeline::Monolithic { order: None },
    weighted: true,
};

pub const ALL: [Workload; 4] = [WIDE_MONO, WIDE_STREAM, TALL_UNIT, TALL_WEIGHTED];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn order(&self) -> Option<OrderingMethod> {
        match self.pipeline {
            Pipeline::Monolithic { order } => order,
            // The streaming default: banded interleave.
            Pipeline::Streaming { .. } => Some(OrderingMethod::Interleaved),
        }
    }

    /// The header comment `dpfill-xfill` writes above its output.
    pub fn header(&self) -> String {
        format!(
            "filled by dpfill-xfill: {} / DP-fill",
            self.order().map_or("keep", |o| o.label())
        )
    }

    /// The `dpfill-xfill` flags this workload stands for (input and
    /// output paths excluded).
    pub fn cli_flags(&self, weights: Option<&Path>) -> Vec<String> {
        let mut flags = vec!["--fill".to_owned(), "dp".to_owned()];
        match self.pipeline {
            Pipeline::Monolithic { order: None } => flags.extend(["--order".into(), "keep".into()]),
            Pipeline::Monolithic { order: Some(_) } => {}
            Pipeline::Streaming { window } => flags.extend(["--window".into(), window.to_string()]),
        }
        if let Some(path) = weights {
            flags.extend([
                "--objective".into(),
                "weighted".into(),
                "--weights".into(),
                path.display().to_string(),
            ]);
        }
        flags
    }
}

/// The files one set-up writes.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub patterns: PathBuf,
    pub weights: Option<PathBuf>,
}

/// Generates and writes the workload's pattern file (and weight table)
/// into `dir`, exactly as `examples/gen_patterns.rs` would for the same
/// shape and seed.
pub fn write_inputs(w: &Workload, shape: Shape, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let patterns = dir.join("input.pat");
    write_patterns(shape, seed, &patterns)?;
    let weights = if w.weighted {
        let path = dir.join("weights.txt");
        write_weights(shape.width, seed, &path)?;
        Some(path)
    } else {
        None
    };
    Ok(Inputs { patterns, weights })
}

fn write_patterns(shape: Shape, seed: u64, path: &Path) -> std::io::Result<()> {
    let Shape {
        cubes,
        width,
        cares,
    } = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(
        out,
        "# {cubes} cubes x {width} pins, ~{cares} care bits each (seed {seed})"
    )?;
    let mut row = vec![b'X'; width + 1];
    row[width] = b'\n';
    let mut touched: Vec<usize> = Vec::with_capacity(cares);
    for _ in 0..cubes {
        touched.clear();
        for _ in 0..cares {
            let pin = rng.next_u64() as usize % width;
            row[pin] = if rng.next_u64() & 1 == 0 { b'0' } else { b'1' };
            touched.push(pin);
        }
        out.write_all(&row)?;
        for &pin in &touched {
            row[pin] = b'X';
        }
    }
    out.flush()
}

/// One weight per pin: a seeded permutation of `1..=width`, so every
/// seed charges the same multiset of weights to different pins.
fn write_weights(width: usize, seed: u64, path: &Path) -> std::io::Result<()> {
    let mut weights: Vec<usize> = (1..=width).collect();
    weights.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15));
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "# {width} pin weights (seed {seed})")?;
    for w in weights {
        writeln!(out, "{w}")?;
    }
    out.flush()
}
