//! `xfillbench` — the end-to-end benchmark of `dpfill-xfill`.
//!
//! For one workload (see [`workload`]) it writes a seeded input, then
//! runs the CLI's fill flow through the library, one run at a time, on
//! a pool fixed at one thread per core:
//!
//! ```text
//! bash xfillbench/run.sh --workload wide-mono --seed 1 --seconds 10 --trace 0
//! bash xfillbench/run.sh --workload all --seed 1 --seconds 10   # every workload, both modes
//! bash xfillbench/run.sh --self-test                            # reduced sizes, every check
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced runs:
//! `run_s` (median wall time of one run), `peak_rss_mb` (`VmHWM` of a
//! fresh process doing one run), `setup_s` (median time to generate
//! and write the inputs) and `objective_peak` (the fill's quality: the
//! peak of what the fill minimizes, in the objective's fixed-point
//! units — the paper's peak toggle count on the unit workloads).
//! `--trace 1` alternates untraced runs with traced ones and reports
//! the per-layer metrics, each the median over the traced runs, plus
//! `other_s` and `trace.overhead`; the spans are written to
//! `.bench_work/spans/`. `peak_toggles`, the unit peak, is reported
//! there with the scoring layer: on `tall-weighted` it is a by-product
//! the fill does not minimize, and it changes from seed to seed.
//!
//! Every run's output is checked (see [`check`]) and a failed run
//! contributes no time; `fail_rate` (failed / attempted runs) is
//! printed with the checks' verdict. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod flow;
mod trace;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use dpfill_core::WeightTable;
use dpfill_cubes::{format, popcount, CubeSet};

use crate::trace::Tracer;
use crate::workload::{Inputs, Shape, Workload};

/// Environment knobs that change which engine the program runs; a
/// measurement taken under any of them is not the default program's.
const PINNED_ENV: [&str; 4] = [
    "DPFILL_CHAOS",
    "DPFILL_SIMD",
    "DPFILL_BCP_BOUND",
    "DPFILL_BCP_SHARD",
];

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 9;

/// Fresh processes per invocation whose `VmHWM` gives `peak_rss_mb`.
const RSS_PROBES: usize = 3;

/// Where inputs, outputs and span files go, relative to the directory
/// the benchmark runs in.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `dpfill-xfill`, for the parity check.
    cli: Option<PathBuf>,
    rustc: String,
    commit: String,
    self_test: bool,
    /// Internal: the fresh process behind `peak_rss_mb`.
    rss_probe: Option<ProbeArgs>,
}

struct ProbeArgs {
    input: PathBuf,
    weights: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: None,
        rustc: "unknown".to_owned(),
        commit: "unknown".to_owned(),
        self_test: false,
        rss_probe: None,
    };
    let mut probe_input = None;
    let mut probe_weights = None;
    let mut probe_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                }
            }
            "--cli" => args.cli = Some(PathBuf::from(value()?)),
            "--rustc" => args.rustc = value()?,
            "--commit" => args.commit = value()?,
            "--self-test" => args.self_test = true,
            "--rss-probe" => probe_out = Some(PathBuf::from(value()?)),
            "--input" => probe_input = Some(PathBuf::from(value()?)),
            "--weights" => probe_weights = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(out) = probe_out {
        let input = probe_input.ok_or("--rss-probe needs --input")?;
        args.rss_probe = Some(ProbeArgs {
            input,
            weights: probe_weights,
            out,
        });
    }
    if args.workload.is_empty() && !args.self_test {
        return Err(
            "usage: xfillbench --workload NAME|all --seed N --seconds S --trace 0|1 \
                    [--cli PATH] | --self-test"
                .to_owned(),
        );
    }
    Ok(args)
}

/// Refuses a non-default engine selection, then fixes the pool at one
/// thread per core. Returns the thread count.
fn pin_environment() -> Result<usize, String> {
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it to measure the default program"
            ));
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    minipool::set_global_threads(threads)
        .map_err(|built| format!("thread pool already running with {built} threads"))?;
    Ok(threads)
}

/// The host a result was measured on, as one JSON object.
fn host_json(threads: usize, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let simd: Vec<String> = simd_features().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {threads}, \"simd\": [{}], \
         \"popcount_kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        simd.join(", "),
        popcount::active_kernel().label(),
        args.rustc.replace('"', "'"),
        args.commit.replace('"', "'"),
    )
}

fn simd_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!(
            "popcnt",
            "sse4.2",
            "avx2",
            "bmi2",
            "avx512f",
            "avx512bw",
            "avx512vpopcntdq"
        );
        found
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// A per-invocation scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let path = Path::new(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// One named, unit-carrying value in a result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything one measurement produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Why runs failed, first failure first.
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Timed samples behind the medians.
    samples: usize,
    digest: u64,
    spans: Option<Tracer>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Switches for the parts of a measurement that need the built
/// binaries around it.
struct Harness<'a> {
    cli: Option<&'a Path>,
    /// Spawn fresh processes of this binary for `peak_rss_mb`.
    rss_probe: bool,
}

/// Counts attempts and failures; a failed run's time is never used.
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The fixed-point weights the objective charges, for re-scoring.
fn objective_weights(inputs: &Inputs) -> Result<Option<Vec<u64>>, String> {
    let Some(path) = &inputs.weights else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("weights: {e}"))?;
    let table = WeightTable::parse(&text).map_err(|e| format!("weights: {e}"))?;
    Ok(Some(table.weights().to_vec()))
}

/// Checked runs of one workload; every run must write the first run's
/// bytes.
struct Runner<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    /// The last run's output bytes.
    out: Vec<u8>,
    input: CubeSet,
    weights: Option<Vec<u64>>,
    reference: Option<Vec<u8>>,
}

impl Runner<'_> {
    /// One run, checked. Returns the run, its wall seconds (timing only
    /// the run itself) and nothing if any check failed.
    fn run(&mut self, tr: &mut Tracer) -> Result<(flow::Run, f64), String> {
        self.out.clear();
        let start = Instant::now();
        let run = flow::run(self.w, self.inputs, &mut self.out, tr)?;
        let secs = start.elapsed().as_secs_f64();
        check::output(&run, &self.out, &self.input, self.weights.as_deref())?;
        match &self.reference {
            None => self.reference = Some(self.out.clone()),
            Some(first) if *first != self.out => {
                return Err(format!(
                    "output (digest {:016x}) differs from the first run's (digest {:016x}){}",
                    check::digest(&self.out),
                    check::digest(first),
                    if tr.enabled() { " in a traced run" } else { "" }
                ))
            }
            Some(_) => {}
        }
        Ok((run, secs))
    }
}

/// Runs `dpfill-xfill` with the workload's flags; it must write the
/// `reference` bytes.
fn cli_parity(
    cli: &Path,
    w: &Workload,
    inputs: &Inputs,
    out: &Path,
    threads: usize,
    reference: &[u8],
) -> Result<(), String> {
    let status = Command::new(cli)
        .arg(&inputs.patterns)
        .args(w.cli_flags(inputs.weights.as_deref()))
        .args(["--threads", &threads.to_string(), "--output"])
        .arg(out)
        .status()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    if !status.success() {
        return Err(format!("dpfill-xfill exited with {status}"));
    }
    same_bytes("dpfill-xfill", out, reference)
}

/// Compares a file another process wrote with the reference output.
fn same_bytes(writer: &str, path: &Path, reference: &[u8]) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if bytes != reference {
        return Err(format!(
            "{writer} wrote digest {:016x}, the library flow {:016x}",
            check::digest(&bytes),
            check::digest(reference)
        ));
    }
    Ok(())
}

/// One untraced run in a fresh process; returns its `VmHWM` in MB.
fn rss_probe(w: &Workload, inputs: &Inputs, out: &Path, reference: &[u8]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--input"])
        .arg(&inputs.patterns)
        .arg("--rss-probe")
        .arg(out);
    if let Some(weights) = &inputs.weights {
        cmd.arg("--weights").arg(weights);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot spawn probe: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "probe exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("vmhwm_kb "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("probe printed no vmhwm_kb: {text:?}"))?;
    same_bytes("the probe", out, reference)?;
    Ok(kb / 1024.0)
}

/// The probe process's side: one untraced run, then `VmHWM`.
fn probe_main(w: &Workload, probe: &ProbeArgs) -> Result<(), String> {
    let inputs = Inputs {
        patterns: probe.input.clone(),
        weights: probe.weights.clone(),
    };
    let write_err = |e: std::io::Error| format!("cannot write {}: {e}", probe.out.display());
    let mut out = BufWriter::new(File::create(&probe.out).map_err(write_err)?);
    flow::run(w, &inputs, &mut out, &mut Tracer::off())?;
    out.flush().map_err(write_err)?;
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    println!("vmhwm_kb {kb}");
    Ok(())
}

/// Waits until the files the set-up and the out-of-process runs wrote
/// are on disk, so their write-back does not stall the timed runs.
fn settle(files: &[&Path]) -> Result<(), String> {
    for path in files {
        if path.exists() {
            File::open(path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("cannot sync {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Measures one workload: set-up, a checked warm-up run, the
/// `dpfill-xfill` parity run, then `seconds` of checked timed runs —
/// untraced for the end-to-end metrics, or alternating untraced and
/// traced for the per-layer metrics.
fn measure(
    w: &Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    harness: &Harness,
) -> Result<Outcome, String> {
    let dir = WorkDir::create(w.name)?;
    let mut setup = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let written =
            workload::write_inputs(w, shape, seed, &dir.0).map_err(|e| format!("set-up: {e}"))?;
        setup.push(start.elapsed().as_secs_f64());
        inputs = Some(written);
    }
    let inputs = inputs.expect("SETUPS is at least one");
    let setup_s = median(&mut setup);
    let input_bytes = std::fs::metadata(&inputs.patterns)
        .map_err(|e| format!("set-up: {e}"))?
        .len();
    let input = File::open(&inputs.patterns)
        .map_err(|e| e.to_string())
        .and_then(|f| format::read_patterns(f).map_err(|e| e.to_string()))
        .map_err(|e| format!("set-up: input does not parse: {e}"))?;

    let mut runner = Runner {
        w,
        inputs: &inputs,
        out: Vec::new(),
        input,
        weights: objective_weights(&inputs)?,
        reference: None,
    };
    let mut tally = Tally {
        attempted: 0,
        failures: Vec::new(),
    };
    let mut untraced = Tracer::off();
    let warm = tally.record("warm-up run", runner.run(&mut untraced));
    let Some(reference) = runner.reference.clone() else {
        // Nothing to compare against: report the failure alone.
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failures.len() as u64,
            failures: tally.failures,
            metrics: Vec::new(),
            samples: 0,
            digest: 0,
            spans: None,
        });
    };
    let cli_out = dir.0.join("cli.pat");
    if let Some(cli) = harness.cli {
        let parity = cli_parity(cli, w, &inputs, &cli_out, threads, &reference);
        tally.record("dpfill-xfill parity", parity);
    }

    let mut metrics = Vec::new();
    if !traced && harness.rss_probe {
        let mut rss = Vec::new();
        for _ in 0..RSS_PROBES {
            let probe = rss_probe(w, &inputs, &cli_out, &reference);
            if let Some(mb) = tally.record("peak-RSS probe", probe) {
                rss.push(mb);
            }
        }
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: median(&mut rss),
            unit: "MB",
        });
    }
    settle(&[&inputs.patterns, &cli_out])?;
    let (samples, spans) = if traced {
        let (layers, samples, tracer) = time_layers(&mut runner, &mut tally, seconds, input_bytes);
        metrics.extend(layers);
        (samples, Some(tracer))
    } else {
        let mut times = Vec::new();
        let start = Instant::now();
        loop {
            if let Some((_, secs)) = tally.record("timed run", runner.run(&mut untraced)) {
                times.push(secs);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let run_s = Metric {
            name: "run_s",
            value: median(&mut times),
            unit: "s",
        };
        metrics.insert(0, run_s);
        metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        });
        if let Some((run, _)) = &warm {
            metrics.push(Metric {
                name: "objective_peak",
                value: run.objective_peak as f64,
                unit: "units",
            });
        }
        (times.len(), None)
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failures.len() as u64,
        failures: tally.failures,
        metrics,
        samples,
        digest: check::digest(&reference),
        spans,
    })
}

/// Alternates untraced and traced runs for `seconds`. Returns the
/// per-layer metrics (medians over the traced runs, then
/// `trace.overhead` from both kinds), the traced sample count and the
/// spans.
fn time_layers(
    runner: &mut Runner,
    tally: &mut Tally,
    seconds: f64,
    input_bytes: u64,
) -> (Vec<Metric>, usize, Tracer) {
    let mut tracer = Tracer::on();
    let mut untraced = Tracer::off();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut layered: Vec<Vec<Metric>> = Vec::new();
    let start = Instant::now();
    loop {
        if let Some((_, secs)) = tally.record("untraced run", runner.run(&mut untraced)) {
            plain.push(secs);
        }
        if let Some((run, secs)) = tally.record("traced run", runner.run(&mut tracer)) {
            traced.push(secs);
            let out_bytes = runner.out.len() as u64;
            layered.push(layer_metrics(&run, &tracer, input_bytes, out_bytes));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut metrics = Vec::new();
    if let Some(first) = layered.first() {
        for (k, m) in first.iter().enumerate() {
            let mut values: Vec<f64> = layered.iter().map(|ms| ms[k].value).collect();
            metrics.push(Metric {
                value: median(&mut values),
                ..*m
            });
        }
        let plain_s = median(&mut plain);
        metrics.push(Metric {
            name: "trace.overhead",
            value: if plain_s > 0.0 {
                median(&mut traced) / plain_s - 1.0
            } else {
                0.0
            },
            unit: "ratio",
        });
    }
    (metrics, layered.len(), tracer)
}

/// The per-layer metrics of the tracer's current (just finished) run,
/// always in the same order and with every name present; layers the
/// workload does not call read 0.
fn layer_metrics(run: &flow::Run, tr: &Tracer, input_bytes: u64, out_bytes: u64) -> Vec<Metric> {
    let spans: Vec<_> = tr.run_spans().collect();
    let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
        return Vec::new();
    };
    let wall = root.secs();
    let layer = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(root.id))
            .fold(0.0, |sum, s| sum + s.secs())
    };
    let rate = |bytes: u64, secs: f64| {
        if secs > 0.0 {
            bytes as f64 / 1e6 / secs
        } else {
            0.0
        }
    };
    let parse = layer("format.parse");
    let emit = layer("format.emit");
    let counts = run.counts;
    let stream = run.stream.as_ref();
    let ns = |f: fn(&dpfill_core::StreamReport) -> u64| stream.map_or(0.0, |r| f(r) as f64 * 1e-9);
    let (pass1, solve, pass2) = (ns(|r| r.pass1_ns), ns(|r| r.solve_ns), ns(|r| r.pass2_ns));
    // Monolithic: every layer call is a direct child of the run span.
    // Streaming: the one `StreamingFill::run` call splits into the
    // phases its report measures. What is left is `other_s`: on the
    // monolithic pipeline the `--order keep` copy, the weight-table load
    // and freeing the run's cube sets, as `dpfill-xfill` pays them too.
    let accounted = if stream.is_some() {
        pass1 + solve + pass2
    } else {
        spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .fold(0.0, |sum, s| sum + s.secs())
    };
    let lower_bound = run.lower_bound.unwrap_or(0);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("format.parse_s", parse, "s"),
        m("format.parse_mb_s", rate(input_bytes, parse), "MB/s"),
        m("ordering.order_s", layer("ordering.order"), "s"),
        m("mapping.analyze_s", layer("mapping.analyze"), "s"),
        m("mapping.apply_s", layer("mapping.apply"), "s"),
        m("mapping.intervals", counts.intervals as f64, "count"),
        m("bcp.solve_s", layer("bcp.solve"), "s"),
        m("bcp.colors", counts.colors as f64, "count"),
        m("bcp.lower_bound", lower_bound as f64, "units"),
        m(
            "bcp.bound_gap",
            run.lower_bound
                .map_or(0, |lb| run.objective_peak.saturating_sub(lb)) as f64,
            "units",
        ),
        m("score.peak_s", layer("score.peak"), "s"),
        m("peak_toggles", run.peak_toggles as f64, "toggles"),
        m("format.emit_s", emit, "s"),
        m("format.emit_mb_s", rate(out_bytes, emit), "MB/s"),
        m("stream.pass1_s", pass1, "s"),
        m("stream.solve_s", solve, "s"),
        m("stream.pass2_s", pass2, "s"),
        m("stream.input_passes", counts.input_passes as f64, "count"),
        m("stream.read_mb", counts.read_bytes as f64 / 1e6, "MB"),
        m(
            "stream.sink_write_s",
            counts.sink_write_ns as f64 * 1e-9,
            "s",
        ),
        m(
            "stream.windows",
            stream.map_or(0, |r| r.windows) as f64,
            "count",
        ),
        m(
            "stream.resident_peak_cubes",
            stream.map_or(0, |r| r.resident_peak_cubes) as f64,
            "count",
        ),
        m(
            "stream.degradations",
            stream.map_or(0, |r| r.degradations.len()) as f64,
            "count",
        ),
        m("other_s", wall - accounted, "s"),
    ]
}

/// Prints an outcome for people, then returns its metrics as JSON
/// members, prefixed with `prefix`.
fn report(label: &str, host: &str, o: &Outcome, prefix: &str) -> Vec<String> {
    println!("# {label}");
    println!("host: {host}");
    for m in &o.metrics {
        println!(
            "  {:<28} {:>16.6} {}",
            format!("{prefix}{}", m.name),
            m.value,
            m.unit
        );
    }
    let fail_rate = if o.attempted > 0 {
        o.failed as f64 / o.attempted as f64
    } else {
        0.0
    };
    println!(
        "  checks: {} — {} runs attempted, {} failed (fail_rate {fail_rate}), {} timed samples, \
         output digest {:016x}",
        if o.correct() { "ok" } else { "FAILED" },
        o.attempted,
        o.failed,
        o.samples,
        o.digest
    );
    for f in &o.failures {
        println!("  failure: {f}");
    }
    o.metrics
        .iter()
        .map(|m| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect()
}

fn write_spans(name: &str, seed: u64, host: &str, tracer: &Tracer) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_ROOT).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-seed{seed}.jsonl"));
    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(&path)?);
        writeln!(out, "{{\"host\": {host}}}")?;
        tracer.write_jsonl(&mut out)?;
        out.flush()
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs all four workloads at their reduced sizes, traced and
/// untraced, through every check.
fn self_test(threads: usize, harness: &Harness) -> Result<(), String> {
    for w in workload::ALL {
        for traced in [false, true] {
            let o = measure(&w, w.reduced, 7, 0.0, traced, threads, harness)?;
            if !o.correct() || o.metrics.is_empty() {
                return Err(format!("{} (trace {traced}): {:?}", w.name, o.failures));
            }
            if let Some(t) = &o.spans {
                if t.run_spans().count() == 0 {
                    return Err(format!("{}: traced run recorded no spans", w.name));
                }
            }
            println!(
                "self-test {:<14} trace {}: ok ({} runs, digest {:016x})",
                w.name,
                u8::from(traced),
                o.attempted,
                o.digest
            );
        }
    }
    Ok(())
}

/// A printed result exits 0 whether or not its checks passed: its
/// `correct` field carries the verdict.
fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let threads = pin_environment()?;
    if let Some(probe) = &args.rss_probe {
        let w = workload::by_name(&args.workload)
            .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
        return probe_main(&w, probe);
    }
    let harness = Harness {
        cli: args.cli.as_deref(),
        rss_probe: true,
    };
    if args.self_test {
        return self_test(threads, &harness);
    }
    let host = host_json(threads, &args);
    let (workloads, modes): (Vec<Workload>, Vec<bool>) = if args.workload == "all" {
        (workload::ALL.to_vec(), vec![false, true])
    } else {
        let w = workload::by_name(&args.workload).ok_or_else(|| {
            let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {:?} (one of {names:?} or all)",
                args.workload
            )
        })?;
        (vec![w], vec![args.trace])
    };
    let many = workloads.len() > 1;
    let (mut attempted, mut failed, mut members) = (0, 0, Vec::new());
    for w in &workloads {
        for &traced in &modes {
            let o = measure(
                w,
                w.full,
                args.seed,
                args.seconds,
                traced,
                threads,
                &harness,
            )?;
            let label = format!("{} seed {} trace {}", w.name, args.seed, u8::from(traced));
            let prefix = if many {
                format!("{}/", w.name)
            } else {
                String::new()
            };
            members.extend(report(&label, &host, &o, &prefix));
            if let Some(tracer) = &o.spans {
                let path = write_spans(w.name, args.seed, &host, tracer)?;
                println!("  spans: {}", path.display());
            }
            attempted += o.attempted;
            failed += o.failed;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        members.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xfillbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Pipeline;

    /// Every workload at its reduced size through every in-process
    /// check (the `dpfill-xfill` parity and fresh-process RSS legs need
    /// the built binaries; `run.sh --self-test` runs those too).
    #[test]
    fn reduced_workloads_pass_every_check() {
        for var in PINNED_ENV {
            assert!(
                std::env::var_os(var).is_none(),
                "unset {var} to run the self-test"
            );
        }
        let harness = Harness {
            cli: None,
            rss_probe: false,
        };
        self_test(minipool::current_threads(), &harness).expect("self-test");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn every_workload_maps_to_its_cli_flags() {
        let flags = |name| {
            workload::by_name(name)
                .expect("known")
                .cli_flags(None)
                .join(" ")
        };
        assert_eq!(flags("wide-mono"), "--fill dp");
        assert_eq!(flags("wide-stream"), "--fill dp --window 512");
        assert_eq!(flags("tall-unit"), "--fill dp --order keep");
        let weighted = workload::TALL_WEIGHTED.cli_flags(Some(Path::new("w.txt")));
        assert_eq!(
            weighted.join(" "),
            "--fill dp --order keep --objective weighted --weights w.txt"
        );
        assert!(matches!(
            workload::WIDE_STREAM.pipeline,
            Pipeline::Streaming { window: 512 }
        ));
    }
}
