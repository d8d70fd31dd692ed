//! Micro-benchmarks of the core algorithms: the packed two-plane kernels
//! against their scalar references, Algorithm 1 (DP lower bound),
//! Algorithm 2 (greedy coloring), the generalized EDF solver, PODEM,
//! fault simulation and the bit-parallel simulator — plus the ablation
//! pair paper-exact vs baseline-aware DP-fill.
//!
//! The `packed_kernels` group is the PR-1 acceptance benchmark: run
//!
//! ```sh
//! CRITERION_JSON=BENCH_pr1.json cargo bench -p dpfill-bench \
//!     --bench micro_algorithms -- packed_kernels
//! ```
//!
//! to refresh the committed `BENCH_pr1.json` baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpfill_atpg::{fault_list, generate_tests, AtpgConfig, FaultSimulator, Podem};
use dpfill_circuits::itc99;
use dpfill_core::bcp::BcpInstance;
use dpfill_core::fill::{DpFill, DpMode, FillStrategy, MtFill, ZeroFill};
use dpfill_core::Interval;
use dpfill_cubes::format::{
    parse_patterns, parse_patterns_scalar, patterns_to_string, read_patterns, write_patterns,
};
use dpfill_cubes::gen::{random_cube_set, CubeProfile};
use dpfill_cubes::packed::{PackedCubeSet, PackedMatrix};
use dpfill_cubes::stretch::StretchStats;
use dpfill_cubes::{
    peak_toggles, peak_toggles_scalar, toggle_profile, toggle_profile_scalar, PinMatrix,
};
use dpfill_netlist::CombView;
use dpfill_sim::{pack_patterns, PlaneSim};

/// The PR-1 acceptance benchmark: packed popcount kernels vs the scalar
/// reference walks on a 1024-pin × 1024-cube random cube set at 0.5
/// X-density.
fn bench_packed_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_kernels");
    group.sample_size(20);
    let cubes = random_cube_set(1024, 1024, 0.5, 0xD0E5);
    let packed = PackedCubeSet::from(&cubes);
    let matrix = PackedMatrix::from_packed_set(&packed);
    let pin_matrix = PinMatrix::from_cube_set_scalar(&cubes);

    group.bench_function("peak_toggles/packed/1024x1024", |b| {
        b.iter(|| criterion::black_box(packed.peak_toggles()))
    });
    group.bench_function("peak_toggles/scalar/1024x1024", |b| {
        b.iter(|| criterion::black_box(peak_toggles_scalar(&cubes).unwrap()))
    });
    group.bench_function("peak_toggles/public_pack_and_count/1024x1024", |b| {
        b.iter(|| criterion::black_box(peak_toggles(&cubes).unwrap()))
    });
    group.bench_function("toggle_profile/packed/1024x1024", |b| {
        b.iter(|| criterion::black_box(packed.toggle_profile().len()))
    });
    group.bench_function("toggle_profile/scalar/1024x1024", |b| {
        b.iter(|| criterion::black_box(toggle_profile_scalar(&cubes).unwrap().len()))
    });
    group.bench_function("toggle_profile/public_pack_and_count/1024x1024", |b| {
        b.iter(|| criterion::black_box(toggle_profile(&cubes).unwrap().len()))
    });
    group.bench_function("transpose/word_blocked/1024x1024", |b| {
        b.iter(|| criterion::black_box(PackedMatrix::from_packed_set(&packed).rows()))
    });
    group.bench_function("transpose/scalar_scatter/1024x1024", |b| {
        b.iter(|| criterion::black_box(PinMatrix::from_cube_set_scalar(&cubes).rows()))
    });
    group.bench_function("stretch_scan/packed/1024x1024", |b| {
        b.iter(|| criterion::black_box(StretchStats::of_packed(&matrix).total_stretches()))
    });
    group.bench_function("stretch_scan/scalar/1024x1024", |b| {
        b.iter(|| criterion::black_box(StretchStats::of_matrix(&pin_matrix).total_stretches()))
    });
    group.bench_function("mt_fill/packed_pipeline/1024x1024", |b| {
        b.iter(|| criterion::black_box(MtFill.fill(&cubes).len()))
    });
    group.finish();
}

/// The PR-2 acceptance benchmark: the streaming pattern parser (chars
/// packed straight into plane words, no per-cube `Vec<Bit>`) against the
/// PR-1 scalar reference parser, on a 1024-cube × 1024-pin pattern file
/// at 0.5 X-density. The acceptance bar is ≥2× parse throughput.
fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse");
    group.sample_size(20);
    let cubes = random_cube_set(1024, 1024, 0.5, 0xD0E5);
    let text = patterns_to_string(&cubes, Some("bench patterns"));

    group.bench_function("parse_patterns/streaming/1024x1024", |b| {
        b.iter(|| criterion::black_box(parse_patterns(&text).unwrap().len()))
    });
    group.bench_function("parse_patterns/scalar_reference/1024x1024", |b| {
        b.iter(|| criterion::black_box(parse_patterns_scalar(&text).unwrap().len()))
    });
    group.bench_function("read_patterns/streaming_io/1024x1024", |b| {
        b.iter(|| criterion::black_box(read_patterns(text.as_bytes()).unwrap().len()))
    });
    group.finish();
}

/// Pattern emission: `write_patterns` (the plane→ASCII kernel behind
/// the bounded chunk writer) against the per-char `Display` oracle, on
/// a fully specified 16384 × 2048 set (the shape of a filled
/// industrial pattern file) and a 50%-X 1024 × 1024 set. Both render
/// into a reused `Vec<u8>`, so the rows time formatting, not the sink;
/// MB/s is output bytes over the median time.
fn bench_emit(c: &mut Criterion) {
    use std::io::Write as _;
    let mut group = c.benchmark_group("emit");
    group.sample_size(10);
    for (cubes, width, x_density) in [(16384usize, 2048usize, 0.0), (1024, 1024, 0.5)] {
        let set = random_cube_set(width, cubes, x_density, 0xE417);
        let shape = format!("{cubes}x{width}");
        let mut out = Vec::with_capacity(cubes * (width + 1));
        group.bench_function(format!("write_patterns/kernel/{shape}"), |b| {
            b.iter(|| {
                out.clear();
                write_patterns(&mut out, &set, None).unwrap();
                criterion::black_box(out.len())
            })
        });
        group.bench_function(format!("display_oracle/{shape}"), |b| {
            b.iter(|| {
                out.clear();
                for row in set.packed_cubes() {
                    writeln!(out, "{row}").unwrap();
                }
                criterion::black_box(out.len())
            })
        });
    }
    group.finish();
}

/// The row store: parse, clone + drop, and `ZeroFill` on a tall narrow
/// set (524288 × 16, rows held inline) and a wide one (16384 × 2048, one
/// heap block per row). Each row also drops what it built, so it times
/// the allocator traffic a set's rows cause along with the word work.
fn bench_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("rows");
    group.sample_size(10);
    for (cubes, width) in [(524288usize, 16usize), (16384, 2048)] {
        let set = random_cube_set(width, cubes, 0.5, 0x5E75);
        let text = patterns_to_string(&set, None);
        let shape = format!("{cubes}x{width}");
        group.bench_function(format!("parse/{shape}"), |b| {
            b.iter(|| criterion::black_box(parse_patterns(&text).unwrap().len()))
        });
        group.bench_function(format!("clone_drop/{shape}"), |b| {
            b.iter(|| criterion::black_box(set.clone().len()))
        });
        group.bench_function(format!("zero_fill/{shape}"), |b| {
            b.iter(|| criterion::black_box(ZeroFill.fill(&set).len()))
        });
    }
    group.finish();
}

fn random_instance(colors: usize, k: usize, seed: u64) -> BcpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = BcpInstance::new(colors);
    for _ in 0..k {
        let s = rng.gen_range(0..colors as u32);
        let e = rng.gen_range(s..colors as u32);
        inst.add_interval(Interval::new(s, e)).unwrap();
    }
    inst
}

fn bench_bcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcp");
    group.sample_size(20);
    for (colors, k) in [(100usize, 1_000usize), (500, 10_000)] {
        let inst = random_instance(colors, k, 42);
        group.bench_function(format!("algorithm1_lower_bound/c{colors}_k{k}"), |b| {
            b.iter(|| criterion::black_box(inst.lower_bound_paper()))
        });
        let lb = inst.lower_bound_paper().unwrap();
        group.bench_function(format!("algorithm2_greedy/c{colors}_k{k}"), |b| {
            b.iter(|| criterion::black_box(inst.color_greedy_paper(lb).unwrap()))
        });
        group.bench_function(format!("generalized_solve/c{colors}_k{k}"), |b| {
            b.iter(|| criterion::black_box(inst.solve().unwrap().peak))
        });
    }
    group.finish();
}

fn bench_dp_fill_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_fill_ablation");
    group.sample_size(10);
    let cubes = CubeProfile::new(275, 320)
        .x_percent(77.9)
        .flip_probability(0.35)
        .generate(9);
    for (label, mode) in [
        ("baseline_aware", DpMode::Exact),
        ("paper_exact", DpMode::PaperExact),
    ] {
        group.bench_function(format!("b14_scale/{label}"), |b| {
            b.iter(|| criterion::black_box(DpFill::with_mode(mode).run(&cubes).peak))
        });
    }
    group.finish();
}

fn bench_atpg(c: &mut Criterion) {
    let mut group = c.benchmark_group("atpg");
    group.sample_size(10);
    let profile = itc99("b03").expect("known benchmark");
    let netlist = profile.generate();
    group.bench_function("podem_single_fault/b03", |b| {
        let view = CombView::new(&netlist);
        let faults = fault_list(&netlist);
        b.iter(|| {
            let mut podem = Podem::new(&view, 64);
            criterion::black_box(podem.run(faults[faults.len() / 2]))
        })
    });
    group.bench_function("full_atpg/b03", |b| {
        b.iter(|| {
            criterion::black_box(
                generate_tests(&netlist, &AtpgConfig::default())
                    .stats
                    .detected,
            )
        })
    });
    group.bench_function("fault_sim_batch/b03", |b| {
        let view = CombView::new(&netlist);
        let cubes = generate_tests(&netlist, &AtpgConfig::default()).cubes;
        let filled = dpfill_core::fill::FillMethod::Random(3).fill(&cubes);
        let faults = fault_list(&netlist);
        b.iter(|| {
            let mut fsim = FaultSimulator::new(&view);
            let mut detected = vec![false; faults.len()];
            criterion::black_box(fsim.detect(&filled, &faults, &mut detected).unwrap())
        })
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(20);
    let profile = itc99("b12").expect("known benchmark");
    let netlist = profile.generate();
    let view = CombView::new(&netlist);
    let cubes = CubeProfile::new(view.input_count(), 64)
        .x_percent(0.0)
        .generate(10);
    let (inputs, _) = pack_patterns(&cubes, 0);
    group.bench_function("plane_sim_64patterns/b12", |b| {
        let mut sim = PlaneSim::new(&view);
        b.iter(|| {
            sim.simulate(&inputs).unwrap();
            criterion::black_box(sim.values().len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_packed_kernels,
    bench_parse,
    bench_emit,
    bench_rows,
    bench_bcp,
    bench_dp_fill_ablation,
    bench_atpg,
    bench_simulation
);
criterion_main!(benches);
