//! The PR-7 acceptance benchmark: the incremental (parametric) BCP
//! lower bound against the retained O(C²) DP reference, the serial EDF
//! coloring, and the whole solve, at C ∈ {1k, 16k, 128k} colors.
//!
//! The quadratic DP rows stop at 16k (one 128k iteration alone runs for
//! minutes); comparing the 1k → 16k growth ratios shows the scaling gap
//! — ~256× for the DP against near-linear for the parametric bound.
//! Both engines certify the same bound at every thread count (pinned by
//! `crates/core/tests/bcp_differential.rs`); these rows measure only
//! wall-clock. The sharded-coloring rows of the committed
//! `BENCH_pr7.json` (`color/sharded_w*`, `solve/auto/pool8`) have no
//! code left to run; the surviving row ids are unchanged.
//!
//! The `solve/tall` row solves the instance DP-fill maps a 524288 × 16
//! set with 3 care bits per cube to — the shape of the end-to-end
//! benchmark's `tall-unit` workload (~608k intervals over 524287
//! colors), generated as `examples/gen_patterns.rs 524288 16 3 7` does.
//! The mapping is built once, outside the timed loop.
//!
//! Run
//!
//! ```sh
//! CRITERION_JSON=BENCH_pr7.json cargo bench -p dpfill-bench \
//!     --bench pr7_bcp
//! ```
//!
//! to refresh the committed `BENCH_pr7.json` baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dpfill_core::bcp::{BcpInstance, SolveOptions};
use dpfill_core::{Interval, MatrixMapping};
use dpfill_cubes::format::parse_patterns;

/// `4 * colors` random intervals (mixed spans) plus a light baseline —
/// ATPG-shaped traffic: most load short-range, a few full-width runs.
fn random_instance(colors: usize, seed: u64) -> BcpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = BcpInstance::new(colors);
    for i in 0..4 * colors {
        let start = rng.gen_range(0..colors as u32);
        let span = if i % 64 == 0 {
            rng.gen_range(0..colors as u32)
        } else {
            rng.gen_range(0..32.min(colors as u32))
        };
        let end = (start + span).min(colors as u32 - 1);
        inst.add_interval(Interval::new(start, end))
            .expect("in range");
    }
    let baseline = (0..colors).map(|_| rng.gen_range(0..3)).collect();
    inst.set_baseline(baseline).expect("matching length");
    inst
}

/// The pattern text `examples/gen_patterns.rs` writes for `cubes`
/// cubes of `width` pins with `cares` care bits each under `seed`.
fn gen_patterns_text(cubes: usize, width: usize, cares: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::with_capacity(cubes * (width + 1));
    let mut row = vec![b'X'; width];
    let mut touched: Vec<usize> = Vec::with_capacity(cares);
    for _ in 0..cubes {
        touched.clear();
        for _ in 0..cares {
            let pin = rng.next_u64() as usize % width;
            row[pin] = if rng.next_u64() & 1 == 0 { b'0' } else { b'1' };
            touched.push(pin);
        }
        text.push_str(std::str::from_utf8(&row).expect("ASCII row"));
        text.push('\n');
        for &pin in &touched {
            row[pin] = b'X';
        }
    }
    text
}

fn bench_bcp_pr7(c: &mut Criterion) {
    let mut group = c.benchmark_group("pr7_bcp");
    group.sample_size(10);

    let pool = minipool::ThreadPool::new(8);

    for colors in [1_000usize, 16_000, 128_000] {
        let inst = random_instance(colors, 0x7B0C + colors as u64);
        let lb = inst.lower_bound().expect("counts fit u64");

        // Lower bound: incremental parametric engine (1 thread / 8).
        group.bench_function(format!("lower_bound/incremental/serial/c{colors}"), |b| {
            b.iter(|| black_box(inst.lower_bound().expect("bound")))
        });
        group.bench_function(format!("lower_bound/incremental/pool8/c{colors}"), |b| {
            minipool::with_pool(&pool, || {
                b.iter(|| black_box(inst.lower_bound().expect("bound")))
            })
        });
        // The retained O(C²) DP reference — 128k omitted (minutes per
        // iteration; the 1k → 16k ratio tells the story).
        if colors <= 16_000 {
            group.bench_function(format!("lower_bound/quadratic_dp/c{colors}"), |b| {
                b.iter(|| black_box(inst.lower_bound_dp(true).expect("bound")))
            });
        }

        // Coloring: the one serial EDF sweep.
        group.bench_function(format!("color/serial/c{colors}"), |b| {
            b.iter(|| black_box(inst.color_edf(lb).expect("feasible").colors().len()))
        });

        // End to end: bound + coloring + verification.
        group.bench_function(format!("solve/serial/c{colors}"), |b| {
            b.iter(|| black_box(inst.solve().expect("solve").lower_bound))
        });
    }

    // The tall end-to-end shape: one solve of the mapped instance.
    let tall = parse_patterns(&gen_patterns_text(524_288, 16, 3, 7)).expect("generated patterns");
    let mapping = MatrixMapping::analyze(&tall);
    drop(tall);
    let inst = mapping.instance();
    group.bench_function("solve/tall", |b| {
        b.iter(|| {
            black_box(
                inst.solve_with(&SolveOptions::default())
                    .expect("solve")
                    .lower_bound,
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_bcp_pr7);
criterion_main!(benches);
