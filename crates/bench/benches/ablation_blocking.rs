//! A1: cache-blocking / base-case-size ablation.
//!
//! Sweeps the insertion-sort base case of the bottom-up merge sort (the
//! "blocking" knob DESIGN.md calls out) and the parallel-for grain size of
//! the N-body kernel, showing that the low-effort tiers are not sensitive
//! to heroic tuning.

use criterion::{criterion_group, criterion_main, Criterion};
use ninja_kernels::merge_sort::{bottom_up_sort_with_cutoff, merge_scalar, MergeSort};
use ninja_kernels::nbody::NBody;
use ninja_kernels::ProblemSize;
use ninja_parallel::ThreadPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_sort_cutoff(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let data: Vec<f32> = (0..1 << 15).map(|_| rng.gen_range(-1e6..1e6)).collect();
    let mut group = c.benchmark_group("ablation_blocking/sort_base_cutoff");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for cutoff in [4usize, 16, 64, 256] {
        group.bench_function(format!("cutoff_{cutoff}"), |b| {
            b.iter(|| {
                let mut buf = data.clone();
                let mut tmp = vec![0.0f32; buf.len()];
                bottom_up_sort_with_cutoff(&mut buf, &mut tmp, &merge_scalar, cutoff);
                std::hint::black_box(buf[0])
            });
        });
    }
    group.finish();
}

fn bench_nbody_grain(c: &mut Criterion) {
    let kernel = NBody::generate(ProblemSize::Test, 7);
    let mut group = c.benchmark_group("ablation_blocking/nbody_grain");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::with_threads(threads);
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| std::hint::black_box(kernel.run_ninja(&pool)));
        });
    }
    group.finish();
}

fn bench_mergesort_variants(c: &mut Criterion) {
    let kernel = MergeSort::generate(ProblemSize::Test, 7);
    let pool = ThreadPool::new();
    let mut group = c.benchmark_group("ablation_blocking/mergesort_tiers");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("naive_allocating", |b| {
        b.iter(|| std::hint::black_box(kernel.run_naive()));
    });
    group.bench_function("blocked_pingpong", |b| {
        b.iter(|| std::hint::black_box(kernel.run_simd()));
    });
    group.bench_function("ninja_simd_merge", |b| {
        b.iter(|| std::hint::black_box(kernel.run_ninja(&pool)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sort_cutoff,
    bench_nbody_grain,
    bench_mergesort_variants
);
criterion_main!(benches);
