//! Microbenchmarks of the substrates themselves: SIMD math vs scalar libm,
//! the bitonic merge network vs scalar merge, and pool scheduling overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use ninja_kernels::merge_sort::{merge_scalar, merge_simd};
use ninja_parallel::ThreadPool;
use ninja_simd::isa::{dispatch, math, Isa, IsaOp, SimdF32};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn setup_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group(name);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group
}

/// Sums a vector function over `xs` on the active ISA backend.
struct SumMapped<'a> {
    xs: &'a [f32],
    norm_cdf: bool,
}

impl IsaOp for SumMapped<'_> {
    type Output = f32;
    fn run<I: Isa>(self) -> f32 {
        let mut acc = I::F32::zero();
        for chunk in self.xs.chunks_exact(<I::F32 as SimdF32>::LANES) {
            let x = I::F32::load(chunk);
            acc = acc
                + if self.norm_cdf {
                    math::norm_cdf::<I>(x)
                } else {
                    math::exp::<I>(x)
                };
        }
        acc.reduce_sum()
    }
}

fn bench_vector_math(c: &mut Criterion) {
    let xs: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01) - 20.0).collect();
    let mut group = setup_group(c, "substrates/exp");
    group.bench_function("scalar_libm", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in &xs {
                acc += x.exp();
            }
            std::hint::black_box(acc)
        });
    });
    for (name, norm_cdf) in [("simd_exp", false), ("simd_norm_cdf", true)] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(dispatch(SumMapped { xs: &xs, norm_cdf })));
        });
    }
    group.finish();
}

fn bench_merge_network(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut a: Vec<f32> = (0..8192).map(|_| rng.gen_range(-1e3..1e3)).collect();
    let mut b2: Vec<f32> = (0..8192).map(|_| rng.gen_range(-1e3..1e3)).collect();
    a.sort_by(|x, y| x.partial_cmp(y).unwrap());
    b2.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let mut out = vec![0.0f32; a.len() + b2.len()];
    let mut group = setup_group(c, "substrates/merge");
    group.bench_function("scalar", |bch| {
        bch.iter(|| {
            merge_scalar(&a, &b2, &mut out);
            std::hint::black_box(out[0])
        });
    });
    group.bench_function("bitonic_simd", |bch| {
        bch.iter(|| {
            merge_simd(&a, &b2, &mut out);
            std::hint::black_box(out[0])
        });
    });
    group.finish();
}

fn bench_pool_overhead(c: &mut Criterion) {
    let pool = ThreadPool::new();
    let mut group = setup_group(c, "substrates/pool");
    group.bench_function("parallel_for_empty_region", |b| {
        b.iter(|| {
            pool.parallel_for(0..64, 16, |r| {
                std::hint::black_box(r.len());
            });
        });
    });
    group.bench_function("parallel_reduce_sum_64k", |b| {
        b.iter(|| {
            let s = pool.parallel_reduce(
                0..65_536,
                4096,
                0u64,
                // black_box keeps LLVM from folding the range sum into a
                // closed form, so the bench measures real chunk traversal.
                |r| r.map(|i| std::hint::black_box(i) as u64).sum(),
                |x, y| x + y,
            );
            std::hint::black_box(s)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vector_math,
    bench_merge_network,
    bench_pool_overhead
);
criterion_main!(benches);
