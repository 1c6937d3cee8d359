//! N-body: all-pairs gravitational force computation.
//!
//! The classic compute-bound throughput benchmark (the paper runs one
//! million bodies). One step evaluates, for every body `i`, the softened
//! gravitational acceleration induced by every body `j`:
//!
//! ```text
//! a_i = Σ_j  m_j · (p_j − p_i) / (|p_j − p_i|² + ε²)^{3/2}
//! ```
//!
//! Optimization story (paper §4):
//! * the **naive** version stores bodies as an array of structs and divides
//!   by `sqrt` — unvectorizable as written because of the AoS layout;
//! * **algorithmic change**: convert to SoA (`x[]`, `y[]`, `z[]`, `m[]`),
//!   after which the inner loop is a textbook auto-vectorization target,
//!   and take `1/sqrt` from multiplies (`rsqrt_fast`) so the vector loop
//!   is not serialized on the divide/sqrt unit, fusing the multiply-adds
//!   where the feature frame has FMA — what `-fp:fast` does;
//! * **Ninja**: explicit SIMD over `j` at the host's vector width with the
//!   `rsqrt` estimate-plus-refinement idiom and register accumulation.

use crate::framework::{
    Adapter, Characterization, Instance, KernelSpec, ProblemSize, Variant, VariantInfo, Work,
};
use crate::scalar_math::rsqrt_fast;
use ninja_parallel::{par_chunks_mut, ThreadPool};
use ninja_simd::isa::{self, dispatch_on, Frame, Isa, IsaKind, IsaOp, SimdF32, MAX_ISA_F32_LANES};
use ninja_simd::AlignedVec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Softening factor: keeps the self-interaction finite (it contributes
/// exactly zero force) and removes the `i == j` branch from every variant.
const EPS2: f32 = 0.01;

/// Arithmetic operations per body-body interaction (3 sub, 3 mul+2 add for
/// r², 1 add eps, rsqrt≈3, cube≈2, mass mul 1, 3 mul + 3 add accumulate).
const FLOPS_PER_INTERACTION: f64 = 21.0;

/// One body in the naive array-of-structs layout.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Body {
    /// Position.
    pub x: f32,
    /// Position.
    pub y: f32,
    /// Position.
    pub z: f32,
    /// Mass.
    pub m: f32,
}

/// An N-body problem instance: the same bodies in AoS and SoA layouts.
pub struct NBody {
    bodies: Vec<Body>,
    // SoA mirror used by the algorithmic/ninja tiers, cache-line aligned
    // so the explicit-SIMD loops can use aligned loads.
    xs: AlignedVec<f32>,
    ys: AlignedVec<f32>,
    zs: AlignedVec<f32>,
    ms: AlignedVec<f32>,
}

impl NBody {
    /// Number of bodies for each size preset.
    pub fn n_for(size: ProblemSize) -> usize {
        match size {
            ProblemSize::Test => 192,
            ProblemSize::Quick => 2048,
            ProblemSize::Paper => 8192,
        }
    }

    /// Generates a deterministic random instance.
    pub fn generate(size: ProblemSize, seed: u64) -> Self {
        Self::with_len(Self::n_for(size), seed)
    }

    fn with_len(n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bodies: Vec<Body> = (0..n)
            .map(|_| Body {
                x: rng.gen_range(-1.0..1.0),
                y: rng.gen_range(-1.0..1.0),
                z: rng.gen_range(-1.0..1.0),
                m: rng.gen_range(0.1..1.0),
            })
            .collect();
        // Pad the SoA arrays to a multiple of the widest vector with
        // zero-mass bodies so the SIMD loops need no remainder handling
        // under any backend.
        let padded = n.div_ceil(MAX_ISA_F32_LANES) * MAX_ISA_F32_LANES;
        let mut xs = AlignedVec::zeroed(padded);
        let mut ys = AlignedVec::zeroed(padded);
        let mut zs = AlignedVec::zeroed(padded);
        let mut ms = AlignedVec::zeroed(padded);
        for (i, b) in bodies.iter().enumerate() {
            xs[i] = b.x;
            ys[i] = b.y;
            zs[i] = b.z;
            ms[i] = b.m;
        }
        Self {
            bodies,
            xs,
            ys,
            zs,
            ms,
        }
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// True if the instance holds no bodies.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    #[inline]
    // ninja-lint: effort(naive)
    fn accel_of(&self, i: usize) -> [f32; 3] {
        let bi = self.bodies[i];
        let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
        for bj in &self.bodies {
            let dx = bj.x - bi.x;
            let dy = bj.y - bi.y;
            let dz = bj.z - bi.z;
            let r2 = dx * dx + dy * dy + dz * dz + EPS2;
            let inv_r = 1.0 / r2.sqrt();
            let s = bj.m * inv_r * inv_r * inv_r;
            ax += dx * s;
            ay += dy * s;
            az += dz * s;
        }
        [ax, ay, az]
    }

    /// Naive tier: serial AoS double loop, divide + `sqrt` per interaction.
    // ninja-lint: variant(naive)
    pub fn run_naive(&self) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 3 * n];
        for i in 0..n {
            let a = self.accel_of(i);
            out[3 * i] = a[0];
            out[3 * i + 1] = a[1];
            out[3 * i + 2] = a[2];
        }
        out
    }

    /// Parallel tier: the naive body loop behind a `parallel_for`.
    // ninja-lint: variant(parallel)
    pub fn run_parallel(&self, pool: &ThreadPool) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 3 * n];
        par_chunks_mut(pool, &mut out, 3 * 64, |chunk_idx, chunk| {
            let base = chunk_idx * 64;
            for (k, trio) in chunk.chunks_mut(3).enumerate() {
                let a = self.accel_of(base + k);
                trio.copy_from_slice(&a);
            }
        });
        out
    }

    /// Computes the acceleration of body `i` from the SoA arrays with eight
    /// independent partial accumulators — the restructuring that lets the
    /// compiler vectorize a floating-point reduction without reassociation
    /// licenses (`rustc` has no `#pragma simd`, so the programmer splits
    /// the accumulator; the paper counts this as low-effort). Eight is one
    /// 256-bit register per sum, two 128-bit ones at the baseline width.
    /// `inline(always)` so it compiles inside its callers' feature frames
    /// (see `isa::with_active_features`); `f` is that frame, so `r2` and
    /// `rsqrt_fast`'s Newton steps fuse where it has FMA. The accumulators
    /// stay `+=`: fused, the loop vectorized 2.5X slower (DESIGN.md, "The
    /// frame fuses").
    #[inline(always)]
    // ninja-lint: effort(simd, algorithmic)
    fn accel_soa(&self, f: Frame, i: usize) -> [f32; 3] {
        const LANES: usize = 8;
        let (xi, yi, zi) = (self.xs[i], self.ys[i], self.zs[i]);
        let mut ax = [0.0f32; LANES];
        let mut ay = [0.0f32; LANES];
        let mut az = [0.0f32; LANES];
        // The SoA arrays are padded to a multiple of LANES with zero-mass
        // bodies, so the blocked loop needs no remainder. `chunks_exact`
        // hands the compiler constant-length windows, eliding every bounds
        // check in the hot loop.
        let blocks = self
            .xs
            .chunks_exact(LANES)
            .zip(self.ys.chunks_exact(LANES))
            .zip(self.zs.chunks_exact(LANES).zip(self.ms.chunks_exact(LANES)));
        for ((xc, yc), (zc, mc)) in blocks {
            for l in 0..LANES {
                let dx = xc[l] - xi;
                let dy = yc[l] - yi;
                let dz = zc[l] - zi;
                let r2 = f.mul_add(dz, dz, f.mul_add(dy, dy, dx * dx)) + EPS2;
                let inv_r = rsqrt_fast(f, r2);
                let s = mc[l] * inv_r * inv_r * inv_r;
                ax[l] += dx * s;
                ay[l] += dy * s;
                az[l] += dz * s;
            }
        }
        let sum = |a: [f32; LANES]| a.iter().sum::<f32>();
        [sum(ax), sum(ay), sum(az)]
    }

    /// Compiler-vectorizable tier: serial, SoA layout, blocked independent
    /// accumulators — the form an auto-vectorizer handles.
    // ninja-lint: variant(simd)
    // ninja-lint: expect(vec256, fma)
    pub fn run_simd(&self) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 3 * n];
        isa::with_active_features(
            #[inline(always)]
            |f| {
                for i in 0..n {
                    let a = self.accel_soa(f, i);
                    out[3 * i..3 * i + 3].copy_from_slice(&a);
                }
            },
        );
        out
    }

    /// Low-effort endpoint: the SoA vectorizable loop plus `parallel_for`.
    // ninja-lint: variant(algorithmic)
    // ninja-lint: expect(vec256, fma)
    pub fn run_algorithmic(&self, pool: &ThreadPool) -> Vec<f32> {
        let n = self.len();
        let mut out = vec![0.0f32; 3 * n];
        par_chunks_mut(pool, &mut out, 3 * 64, |chunk_idx, chunk| {
            let base = chunk_idx * 64;
            isa::with_active_features(
                #[inline(always)]
                |f| {
                    for (k, trio) in chunk.chunks_mut(3).enumerate() {
                        trio.copy_from_slice(&self.accel_soa(f, base + k));
                    }
                },
            );
        });
        out
    }

    /// Ninja tier: explicit width-generic SIMD over `j` with the refined
    /// `rsqrt`, parallel over `i`.
    // ninja-lint: variant(ninja)
    // ninja-lint: expect(vec256, fma)
    pub fn run_ninja(&self, pool: &ThreadPool) -> Vec<f32> {
        self.run_ninja_on(isa::active(), pool)
    }

    /// The ninja rung on a chosen backend. Dispatch happens *inside* each
    /// worker closure because `#[target_feature]` trampolines do not
    /// cross thread boundaries (see `ninja_simd::isa::dispatch`).
    // ninja-lint: effort(ninja)
    fn run_ninja_on(&self, kind: IsaKind, pool: &ThreadPool) -> Vec<f32> {
        let mut out = vec![0.0f32; 3 * self.len()];
        par_chunks_mut(pool, &mut out, 3 * 64, |chunk_idx, chunk| {
            dispatch_on(
                kind,
                AccelChunk {
                    kernel: self,
                    base: chunk_idx * 64,
                    out: chunk,
                },
            );
        });
        out
    }
}

/// One output chunk of the ninja rung: the accelerations of bodies
/// `base..`, three floats each.
struct AccelChunk<'a> {
    kernel: &'a NBody,
    base: usize,
    out: &'a mut [f32],
}

impl IsaOp for AccelChunk<'_> {
    type Output = ();
    #[inline(always)]
    // ninja-lint: effort(ninja)
    fn run<I: Isa>(self) {
        let lanes = <I::F32 as SimdF32>::LANES;
        let k = self.kernel;
        let eps2 = I::F32::splat(EPS2);
        for (b, trio) in self.out.chunks_mut(3).enumerate() {
            let i = self.base + b;
            let xi = I::F32::splat(k.xs[i]);
            let yi = I::F32::splat(k.ys[i]);
            let zi = I::F32::splat(k.zs[i]);
            let mut ax = I::F32::zero();
            let mut ay = I::F32::zero();
            let mut az = I::F32::zero();
            // The padded SoA arrays divide into whole vectors under every
            // backend; constant-length windows elide the bounds checks.
            let blocks =
                k.xs.chunks_exact(lanes)
                    .zip(k.ys.chunks_exact(lanes))
                    .zip(k.zs.chunks_exact(lanes).zip(k.ms.chunks_exact(lanes)));
            for ((xc, yc), (zc, mc)) in blocks {
                let dx = I::F32::load(xc) - xi;
                let dy = I::F32::load(yc) - yi;
                let dz = I::F32::load(zc) - zi;
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
                let inv_r = r2.rsqrt();
                let s = I::F32::load(mc) * inv_r * inv_r * inv_r;
                ax = dx.mul_add(s, ax);
                ay = dy.mul_add(s, ay);
                az = dz.mul_add(s, az);
            }
            trio[0] = ax.reduce_sum();
            trio[1] = ay.reduce_sum();
            trio[2] = az.reduce_sum();
        }
    }
}

fn run(k: &NBody, variant: Variant, pool: &ThreadPool) -> Vec<f32> {
    match variant {
        Variant::Naive => k.run_naive(),
        Variant::Parallel => k.run_parallel(pool),
        Variant::Simd => k.run_simd(),
        Variant::Algorithmic => k.run_algorithmic(pool),
        Variant::Ninja => k.run_ninja(pool),
    }
}

fn work(k: &NBody) -> Work {
    let n = k.len() as f64;
    Work {
        flops: n * n * FLOPS_PER_INTERACTION,
        bytes: n * 16.0, // the body arrays fit in cache; one streaming pass
        elems: k.len() as u64,
    }
}

/// Suite entry for the N-body kernel.
pub fn spec() -> KernelSpec {
    KernelSpec {
        name: "nbody",
        description: "all-pairs gravitational forces (compute bound, rsqrt heavy)",
        bound: "compute",
        variants: [
            VariantInfo {
                variant: Variant::Naive,
                effort_loc: 0,
                what_changed: "serial AoS double loop",
            },
            VariantInfo {
                variant: Variant::Parallel,
                effort_loc: 7,
                what_changed: "parallel_for over bodies",
            },
            VariantInfo {
                variant: Variant::Simd,
                effort_loc: 32,
                what_changed: "AoS->SoA so the compiler can vectorize the j loop",
            },
            VariantInfo {
                variant: Variant::Algorithmic,
                effort_loc: 35,
                what_changed: "SoA + parallel_for",
            },
            VariantInfo {
                variant: Variant::Ninja,
                effort_loc: 43,
                what_changed: "hand SIMD over j, refined rsqrt, padded arrays",
            },
        ],
        character: Characterization {
            flops_per_elem: FLOPS_PER_INTERACTION * NBody::n_for(ProblemSize::Paper) as f64,
            bytes_per_elem: 16.0,
            naive_simd_frac: 0.0,
            restructure_simd_frac: 1.0,
            simd_friendly_frac: 1.0,
            parallel_frac: 1.0,
            gather_per_elem: 0.0,
            algorithmic_factor: 1.0,
            simd_efficiency: 1.0,
        },
        make: |size, seed| {
            Box::new(Adapter {
                kernel: NBody::generate(size, seed),
                name: "nbody",
                tolerance: 2e-3,
                run,
                work,
                reference: None,
            }) as Box<dyn Instance>
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (NBody, ThreadPool) {
        (
            NBody::generate(ProblemSize::Test, 7),
            ThreadPool::with_threads(2),
        )
    }

    #[test]
    fn all_variants_agree_with_naive() {
        let (k, pool) = small();
        let reference = k.run_naive();
        for (label, out) in [
            ("parallel", k.run_parallel(&pool)),
            ("simd", k.run_simd()),
            ("algorithmic", k.run_algorithmic(&pool)),
            ("ninja", k.run_ninja(&pool)),
        ] {
            assert_eq!(out.len(), reference.len(), "{label}");
            for (i, (&a, &b)) in out.iter().zip(reference.iter()).enumerate() {
                let err = (a - b).abs() / b.abs().max(1.0);
                assert!(err < 2e-3, "{label}[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forces_are_newton_symmetric_for_two_bodies() {
        // Two equal masses: accelerations must be equal and opposite.
        let mut k = NBody::generate(ProblemSize::Test, 1);
        k.bodies = vec![
            Body {
                x: -1.0,
                y: 0.0,
                z: 0.0,
                m: 1.0,
            },
            Body {
                x: 1.0,
                y: 0.0,
                z: 0.0,
                m: 1.0,
            },
        ];
        let a = k.run_naive();
        assert!((a[0] + a[3]).abs() < 1e-6, "ax symmetric");
        assert!(a[0] > 0.0, "body 0 pulled toward +x");
    }

    #[test]
    fn self_interaction_is_zero() {
        let mut k = NBody::generate(ProblemSize::Test, 1);
        k.bodies = vec![Body {
            x: 0.5,
            y: -0.25,
            z: 1.0,
            m: 2.0,
        }];
        let a = k.run_naive();
        assert_eq!(a, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn instance_validates_via_registry_adapter() {
        let spec = spec();
        let pool = ThreadPool::with_threads(1);
        let mut inst = (spec.make)(ProblemSize::Test, 3);
        for v in Variant::ALL {
            inst.validate(v, &pool).unwrap();
        }
        assert!(inst.work().flops > 0.0);
    }

    #[test]
    fn deterministic_generation() {
        let a = NBody::generate(ProblemSize::Test, 9).run_naive();
        let b = NBody::generate(ProblemSize::Test, 9).run_naive();
        assert_eq!(a, b);
        let c = NBody::generate(ProblemSize::Test, 10).run_naive();
        assert_ne!(a, c);
    }

    /// Body counts at every residue of the widest lane count: the zero-mass
    /// padding is what absorbs the remainder under each backend.
    #[test]
    fn ninja_rung_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            57..57 + MAX_ISA_F32_LANES,
            2e-3,
            |n| NBody::with_len(n, 21),
            NBody::run_naive,
            NBody::run_ninja_on,
        );
    }

    /// The compiler rungs' loop body inside each backend's feature frame:
    /// the same scalar source at 1x, 128-bit and 256-bit code generation.
    #[test]
    fn compiler_rung_body_conforms_on_every_backend_at_every_residue() {
        crate::framework::assert_conforms_on_every_backend(
            57..57 + MAX_ISA_F32_LANES,
            2e-3,
            |n| NBody::with_len(n, 21),
            NBody::run_naive,
            |k, kind, _| {
                let accels = (0..k.len()).map(|i| {
                    isa::with_features_on(
                        kind,
                        #[inline(always)]
                        |f| k.accel_soa(f, i),
                    )
                });
                accels.flatten().collect::<Vec<f32>>()
            },
        );
    }

    #[test]
    fn soa_padding_is_zero_mass() {
        let k = NBody::with_len(61, 4);
        assert_eq!(k.xs.len() % MAX_ISA_F32_LANES, 0);
        assert!(k.xs.len() > k.len());
        for j in k.len()..k.xs.len() {
            assert_eq!(k.ms[j], 0.0);
        }
    }

    #[test]
    fn total_momentum_change_is_zero() {
        // Newton's third law: sum_i m_i * a_i == 0 (forces are pairwise
        // equal and opposite, softening included).
        let k = NBody::generate(ProblemSize::Test, 13);
        let a = k.run_naive();
        let (mut px, mut py, mut pz) = (0.0f64, 0.0f64, 0.0f64);
        let mut scale = 0.0f64;
        for (i, b) in k.bodies.iter().enumerate() {
            px += b.m as f64 * a[3 * i] as f64;
            py += b.m as f64 * a[3 * i + 1] as f64;
            pz += b.m as f64 * a[3 * i + 2] as f64;
            scale += (b.m as f64) * (a[3 * i] as f64).abs();
        }
        for p in [px, py, pz] {
            assert!(
                p.abs() < 1e-4 * scale.max(1.0),
                "momentum drift {p} (scale {scale})"
            );
        }
    }

    #[test]
    fn far_away_body_feels_tiny_force() {
        let mut k = NBody::generate(ProblemSize::Test, 14);
        k.bodies = vec![
            Body {
                x: 0.0,
                y: 0.0,
                z: 0.0,
                m: 1.0,
            },
            Body {
                x: 1000.0,
                y: 0.0,
                z: 0.0,
                m: 1.0,
            },
        ];
        let a = k.run_naive();
        assert!(a[0].abs() < 1e-5, "force across 1000 units must be tiny");
        assert!(a[0] > 0.0, "but still attractive");
    }
}
