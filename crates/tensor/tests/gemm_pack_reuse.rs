//! The packed A/B panels live in per-thread buffers reused across GEMM
//! calls. These tests interleave large and small shapes on the same
//! threads — every transpose combination, shrinking `kc`/`nc` tails, rows
//! not a multiple of `MR` and columns not a multiple of `NR` — and check
//! every result bitwise against the naive kernel on explicitly transposed
//! operands, so no lane packed by an earlier call can leak into a later
//! one.

use rpol_tensor::gemm::{self, Trans, KC, MC, NC};
use rpol_tensor::rng::Pcg32;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Row-major `rows × cols` transpose.
fn transpose(v: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0; v.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = v[r * cols + c];
        }
    }
    t
}

/// Shapes `(m, n, k)` in call order: a large call whose operands are all
/// huge (a stale lane from it would turn a later output into ±inf), then
/// ever smaller ones whose K and N tails end inside the large call's
/// panels, then large again.
fn shapes() -> Vec<(usize, usize, usize, bool)> {
    vec![
        (2 * MC + 9, NC + 19, KC + 45, true),
        (2 * MC + 3, NC - 7, KC - 3, false),
        (2 * MC + 1, 37, 101, false),
        (13, 21, 7, false),
        (9, 17, 5, false),
        (1, 1, 1, false),
        (2 * MC + 9, NC + 19, KC + 45, true),
        (7, 3, 2, false),
    ]
}

fn check_interleaved(threads: usize) {
    let mut rng = Pcg32::seed_from(0x9AC4 + threads as u64);
    for ta in [Trans::No, Trans::Yes] {
        for tb in [Trans::No, Trans::Yes] {
            for (m, n, k, huge) in shapes() {
                let mut draw = |len: usize| -> Vec<f32> {
                    (0..len)
                        .map(|_| {
                            if huge {
                                1e30 * (1.0 + rng.next_f32())
                            } else {
                                rng.next_normal()
                            }
                        })
                        .collect()
                };
                // Logical operands A [m, k] and B [k, n], stored as `ta`/`tb` say.
                let a = draw(m * k);
                let b = draw(k * n);
                let a_stored = match ta {
                    Trans::No => a.clone(),
                    Trans::Yes => transpose(&a, m, k),
                };
                let b_stored = match tb {
                    Trans::No => b.clone(),
                    Trans::Yes => transpose(&b, k, n),
                };
                let got = gemm::matmul(m, n, k, &a_stored, ta, &b_stored, tb, threads);
                let want = gemm::matmul_naive(m, n, k, &a, &b);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{m}x{n}x{k} ta={ta:?} tb={tb:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn reused_pack_buffers_are_invisible_single_thread() {
    check_interleaved(1);
}

#[test]
fn reused_pack_buffers_are_invisible_across_four_threads() {
    check_interleaved(4);
}
