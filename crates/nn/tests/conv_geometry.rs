//! `Conv2d` against a loop-nest reference, bit for bit, across kernel
//! size, padding, stride, non-square inputs, batch and channel counts.
//!
//! The reference spells out the reduction chains the im2col + GEMM
//! lowering documents, padded taps included as `w · 0.0`:
//!
//! * output: `bias + Σ_(ci, ky, kx) w · x`, taps ascending;
//! * `dW`: the preloaded gradient `+ Σ_(ni, oy, ox) g · x`, and `db` the
//!   preloaded gradient `+ Σ_(ni, oy, ox) g`;
//! * `dx`: `0 + Σ_(oc, kyr, kxr) w[oc, ci, K−1−kyr, K−1−kxr] · g`, in
//!   ascending rotated-tap order.

use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

#[derive(Debug, Clone, Copy)]
struct Geom {
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    stride: usize,
}

impl Geom {
    fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Input coordinate of output position `o` under tap `t` along an
    /// axis of length `extent`, or `None` for a padded tap.
    fn tap(&self, o: usize, t: usize, extent: usize) -> Option<usize> {
        (o * self.stride + t)
            .checked_sub(self.pad)
            .filter(|&i| i < extent)
    }

    /// Whether some kernel column never lands inside the input.
    fn has_dead_kernel_column(&self) -> bool {
        let (_, ow) = self.out_hw();
        (0..self.k).any(|kx| (0..ow).all(|ox| self.tap(ox, kx, self.w).is_none()))
    }
}

struct Reference {
    y: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    dx: Vec<f32>,
}

fn reference(
    g: Geom,
    x: &[f32],
    wgt: &[f32],
    bias: &[f32],
    go: &[f32],
    dw0: &[f32],
    db0: &[f32],
) -> Reference {
    let Geom {
        n, c, oc, h, w, k, ..
    } = g;
    let (oh, ow) = g.out_hw();
    let xat = |ni: usize, ci: usize, oy: usize, ox: usize, ky: usize, kx: usize| -> f32 {
        match (g.tap(oy, ky, h), g.tap(ox, kx, w)) {
            (Some(iy), Some(ix)) => x[((ni * c + ci) * h + iy) * w + ix],
            _ => 0.0,
        }
    };

    let mut y = vec![0.0f32; n * oc * oh * ow];
    for ni in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[o];
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += wgt[((o * c + ci) * k + ky) * k + kx]
                                    * xat(ni, ci, oy, ox, ky, kx);
                            }
                        }
                    }
                    y[((ni * oc + o) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }

    let mut dw = dw0.to_vec();
    let mut db = db0.to_vec();
    for o in 0..oc {
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    db[o] += go[((ni * oc + o) * oh + oy) * ow + ox];
                }
            }
        }
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let acc = &mut dw[((o * c + ci) * k + ky) * k + kx];
                    for ni in 0..n {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                *acc += go[((ni * oc + o) * oh + oy) * ow + ox]
                                    * xat(ni, ci, oy, ox, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    }

    // For input cell (iy, ix) and tap (ky, kx), the output cell it feeds.
    let out_of = |i: usize, t: usize, out: usize| -> Option<usize> {
        (i + g.pad)
            .checked_sub(t)
            .filter(|d| d % g.stride == 0)
            .map(|d| d / g.stride)
            .filter(|&o| o < out)
    };
    let mut dx = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            for iy in 0..h {
                for ix in 0..w {
                    let mut acc = 0.0f32;
                    for o in 0..oc {
                        for kyr in 0..k {
                            for kxr in 0..k {
                                let (ky, kx) = (k - 1 - kyr, k - 1 - kxr);
                                let gv = match (out_of(iy, ky, oh), out_of(ix, kx, ow)) {
                                    (Some(oy), Some(ox)) => go[((ni * oc + o) * oh + oy) * ow + ox],
                                    _ => 0.0,
                                };
                                acc += wgt[((o * c + ci) * k + ky) * k + kx] * gv;
                            }
                        }
                    }
                    dx[((ni * c + ci) * h + iy) * w + ix] = acc;
                }
            }
        }
    }
    Reference { y, dw, db, dx }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn params(conv: &Conv2d) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut out = Vec::new();
    conv.visit_params(&mut |p| out.push((p.value.data().to_vec(), p.grad.data().to_vec())));
    let (w, dw) = out[0].clone();
    let (b, db) = out[1].clone();
    (w, b, dw, db)
}

/// Sets a random bias and random preloaded gradients, so the chains start
/// from arbitrary values as they do mid-accumulation.
fn randomize(conv: &mut Conv2d, rng: &mut Pcg32) {
    conv.visit_params_mut(&mut |p| {
        let dims = p.value.shape().dims().to_vec();
        if dims.len() == 1 {
            p.value = Tensor::randn(&dims, rng);
        }
        p.grad = Tensor::randn(&dims, rng);
    });
}

fn geometries() -> Vec<Geom> {
    let mut out = Vec::new();
    for k in [1, 2, 3, 5] {
        for pad in [0, 1, 2] {
            for stride in [1, 2, 3] {
                for n in [1, 3] {
                    for (c, oc) in [(1, 3), (3, 8), (8, 1)] {
                        for (h, w) in [(7, 5), (4, 9), (3, 1)] {
                            if h + 2 * pad >= k && w + 2 * pad >= k {
                                out.push(Geom {
                                    n,
                                    c,
                                    oc,
                                    h,
                                    w,
                                    k,
                                    pad,
                                    stride,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn conv_matches_loop_nest_reference_bitwise() {
    let mut rng = Pcg32::seed_from(0xC04E0);
    // One arena across every geometry, so recycled buffers of other shapes
    // are what the gathers write into.
    let mut arena = ScratchArena::new();
    let geoms = geometries();
    assert!(
        geoms.iter().any(Geom::has_dead_kernel_column),
        "no geometry leaves a kernel column without valid taps"
    );
    for g in geoms {
        let mut conv = Conv2d::with_stride(g.c, g.oc, g.k, g.pad, g.stride, &mut rng);
        randomize(&mut conv, &mut rng);
        let (wgt, bias, dw0, db0) = params(&conv);
        let x = Tensor::randn(&[g.n, g.c, g.h, g.w], &mut rng);
        let (oh, ow) = g.out_hw();
        let go = Tensor::randn(&[g.n, g.oc, oh, ow], &mut rng);
        let want = reference(g, x.data(), &wgt, &bias, go.data(), &dw0, &db0);

        let y = conv.forward_scratch(&x, true, &mut arena);
        assert_eq!(y.shape().dims(), &[g.n, g.oc, oh, ow], "{g:?}");
        assert_eq!(bits(y.data()), bits(&want.y), "output {g:?}");
        arena.recycle(y.into_vec());

        // Parameter-only backward.
        conv.backward_params(&go, &mut arena);
        let (_, _, dw, db) = params(&conv);
        assert_eq!(bits(&dw), bits(&want.dw), "dW via backward_params {g:?}");
        assert_eq!(bits(&db), bits(&want.db), "db via backward_params {g:?}");

        // Full backward from the same preloaded gradients.
        conv.visit_params_mut(&mut |p| {
            let pre = if p.grad.shape().rank() == 1 {
                &db0
            } else {
                &dw0
            };
            p.grad.data_mut().copy_from_slice(pre);
        });
        let dx = conv.backward_scratch(&go, &mut arena);
        let (_, _, dw, db) = params(&conv);
        assert_eq!(bits(&dw), bits(&want.dw), "dW via backward {g:?}");
        assert_eq!(bits(&db), bits(&want.db), "db via backward {g:?}");
        assert_eq!(dx.shape().dims(), x.shape().dims(), "{g:?}");
        assert_eq!(bits(dx.data()), bits(&want.dx), "dx {g:?}");
        arena.recycle(dx.into_vec());
    }
}
