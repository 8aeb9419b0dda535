//! `Sequential::backward` stops at the first layer that owns a trainable
//! parameter. These tests pin that the parameter gradients it leaves are
//! bitwise those of the full chain — every layer's `backward` called in
//! reverse — and that the frozen prefix is never visited.

use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::scratch::ScratchArena;
use rpol_tensor::Tensor;

fn freeze(mut layer: Box<dyn Layer>) -> Box<dyn Layer> {
    layer.visit_params_mut(&mut |p| p.frozen = true);
    layer
}

/// A frozen `Conv2d` and a frozen `Residual` in front of a trainable
/// strided conv, a trainable residual conv and two dense layers.
fn frozen_prefix_layers(seed: u64) -> Vec<Box<dyn Layer>> {
    let mut rng = Pcg32::seed_from(seed);
    vec![
        freeze(Box::new(Conv2d::new(3, 4, 3, 1, &mut rng))),
        freeze(Box::new(Residual::new(Box::new(Conv2d::new(
            4, 4, 3, 1, &mut rng,
        ))))),
        Box::new(Conv2d::with_stride(4, 6, 3, 1, 2, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Residual::new(Box::new(Conv2d::new(6, 6, 3, 1, &mut rng)))),
        Box::new(Flatten::new()),
        Box::new(Dense::new(6 * 4 * 4, 8, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(8, 3, &mut rng)),
    ]
}

/// The same task layers with nothing frozen, starting at a trainable conv.
fn trainable_layers(seed: u64) -> Vec<Box<dyn Layer>> {
    let mut rng = Pcg32::seed_from(seed);
    vec![
        Box::new(Conv2d::new(3, 5, 3, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(5 * 8 * 8, 3, &mut rng)),
    ]
}

fn batch(seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = Pcg32::seed_from(seed);
    (Tensor::randn(&[4, 3, 8, 8], &mut rng), vec![0, 1, 2, 1])
}

fn trainable_grad_bits(visit: impl FnOnce(&mut dyn FnMut(&Param))) -> Vec<Vec<u32>> {
    let mut grads = Vec::new();
    visit(&mut |p: &Param| {
        if !p.frozen {
            grads.push(p.grad.data().iter().map(|g| g.to_bits()).collect());
        }
    });
    grads
}

/// Two forward/backward passes (gradients accumulate across them) through
/// `Sequential`, returning the trainable parameters' gradient bits.
fn model_grads(layers: Vec<Box<dyn Layer>>) -> Vec<Vec<u32>> {
    let mut model = Sequential::new(layers);
    for seed in [1, 2] {
        let (x, labels) = batch(seed);
        let logits = model.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        model.backward(&grad);
    }
    trainable_grad_bits(|f| model.visit_params(f))
}

/// The reference chain: the same two passes, every layer's `forward` in
/// order and every layer's `backward` in reverse, down to the input.
fn reference_grads(mut layers: Vec<Box<dyn Layer>>) -> Vec<Vec<u32>> {
    for seed in [1, 2] {
        let (x, labels) = batch(seed);
        let logits = layers.iter_mut().fold(x, |h, l| l.forward(&h, true));
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        layers.iter_mut().rev().fold(grad, |g, l| l.backward(&g));
    }
    trainable_grad_bits(|f| layers.iter().for_each(|l| l.visit_params(f)))
}

#[test]
fn frozen_prefix_leaves_trainable_grads_bitwise_equal_to_full_chain() {
    let got = model_grads(frozen_prefix_layers(7));
    let want = reference_grads(frozen_prefix_layers(7));
    assert_eq!(got.len(), 8, "4 trainable layers, weight + bias each");
    assert_eq!(got, want);
}

#[test]
fn model_without_frozen_prefix_gets_full_chain_grads() {
    let got = model_grads(trainable_layers(9));
    assert_eq!(got.len(), 4);
    assert_eq!(got, reference_grads(trainable_layers(9)));
}

/// A frozen layer whose backward must never run.
struct PanicsOnBackward(Conv2d);

impl Layer for PanicsOnBackward {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.0.forward(input, train)
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        panic!("backward reached the frozen prefix")
    }

    fn backward_scratch(&mut self, _grad_out: &Tensor, _arena: &mut ScratchArena) -> Tensor {
        panic!("backward reached the frozen prefix")
    }

    fn backward_params(&mut self, _grad_out: &Tensor, _arena: &mut ScratchArena) {
        panic!("backward reached the frozen prefix")
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.0.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_params_mut(f);
    }
}

#[test]
fn frozen_prefix_is_never_visited() {
    let mut rng = Pcg32::seed_from(3);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        freeze(Box::new(PanicsOnBackward(Conv2d::new(
            3, 3, 3, 1, &mut rng,
        )))),
        freeze(Box::new(Residual::new(Box::new(PanicsOnBackward(
            Conv2d::new(3, 3, 3, 1, &mut rng),
        ))))),
    ];
    layers.extend(trainable_layers(4));
    let mut model = Sequential::new(layers);
    let (x, labels) = batch(5);
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    model.backward(&grad);
    let mut moved = 0;
    model.visit_params(&mut |p| {
        if !p.frozen && p.grad.data().iter().any(|&g| g != 0.0) {
            moved += 1;
        }
    });
    assert!(moved > 0, "trainable layers received no gradient");
}
