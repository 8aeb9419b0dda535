//! Steady-state training steps allocate no activation-sized buffer: after
//! warm-up, one `forward` + `backward` of a `Sequential` built from every
//! layer of the task models' conv path makes no heap allocation of 1 KiB
//! or more. Smaller allocations (a `Shape`'s dims `Vec`, the few-element
//! model output) are not counted.
//!
//! Only allocations made on the test's own thread are counted; every GEMM
//! here has fewer than `2·MC` rows, so none is sharded onto the executor.

use rpol_nn::prelude::*;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

const LARGE: usize = 1024;

struct CountingAlloc;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Sizes of the first few counted allocations, for the failure message.
static SIZES: [AtomicUsize; 8] = [const { AtomicUsize::new(0) }; 8];

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if size >= LARGE && ARMED.with(Cell::get) {
        let i = LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SIZES.get(i) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_training_step_makes_no_large_allocation() {
    let mut rng = Pcg32::seed_from(5);
    let mut frozen = Conv2d::new(3, 8, 3, 1, &mut rng);
    frozen.visit_params_mut(&mut |p| p.frozen = true);
    let mut model = Sequential::new(vec![
        Box::new(frozen),
        Box::new(Conv2d::new(8, 8, 3, 1, &mut rng)),
        Box::new(Residual::new(Box::new(Conv2d::new(8, 8, 3, 1, &mut rng)))),
        Box::new(AvgPool2::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(8 * 4 * 4, 3, &mut rng)),
    ]);
    let x = Tensor::randn(&[4, 3, 8, 8], &mut rng);
    let grad_out = Tensor::randn(&[4, 3], &mut rng);
    let step = |model: &mut Sequential| {
        let y = model.forward(&x, true);
        model.backward(&grad_out);
        y
    };
    for _ in 0..3 {
        step(&mut model);
    }

    ARMED.with(|a| a.set(true));
    let y = step(&mut model);
    ARMED.with(|a| a.set(false));

    assert_eq!(y.shape().dims(), &[4, 3]);
    let sizes: Vec<usize> = SIZES.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    assert_eq!(
        LARGE_ALLOCS.load(Ordering::Relaxed),
        0,
        "a warm forward + backward allocated buffers of {LARGE} B or more (first sizes {sizes:?})"
    );
}
