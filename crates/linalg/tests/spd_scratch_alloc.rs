//! A failing SPD solve keeps its factor buffer: repeated failing solves
//! through one [`SpdScratch`] allocate the `n × n` factor once, on both
//! the direct and the permuted branch of [`lstsq::solve_spd_with`].
//!
//! The counting allocator is this test binary's global allocator and
//! counts per thread, so the parallel test harness does not mix counts.

use losstomo_linalg::{lstsq, LinalgError, Matrix, SpdScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations of at least `LARGE.get()` bytes on this thread.
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Size from which an allocation counts (`usize::MAX`: none does).
    static LARGE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts one allocation of `size` bytes if it is at least `LARGE`.
fn note(size: usize) {
    if size >= LARGE.with(Cell::get) {
        LARGE_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s guarantees carry over; the
// counting touches only const-initialised thread-locals, which neither
// allocate nor run destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of at least an `n × n` f64 matrix made by `f` on this
/// thread.
fn factor_sized_allocs(n: usize, f: impl FnOnce()) -> usize {
    LARGE.with(|l| l.set(n * n * std::mem::size_of::<f64>()));
    LARGE_ALLOCS.with(|c| c.set(0));
    f();
    LARGE.with(|l| l.set(usize::MAX));
    LARGE_ALLOCS.with(Cell::get)
}

/// Tridiagonal SPD matrix of order `n` with its last row and column
/// zeroed: sparse enough for the permuted branch, singular at one pivot.
fn singular_sparse(n: usize) -> Matrix {
    let mut g = Matrix::zeros(n, n);
    for i in 0..n - 1 {
        g[(i, i)] = 4.0;
        if i + 2 < n {
            g[(i, i + 1)] = -1.0;
            g[(i + 1, i)] = -1.0;
        }
    }
    g
}

/// The all-ones matrix of order `n`: dense (direct branch), rank 1.
fn singular_dense(n: usize) -> Matrix {
    Matrix::from_vec(n, n, vec![1.0; n * n]).unwrap()
}

fn assert_factor_allocated_once(g: &Matrix) {
    let n = g.rows();
    let c = vec![1.0; n];
    let mut ws = SpdScratch::new();
    let first = factor_sized_allocs(n, || {
        let err = lstsq::solve_spd_with(g, &c, &mut ws, false).unwrap_err();
        assert!(
            matches!(err, LinalgError::NotPositiveDefinite { .. }),
            "{err:?}"
        );
    });
    assert!(first >= 1, "the first failing solve sizes the factor");
    for _ in 0..4 {
        let again = factor_sized_allocs(n, || {
            assert!(lstsq::solve_spd_with(g, &c, &mut ws, false).is_err());
        });
        assert_eq!(again, 0, "a repeated failing solve allocated a new factor");
    }
    assert!(!ws.factor_is_cached(n));
    // The kept buffer holds a failed factor; a solvable system through
    // the same workspace still matches a fresh solve bit for bit.
    let mut spd = Matrix::zeros(n, n);
    for i in 0..n {
        spd[(i, i)] = 3.0 + (i % 5) as f64;
    }
    assert_eq!(
        lstsq::solve_spd_with(&spd, &c, &mut ws, false).unwrap(),
        lstsq::solve_spd(&spd, &c).unwrap()
    );
}

#[test]
fn failing_solves_reuse_the_factor_buffer_on_the_permuted_branch() {
    assert_factor_allocated_once(&singular_sparse(200));
}

#[test]
fn failing_solves_reuse_the_factor_buffer_on_the_direct_branch() {
    assert_factor_allocated_once(&singular_dense(200));
}
