//! Planted violation: float `==` / `!=` comparisons in kernel code.

pub fn converged(residual: f64) -> bool {
    residual == 0.0
}

pub fn still_moving(step: f64) -> bool {
    step != 1.0e-9
}

pub fn annotated_sentinel(x: f64) -> bool {
    x == 0.0 // mtm-allow: float-eq -- exact sparse-skip sentinel, not flagged
}

pub fn integer_compare_is_fine(n: usize) -> bool {
    n == 3
}
