//! Small vector helpers used across the workspace.

pub use crate::blas::dot;

/// Scale a vector in place.
pub fn scale(x: &mut [f64], s: f64) {
    for v in x {
        *v *= s;
    }
}

/// Elementwise sum into a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Elementwise difference into a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Index and value of the maximum entry; `None` for empty or all-NaN input.
pub fn argmax(x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_skips_nan() {
        let x = [1.0, f64::NAN, 3.0, 2.0];
        assert_eq!(argmax(&x), Some((2, 3.0)));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn add_sub_scale() {
        let a = [1.0, 2.0];
        let b = [3.0, 5.0];
        assert_eq!(add(&a, &b), vec![4.0, 7.0]);
        assert_eq!(sub(&b, &a), vec![2.0, 3.0]);
        let mut c = [2.0, 4.0];
        scale(&mut c, 0.5);
        assert_eq!(c, [1.0, 2.0]);
    }
}
