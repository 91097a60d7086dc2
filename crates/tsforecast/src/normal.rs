//! Standard normal CDF and inverse CDF.
//!
//! Needed by the AR(1) baseline estimator (quantiles of a fitted Gaussian
//! marginal) and by the change-point detector's normal-approximation fast
//! path. `phi` uses Cody-style rational `erfc` (abs error < 1e-12 over the
//! useful range); `inv_phi` uses Acklam's algorithm refined by one Halley
//! step (relative error < 1e-13).

// Reference-implementation coefficients are kept verbatim.
#![allow(clippy::excessive_precision)]

/// Standard normal cumulative distribution function Φ(x).
pub fn phi(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal density φ(x).
pub fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (std::f64::consts::TAU).sqrt()
}

/// Complementary error function, via the W. J. Cody rational approximations
/// (as popularized in Numerical Recipes' `erfc` with < 1.2e-7, upgraded here
/// with the higher-precision Chebyshev fit giving ~1e-12).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    // Chebyshev coefficients for erfc (from Numerical Recipes 3rd ed.).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.4196979235649026e-1,
        1.9476473204185836e-2,
        -9.561514786808631e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0f64;
    let mut dd = 0.0f64;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Inverse of the standard normal CDF, Φ⁻¹(p).
///
/// Acklam's rational approximation with one Halley refinement step.
///
/// # Panics
/// Panics unless `0 < p < 1`.
pub fn inv_phi(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "inv_phi requires p in (0,1), got {p}");
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step against the high-precision phi().
    let e = phi(x) - p;
    let u = e * (std::f64::consts::TAU).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-12);
        assert!((phi(1.0) - 0.8413447460685429).abs() < 1e-10);
        assert!((phi(-1.0) - 0.15865525393145707).abs() < 1e-10);
        assert!((phi(1.959963984540054) - 0.975).abs() < 1e-9);
        assert!((phi(2.326347874040841) - 0.99).abs() < 1e-9);
        assert!((phi(-3.0) - 0.0013498980316300933).abs() < 1e-11);
    }

    #[test]
    fn phi_extreme_tails() {
        assert!(phi(-10.0) > 0.0);
        assert!(phi(-10.0) < 1e-20);
        assert!((phi(10.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn erfc_symmetry() {
        for x in [-3.0, -1.0, -0.1, 0.0, 0.5, 2.0] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn inv_phi_round_trips_phi() {
        for &p in &[
            1e-9,
            1e-6,
            0.001,
            0.01,
            0.025,
            0.1,
            0.5,
            0.9,
            0.95,
            0.975,
            0.99,
            0.999,
            1.0 - 1e-9,
        ] {
            let x = inv_phi(p);
            assert!((phi(x) - p).abs() < 1e-11, "p={p}: phi(inv)= {}", phi(x));
        }
    }

    #[test]
    fn inv_phi_known_quantiles() {
        assert!(inv_phi(0.5).abs() < 1e-12);
        assert!((inv_phi(0.975) - 1.959963984540054).abs() < 1e-9);
        assert!((inv_phi(0.99) - 2.3263478740408408).abs() < 1e-9);
        assert!((inv_phi(0.01) + 2.3263478740408408).abs() < 1e-9);
    }

    #[test]
    fn inv_phi_is_odd_around_half() {
        for &p in &[0.001, 0.05, 0.2, 0.4] {
            assert!((inv_phi(p) + inv_phi(1.0 - p)).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "inv_phi requires")]
    fn inv_phi_rejects_zero() {
        inv_phi(0.0);
    }

    #[test]
    #[should_panic(expected = "inv_phi requires")]
    fn inv_phi_rejects_one() {
        inv_phi(1.0);
    }

    #[test]
    fn pdf_integrates_to_cdf_difference() {
        // Trapezoidal integral of pdf over [-1, 1] ~ phi(1) - phi(-1).
        let n = 20_000;
        let h = 2.0 / n as f64;
        let mut integral = 0.5 * (pdf(-1.0) + pdf(1.0));
        for i in 1..n {
            integral += pdf(-1.0 + i as f64 * h);
        }
        integral *= h;
        assert!((integral - (phi(1.0) - phi(-1.0))).abs() < 1e-8);
    }
}
