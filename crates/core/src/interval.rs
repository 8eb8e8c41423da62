//! Closed-interval arithmetic for confidence-interval evaluation (§3.5).
//!
//! Instead of comparing point estimates against thresholds, ease.ml/ci
//! replaces every estimate by its confidence interval and evaluates the
//! condition with a "simple algebra over intervals" — e.g.
//! `[a, b] + [c, d] = [a + c, b + d]`. The resulting three-valued
//! comparison is handled in [`crate::logic`].

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A closed interval `[lo, hi]` on the real line.
///
/// Invariant: `lo <= hi` and both endpoints are finite. Construction
/// enforces the invariant by panicking in debug builds and swapping in
/// release builds (a misordered interval is always a caller bug).
///
/// # Examples
///
/// ```
/// use easeml_ci_core::Interval;
///
/// let n = Interval::around(0.92, 0.01); // estimate ± tolerance
/// let o = Interval::around(0.90, 0.01);
/// let diff = n - o;
/// assert!((diff.lo() - 0.0).abs() < 1e-12);
/// assert!((diff.hi() - 0.04).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Create an interval from its endpoints.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi` or either endpoint is not
    /// finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(
            lo.is_finite() && hi.is_finite(),
            "interval endpoints must be finite"
        );
        debug_assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi}]");
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// The degenerate interval `[x, x]`.
    #[must_use]
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// The interval `[center - radius, center + radius]` — the natural
    /// encoding of an `(ε, δ)` estimate `x̂ ± ε`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `radius` is negative.
    #[must_use]
    pub fn around(center: f64, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "radius must be non-negative");
        Interval::new(center - radius, center + radius)
    }

    /// Lower endpoint.
    #[must_use]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Midpoint of the interval.
    #[must_use]
    pub fn midpoint(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Total width `hi - lo` (twice the tolerance for an `x̂ ± ε`
    /// estimate).
    #[must_use]
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies in the closed interval.
    #[must_use]
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether the whole interval is strictly greater than `x`.
    #[must_use]
    pub fn strictly_above(self, x: f64) -> bool {
        self.lo > x
    }

    /// Whether the whole interval is strictly smaller than `x`.
    #[must_use]
    pub fn strictly_below(self, x: f64) -> bool {
        self.hi < x
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo - rhs.hi,
            hi: self.hi - rhs.lo,
        }
    }
}

impl Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;

    fn mul(self, c: f64) -> Interval {
        if c >= 0.0 {
            Interval {
                lo: self.lo * c,
                hi: self.hi * c,
            }
        } else {
            Interval {
                lo: self.hi * c,
                hi: self.lo * c,
            }
        }
    }
}

impl Mul<Interval> for f64 {
    type Output = Interval;

    fn mul(self, i: Interval) -> Interval {
        i * self
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(0.1, 0.3);
        assert_eq!(i.lo(), 0.1);
        assert_eq!(i.hi(), 0.3);
        assert!((i.midpoint() - 0.2).abs() < 1e-15);
        assert!((i.width() - 0.2).abs() < 1e-15);
        let p = Interval::point(0.5);
        assert_eq!(p.width(), 0.0);
        let a = Interval::around(0.9, 0.02);
        assert!((a.lo() - 0.88).abs() < 1e-15);
        assert!((a.hi() - 0.92).abs() < 1e-15);
    }

    #[test]
    fn arithmetic_is_outward_sound() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(10.0, 20.0);
        assert_eq!(a + b, Interval::new(11.0, 22.0));
        assert_eq!(b - a, Interval::new(8.0, 19.0));
        assert_eq!(-a, Interval::new(-2.0, -1.0));
        assert_eq!(a * 3.0, Interval::new(3.0, 6.0));
        assert_eq!(a * -1.0, Interval::new(-2.0, -1.0));
        assert_eq!(2.0 * a, Interval::new(2.0, 4.0));
    }

    #[test]
    fn subtraction_width_adds() {
        // The width of a difference is the sum of the widths — exactly why
        // estimating n - o to ε needs each variable estimated to ε/2.
        let n = Interval::around(0.92, 0.01);
        let o = Interval::around(0.90, 0.01);
        assert!(((n - o).width() - 0.04).abs() < 1e-15);
    }

    #[test]
    fn containment_queries() {
        let i = Interval::new(0.0, 1.0);
        assert!(i.contains(0.0) && i.contains(1.0) && i.contains(0.5));
        assert!(!i.contains(-0.001) && !i.contains(1.001));
    }

    #[test]
    fn strict_comparisons() {
        let i = Interval::new(0.11, 0.2);
        assert!(i.strictly_above(0.1));
        assert!(!i.strictly_above(0.11));
        assert!(i.strictly_below(0.21));
        assert!(!i.strictly_below(0.2));
    }

    #[test]
    fn display() {
        assert_eq!(Interval::new(0.0, 0.5).to_string(), "[0, 0.5]");
    }
}
