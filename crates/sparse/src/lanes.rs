//! Lane values: the arithmetic the branch kernel's formulas are written in.
//!
//! A formula generic over [`Real`] is written once and runs two ways: on
//! `f64`, one subproblem at a time (the scalar solver and its oracle), and on
//! [`Lanes`], [`LANES`] subproblems in lock-step, one per lane, the way the
//! threads of a GPU warp advance together. Every `Lanes` operation applies
//! the `f64` operation to each lane on its own — no fused multiply-add, no
//! reassociation, nothing that reads across lanes — so each lane of a
//! lock-step evaluation is bitwise the scalar evaluation of that lane.
//!
//! Control flow that depends on a value becomes a [`Mask`] and a
//! [`Real::select`]; a formula may skip work only when the mask says no lane
//! needs it ([`Mask::any`]), so one lane's data never changes another lane's
//! path.

use std::ops::{Add, AddAssign, BitAnd, BitAndAssign, BitOr, BitOrAssign, Div, Mul, Neg, Not, Sub};

/// Lanes a lock-step group advances together: two `f64`s fill a 128-bit
/// vector register, the width every x86-64 target has.
pub const LANES: usize = 2;

/// A per-lane truth value: `bool` for one lane, [`LaneMask`] for [`LANES`].
pub trait Mask:
    Copy
    + std::fmt::Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
    + BitAndAssign
    + BitOrAssign
{
    /// The same value in every lane.
    fn splat(value: bool) -> Self;
    /// True when some lane is true.
    fn any(self) -> bool;
    /// True when every lane is true.
    fn all(self) -> bool;
}

/// A real number per lane, with the `f64` semantics of each operation
/// (`max`/`min` ignore a NaN operand, `clamp` panics on `lower > upper`).
pub trait Real:
    Copy
    + std::fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
{
    /// The lanes' truth values.
    type Mask: Mask;
    /// The same value in every lane.
    fn splat(value: f64) -> Self;
    /// The value whose lane `k` is `lane(k)`: `lane(0)` for `f64`.
    fn from_lanes(lane: impl Fn(usize) -> f64) -> Self;
    /// `self < other`.
    fn less(self, other: Self) -> Self::Mask;
    /// `self <= other`.
    fn less_eq(self, other: Self) -> Self::Mask;
    /// `self > other`.
    fn greater(self, other: Self) -> Self::Mask;
    /// `self == other`.
    fn equal(self, other: Self) -> Self::Mask;
    /// `self` is NaN.
    fn is_nan(self) -> Self::Mask;
    /// `on_true` where `mask` is true, `on_false` elsewhere.
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `f64::signum`.
    fn signum(self) -> Self;
    /// `f64::max`.
    fn max(self, other: Self) -> Self;
    /// `f64::min`.
    fn min(self, other: Self) -> Self;
    /// `f64::clamp`.
    fn clamp(self, lower: Self, upper: Self) -> Self;
    /// `(sin, cos)`, one `f64::sin_cos` per lane.
    fn sin_cos(self) -> (Self, Self);
}

impl Mask for bool {
    #[inline(always)]
    fn splat(value: bool) -> bool {
        value
    }
    #[inline(always)]
    fn any(self) -> bool {
        self
    }
    #[inline(always)]
    fn all(self) -> bool {
        self
    }
}

impl Real for f64 {
    type Mask = bool;
    #[inline(always)]
    fn splat(value: f64) -> f64 {
        value
    }
    #[inline(always)]
    fn from_lanes(lane: impl Fn(usize) -> f64) -> f64 {
        lane(0)
    }
    #[inline(always)]
    fn less(self, other: f64) -> bool {
        self < other
    }
    #[inline(always)]
    fn less_eq(self, other: f64) -> bool {
        self <= other
    }
    #[inline(always)]
    fn greater(self, other: f64) -> bool {
        self > other
    }
    #[inline(always)]
    fn equal(self, other: f64) -> bool {
        self == other
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline(always)]
    fn select(mask: bool, on_true: f64, on_false: f64) -> f64 {
        if mask {
            on_true
        } else {
            on_false
        }
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline(always)]
    fn signum(self) -> f64 {
        f64::signum(self)
    }
    #[inline(always)]
    fn max(self, other: f64) -> f64 {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: f64) -> f64 {
        f64::min(self, other)
    }
    #[inline(always)]
    fn clamp(self, lower: f64, upper: f64) -> f64 {
        f64::clamp(self, lower, upper)
    }
    #[inline(always)]
    fn sin_cos(self) -> (f64, f64) {
        f64::sin_cos(self)
    }
}

/// [`LANES`] `f64`s, one per lane of a lock-step group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes(pub [f64; LANES]);

/// [`LANES`] truth values, one per lane of a lock-step group. Each is held
/// as an all-ones or all-zero 64-bit word, the shape of a vector compare's
/// result, so that [`Real::select`] is three bitwise operations on the
/// lanes, not a branch per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneMask([u64; LANES]);

impl Lanes {
    /// The lanes `value(0), …, value(LANES − 1)`.
    #[inline(always)]
    pub fn from_fn(value: impl Fn(usize) -> f64) -> Lanes {
        let mut out = [0.0; LANES];
        for (k, v) in out.iter_mut().enumerate() {
            *v = value(k);
        }
        Lanes(out)
    }

    /// `op` on each lane.
    #[inline(always)]
    fn map(self, op: impl Fn(f64) -> f64) -> Lanes {
        Lanes::from_fn(|k| op(self.0[k]))
    }

    /// `op` on each pair of lanes.
    #[inline(always)]
    fn zip(self, other: Lanes, op: impl Fn(f64, f64) -> f64) -> Lanes {
        Lanes::from_fn(|k| op(self.0[k], other.0[k]))
    }

    /// `test` on each pair of lanes.
    #[inline(always)]
    fn test(self, other: Lanes, test: impl Fn(f64, f64) -> bool) -> LaneMask {
        LaneMask::from_fn(|k| test(self.0[k], other.0[k]))
    }
}

impl LaneMask {
    /// The lanes `value(0), …, value(LANES − 1)`.
    #[inline(always)]
    pub fn from_fn(value: impl Fn(usize) -> bool) -> LaneMask {
        let mut out = [0; LANES];
        for (k, v) in out.iter_mut().enumerate() {
            *v = u64::from(value(k)).wrapping_neg();
        }
        LaneMask(out)
    }

    /// Lane `k`'s value.
    #[inline(always)]
    pub fn lane(self, k: usize) -> bool {
        self.0[k] != 0
    }

    /// `op` on each pair of lanes' words.
    #[inline(always)]
    fn zip(self, other: LaneMask, op: impl Fn(u64, u64) -> u64) -> LaneMask {
        let mut out = [0; LANES];
        for (k, v) in out.iter_mut().enumerate() {
            *v = op(self.0[k], other.0[k]);
        }
        LaneMask(out)
    }

    /// The lanes' words or-ed (`fold` with `|`) or and-ed together.
    #[inline(always)]
    fn fold(self, init: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        self.0.iter().fold(init, |acc, &word| op(acc, word))
    }
}

macro_rules! lanewise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Lanes {
            type Output = Lanes;
            #[inline(always)]
            fn $method(self, other: Lanes) -> Lanes {
                self.zip(other, |a, b| a $op b)
            }
        }
    };
}

lanewise!(Add, add, +);
lanewise!(Sub, sub, -);
lanewise!(Mul, mul, *);
lanewise!(Div, div, /);

impl Neg for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn neg(self) -> Lanes {
        self.map(|a| -a)
    }
}

impl AddAssign for Lanes {
    #[inline(always)]
    fn add_assign(&mut self, other: Lanes) {
        *self = *self + other;
    }
}

impl BitAnd for LaneMask {
    type Output = LaneMask;
    #[inline(always)]
    fn bitand(self, other: LaneMask) -> LaneMask {
        self.zip(other, |a, b| a & b)
    }
}

impl BitOr for LaneMask {
    type Output = LaneMask;
    #[inline(always)]
    fn bitor(self, other: LaneMask) -> LaneMask {
        self.zip(other, |a, b| a | b)
    }
}

impl Not for LaneMask {
    type Output = LaneMask;
    #[inline(always)]
    fn not(self) -> LaneMask {
        self.zip(self, |a, _| !a)
    }
}

impl BitAndAssign for LaneMask {
    #[inline(always)]
    fn bitand_assign(&mut self, other: LaneMask) {
        *self = *self & other;
    }
}

impl BitOrAssign for LaneMask {
    #[inline(always)]
    fn bitor_assign(&mut self, other: LaneMask) {
        *self = *self | other;
    }
}

impl Mask for LaneMask {
    #[inline(always)]
    fn splat(value: bool) -> LaneMask {
        LaneMask::from_fn(|_| value)
    }
    #[inline(always)]
    fn any(self) -> bool {
        self.fold(0, |a, b| a | b) != 0
    }
    #[inline(always)]
    fn all(self) -> bool {
        self.fold(!0, |a, b| a & b) != 0
    }
}

impl Real for Lanes {
    type Mask = LaneMask;
    #[inline(always)]
    fn splat(value: f64) -> Lanes {
        Lanes([value; LANES])
    }
    #[inline(always)]
    fn from_lanes(lane: impl Fn(usize) -> f64) -> Lanes {
        Lanes::from_fn(lane)
    }
    #[inline(always)]
    fn less(self, other: Lanes) -> LaneMask {
        self.test(other, |a, b| a < b)
    }
    #[inline(always)]
    fn less_eq(self, other: Lanes) -> LaneMask {
        self.test(other, |a, b| a <= b)
    }
    #[inline(always)]
    fn greater(self, other: Lanes) -> LaneMask {
        self.test(other, |a, b| a > b)
    }
    #[inline(always)]
    fn equal(self, other: Lanes) -> LaneMask {
        self.test(other, |a, b| a == b)
    }
    #[inline(always)]
    fn is_nan(self) -> LaneMask {
        self.test(self, |a, b| a != b)
    }
    #[inline(always)]
    fn select(mask: LaneMask, on_true: Lanes, on_false: Lanes) -> Lanes {
        Lanes::from_fn(|k| {
            let m = mask.0[k];
            f64::from_bits(on_true.0[k].to_bits() & m | on_false.0[k].to_bits() & !m)
        })
    }
    #[inline(always)]
    fn sqrt(self) -> Lanes {
        self.map(f64::sqrt)
    }
    #[inline(always)]
    fn abs(self) -> Lanes {
        self.map(f64::abs)
    }
    #[inline(always)]
    fn signum(self) -> Lanes {
        self.map(f64::signum)
    }
    #[inline(always)]
    fn max(self, other: Lanes) -> Lanes {
        self.zip(other, f64::max)
    }
    #[inline(always)]
    fn min(self, other: Lanes) -> Lanes {
        self.zip(other, f64::min)
    }
    /// `f64::clamp` in each lane, with its check of the bounds made once
    /// for all lanes, so that the lanes compare and select together.
    #[inline(always)]
    fn clamp(self, lower: Lanes, upper: Lanes) -> Lanes {
        assert!(
            lower.less_eq(upper).all(),
            "min > max, or either was NaN. min = {lower:?}, max = {upper:?}"
        );
        let raised = Lanes::select(self.less(lower), lower, self);
        Lanes::select(raised.greater(upper), upper, raised)
    }
    #[inline(always)]
    fn sin_cos(self) -> (Lanes, Lanes) {
        let mut out = ([0.0; LANES], [0.0; LANES]);
        for k in 0..LANES {
            (out.0[k], out.1[k]) = self.0[k].sin_cos();
        }
        (Lanes(out.0), Lanes(out.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_lane_is_the_f64_operation() {
        let a = Lanes([1.5, f64::NAN]);
        let b = Lanes([-0.0, 2.0]);
        assert_eq!((a + b).0[0].to_bits(), (1.5f64 + -0.0).to_bits());
        assert!((a * b).0[1].is_nan());
        assert_eq!(a.max(b).0, [1.5, 2.0]);
        let mask = |bits: [bool; 2]| LaneMask::from_fn(|k| bits[k]);
        assert_eq!(a.less(b), mask([false, false]));
        assert_eq!(a.is_nan(), mask([false, true]));
        let picked = Lanes::select(mask([true, false]), a, b);
        assert_eq!(picked.0, [1.5, 2.0]);
        let (s, c) = Lanes([0.5, -3.0]).sin_cos();
        assert_eq!((s.0[1], c.0[1]), (-3.0f64).sin_cos());
        assert!(mask([true, false]).any() && !mask([true, false]).all());
        assert!(mask([true, true]).all() && !mask([false, false]).any());
        assert!(mask([false, true]).lane(1) && !(!mask([false, true])).lane(1));
    }
}
