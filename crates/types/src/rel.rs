//! The two streaming relations `R` and `S` joined by the biclique.

use std::fmt;

/// Which streaming relation a tuple (or processing unit) belongs to.
///
/// The join-biclique model is symmetric in `R` and `S`; code that treats
/// one side specially should take a `Rel` parameter and use
/// [`Rel::opposite`] rather than hard-coding a side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    /// The left streaming relation.
    R,
    /// The right streaming relation.
    S,
}

impl Rel {
    /// The other side of the biclique: tuples from `self` are *stored* on
    /// `self`'s units and *joined* on `self.opposite()`'s units.
    #[inline]
    pub fn opposite(self) -> Rel {
        match self {
            Rel::R => Rel::S,
            Rel::S => Rel::R,
        }
    }

    /// Both relations, in canonical order. Handy for iteration in tests and
    /// topology construction.
    pub const BOTH: [Rel; 2] = [Rel::R, Rel::S];

    /// Stable single-byte encoding used in the wire format.
    #[inline]
    pub fn as_byte(self) -> u8 {
        match self {
            Rel::R => 0,
            Rel::S => 1,
        }
    }

    /// Inverse of [`Rel::as_byte`].
    #[inline]
    pub fn from_byte(b: u8) -> Option<Rel> {
        match b {
            0 => Some(Rel::R),
            1 => Some(Rel::S),
            _ => None,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rel::R => write!(f, "R"),
            Rel::S => write!(f, "S"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_an_involution() {
        for side in Rel::BOTH {
            assert_eq!(side.opposite().opposite(), side);
            assert_ne!(side.opposite(), side);
        }
    }

    #[test]
    fn byte_roundtrip() {
        for side in Rel::BOTH {
            assert_eq!(Rel::from_byte(side.as_byte()), Some(side));
        }
        assert_eq!(Rel::from_byte(9), None);
    }

    #[test]
    fn display() {
        assert_eq!(Rel::R.to_string(), "R");
        assert_eq!(Rel::S.to_string(), "S");
    }
}
