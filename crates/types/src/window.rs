//! Window specifications and the Theorem-1 expiry rule.
//!
//! BiStream supports both time-based sliding windows and full-history
//! joins; the window specification is consulted in exactly two places:
//! when deciding whether a stored tuple can still match future arrivals
//! (expiry), and when deciding whether two present tuples are within scope
//! of each other (the pairwise window check during join processing).

use crate::time::Ts;
use std::fmt;

/// The scope of stream state retained for joining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Time-based sliding window of `ws` milliseconds: a stored tuple `x`
    /// joins an incoming tuple `y` iff `|y.ts − x.ts| <= ws`.
    TimeSliding {
        /// Window size in milliseconds.
        ws: Ts,
    },
    /// Unbounded state: every pair of tuples is in scope (the model's
    /// full-history join).
    FullHistory,
}

impl WindowSpec {
    /// Convenience constructor for a sliding window of `ws` milliseconds.
    pub fn sliding(ws: Ts) -> WindowSpec {
        WindowSpec::TimeSliding { ws }
    }

    /// The window length, if bounded.
    pub fn size(&self) -> Option<Ts> {
        match self {
            WindowSpec::TimeSliding { ws } => Some(*ws),
            WindowSpec::FullHistory => None,
        }
    }

    /// **Theorem 1** (safe discarding): a stored tuple with timestamp
    /// `stored_ts` can be removed once a tuple of the *opposite* relation
    /// with timestamp `incoming_ts` satisfying
    /// `incoming_ts − stored_ts > ws` has been received, because (under the
    /// order-consistent protocol) no later opposite-side tuple can have a
    /// smaller timestamp, so the stored tuple can never match again.
    #[inline]
    pub fn is_expired(&self, stored_ts: Ts, incoming_ts: Ts) -> bool {
        match self {
            WindowSpec::TimeSliding { ws } => incoming_ts.saturating_sub(stored_ts) > *ws,
            WindowSpec::FullHistory => false,
        }
    }

    /// The pairwise window check performed at join time: are `a_ts` and
    /// `b_ts` within one window of each other (in either direction)?
    ///
    /// This is required *in addition to* expiry because sub-index-level
    /// discarding is deliberately lazy — an inactive sub-index may still
    /// contain a few individually-stale tuples until the whole sub-index
    /// expires.
    #[inline]
    pub fn in_scope(&self, a_ts: Ts, b_ts: Ts) -> bool {
        match self {
            WindowSpec::TimeSliding { ws } => a_ts.abs_diff(b_ts) <= *ws,
            WindowSpec::FullHistory => true,
        }
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpec::TimeSliding { ws } => write!(f, "sliding({ws}ms)"),
            WindowSpec::FullHistory => write!(f, "full-history"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_expiry_is_strict_inequality() {
        let w = WindowSpec::sliding(100);
        assert!(!w.is_expired(0, 100), "exactly one window apart is still live");
        assert!(w.is_expired(0, 101));
        assert!(!w.is_expired(50, 40), "older incoming never expires newer stored");
    }

    #[test]
    fn full_history_never_expires() {
        let w = WindowSpec::FullHistory;
        assert!(!w.is_expired(0, u64::MAX));
        assert!(w.in_scope(0, u64::MAX));
        assert_eq!(w.size(), None);
    }

    #[test]
    fn in_scope_is_symmetric() {
        let w = WindowSpec::sliding(10);
        assert!(w.in_scope(5, 15));
        assert!(w.in_scope(15, 5));
        assert!(!w.in_scope(5, 16));
        assert!(!w.in_scope(16, 5));
    }

    #[test]
    fn expiry_implies_out_of_scope() {
        let w = WindowSpec::sliding(7);
        for stored in 0..20u64 {
            for incoming in 0..20u64 {
                if w.is_expired(stored, incoming) {
                    assert!(!w.in_scope(stored, incoming));
                }
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(WindowSpec::sliding(5).to_string(), "sliding(5ms)");
        assert_eq!(WindowSpec::FullHistory.to_string(), "full-history");
    }
}
