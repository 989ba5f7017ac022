//! Join predicates `P(r, s)` and the probe plans they induce on stored
//! state.
//!
//! The join-biclique model supports arbitrary theta predicates because each
//! edge `R_i—S_j` can in principle compute a Cartesian product. In practice
//! the joiner asks the predicate *how to probe its index*: an equi predicate
//! yields an exact-key lookup, a band predicate a bounded range, an
//! inequality a half-open range, and anything else a full scan. That single
//! [`ProbePlan`] abstraction is what lets the chained index serve every
//! predicate class with the right sub-index type.

use crate::error::{Error, Result};
use crate::rel::Rel;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;

/// Comparison operators for theta joins, applied as `r.attr OP s.attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `r.attr < s.attr`
    Lt,
    /// `r.attr <= s.attr`
    Le,
    /// `r.attr > s.attr`
    Gt,
    /// `r.attr >= s.attr`
    Ge,
    /// `r.attr != s.attr`
    Ne,
}

impl CmpOp {
    /// Evaluate the operator on an `Ordering` of `r.attr` vs `s.attr`.
    #[inline]
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }

    /// The operator seen from the other side: if `r OP s` then
    /// `s OP.flip() r`.
    #[inline]
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// A binary join predicate over one attribute of each relation.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinPredicate {
    /// `r[r_attr] == s[s_attr]` — the low-selectivity class routed
    /// content-sensitively.
    Equi {
        /// Join attribute index on the R side.
        r_attr: usize,
        /// Join attribute index on the S side.
        s_attr: usize,
    },
    /// `|r[r_attr] − s[s_attr]| <= band` over numeric attributes.
    Band {
        /// Join attribute index on the R side.
        r_attr: usize,
        /// Join attribute index on the S side.
        s_attr: usize,
        /// Band half-width (inclusive).
        band: f64,
    },
    /// `r[r_attr] OP s[s_attr]` for an inequality operator.
    Theta {
        /// Join attribute index on the R side.
        r_attr: usize,
        /// Join attribute index on the S side.
        s_attr: usize,
        /// The comparison operator.
        op: CmpOp,
    },
    /// Always true — the full Cartesian product, used by tests and as the
    /// degenerate high-selectivity case.
    Cross,
}

/// How a joiner should probe stored state for matches of a probe value.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbePlan {
    /// Look up exactly this key (hash sub-index).
    ExactKey(Value),
    /// Scan the ordered sub-index over this key range.
    Range {
        /// Lower bound on the stored attribute.
        lo: Bound<Value>,
        /// Upper bound on the stored attribute.
        hi: Bound<Value>,
    },
    /// Compare against every stored tuple.
    FullScan,
}

impl JoinPredicate {
    /// The join attribute index consulted on tuples of `side`.
    ///
    /// `Cross` has no join attribute; index 0 is returned as a harmless
    /// placeholder (its value is never inspected).
    pub fn attr_of(&self, side: Rel) -> usize {
        let (r, s) = match *self {
            JoinPredicate::Equi { r_attr, s_attr } => (r_attr, s_attr),
            JoinPredicate::Band { r_attr, s_attr, .. } => (r_attr, s_attr),
            JoinPredicate::Theta { r_attr, s_attr, .. } => (r_attr, s_attr),
            JoinPredicate::Cross => (0, 0),
        };
        match side {
            Rel::R => r,
            Rel::S => s,
        }
    }

    /// True for predicates whose matches are confined to a single key —
    /// the class for which content-sensitive (hash) routing is applicable.
    pub fn is_equi(&self) -> bool {
        matches!(self, JoinPredicate::Equi { .. })
    }

    /// The routing key of `t` under this predicate (equi joins only).
    pub fn routing_key<'t>(&self, t: &'t Tuple) -> Option<&'t Value> {
        if self.is_equi() {
            t.get(self.attr_of(t.rel()))
        } else {
            None
        }
    }

    /// Evaluate `P(r, s)`.
    ///
    /// # Errors
    /// [`Error::Schema`] if a join attribute is out of range, or a band
    /// predicate meets a non-numeric value.
    pub fn evaluate(&self, r: &Tuple, s: &Tuple) -> Result<bool> {
        debug_assert_eq!(r.rel(), Rel::R);
        debug_assert_eq!(s.rel(), Rel::S);
        match self {
            JoinPredicate::Cross => Ok(true),
            JoinPredicate::Equi { r_attr, s_attr } => {
                Ok(r.require(*r_attr)? == s.require(*s_attr)?)
            }
            JoinPredicate::Theta { r_attr, s_attr, op } => {
                Ok(op.eval(r.require(*r_attr)?.cmp(s.require(*s_attr)?)))
            }
            JoinPredicate::Band { r_attr, s_attr, band } => {
                let a = numeric(r.require(*r_attr)?)?;
                let b = numeric(s.require(*s_attr)?)?;
                Ok((a - b).abs() <= *band)
            }
        }
    }

    /// Side-agnostic evaluation: `a` and `b` may be `(r, s)` or `(s, r)`.
    pub fn matches(&self, a: &Tuple, b: &Tuple) -> Result<bool> {
        if a.rel() == Rel::R {
            self.evaluate(a, b)
        } else {
            self.evaluate(b, a)
        }
    }

    /// The probe plan for finding stored tuples of `probe.rel().opposite()`
    /// that match `probe`.
    ///
    /// The plan's key bounds are expressed on the *stored* side's join
    /// attribute. Band plans over integer-keyed data still produce `Float`
    /// bounds; [`Value`]'s cross-numeric ordering makes that correct.
    pub fn probe_plan(&self, probe: &Tuple) -> Result<ProbePlan> {
        match self {
            JoinPredicate::Cross => Ok(ProbePlan::FullScan),
            JoinPredicate::Equi { .. } => {
                let v = probe.require(self.attr_of(probe.rel()))?;
                Ok(ProbePlan::ExactKey(v.clone()))
            }
            JoinPredicate::Band { band, .. } => {
                let v = numeric(probe.require(self.attr_of(probe.rel()))?)?;
                Ok(ProbePlan::Range {
                    lo: Bound::Included(Value::Float(v - band)),
                    hi: Bound::Included(Value::Float(v + band)),
                })
            }
            JoinPredicate::Theta { op, .. } => {
                // Predicate is r.attr OP s.attr. When the probe is from S we
                // need stored r with r.attr OP v; when from R we need stored
                // s with v OP s.attr, i.e. s.attr OP.flip() v.
                let v = probe.require(self.attr_of(probe.rel()))?.clone();
                let stored_op = match probe.rel() {
                    Rel::S => *op,
                    Rel::R => op.flip(),
                };
                Ok(match stored_op {
                    CmpOp::Lt => ProbePlan::Range { lo: Bound::Unbounded, hi: Bound::Excluded(v) },
                    CmpOp::Le => ProbePlan::Range { lo: Bound::Unbounded, hi: Bound::Included(v) },
                    CmpOp::Gt => ProbePlan::Range { lo: Bound::Excluded(v), hi: Bound::Unbounded },
                    CmpOp::Ge => ProbePlan::Range { lo: Bound::Included(v), hi: Bound::Unbounded },
                    CmpOp::Ne => ProbePlan::FullScan,
                })
            }
        }
    }
}

fn numeric(v: &Value) -> Result<f64> {
    v.as_f64().ok_or_else(|| Error::Schema(format!("band join needs numeric attribute, got {v}")))
}

impl fmt::Display for JoinPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinPredicate::Equi { r_attr, s_attr } => write!(f, "R[{r_attr}] = S[{s_attr}]"),
            JoinPredicate::Band { r_attr, s_attr, band } => {
                write!(f, "|R[{r_attr}] - S[{s_attr}]| <= {band}")
            }
            JoinPredicate::Theta { r_attr, s_attr, op } => {
                write!(f, "R[{r_attr}] {op} S[{s_attr}]")
            }
            JoinPredicate::Cross => write!(f, "true"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ts: u64, k: i64) -> Tuple {
        Tuple::new(Rel::R, ts, vec![Value::Int(k)])
    }
    fn s(ts: u64, k: i64) -> Tuple {
        Tuple::new(Rel::S, ts, vec![Value::Int(k)])
    }

    #[test]
    fn equi_matches_equal_keys_only() {
        let p = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
        assert!(p.evaluate(&r(0, 5), &s(0, 5)).unwrap());
        assert!(!p.evaluate(&r(0, 5), &s(0, 6)).unwrap());
        assert!(p.is_equi());
        assert_eq!(p.routing_key(&r(0, 5)), Some(&Value::Int(5)));
    }

    #[test]
    fn band_matches_within_half_width_inclusive() {
        let p = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 2.0 };
        assert!(p.evaluate(&r(0, 5), &s(0, 7)).unwrap());
        assert!(p.evaluate(&r(0, 5), &s(0, 3)).unwrap());
        assert!(!p.evaluate(&r(0, 5), &s(0, 8)).unwrap());
        assert!(p.routing_key(&r(0, 5)).is_none());
    }

    #[test]
    fn theta_ops_follow_r_op_s_direction() {
        let lt = JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Lt };
        assert!(lt.evaluate(&r(0, 1), &s(0, 2)).unwrap());
        assert!(!lt.evaluate(&r(0, 2), &s(0, 1)).unwrap());
        let ne = JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Ne };
        assert!(ne.evaluate(&r(0, 1), &s(0, 2)).unwrap());
        assert!(!ne.evaluate(&r(0, 2), &s(0, 2)).unwrap());
    }

    #[test]
    fn matches_is_side_agnostic() {
        let lt = JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Lt };
        let (a, b) = (r(0, 1), s(0, 2));
        assert_eq!(lt.matches(&a, &b).unwrap(), lt.matches(&b, &a).unwrap());
    }

    #[test]
    fn probe_plan_equi_is_exact_key() {
        let p = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
        assert_eq!(p.probe_plan(&s(0, 9)).unwrap(), ProbePlan::ExactKey(Value::Int(9)));
    }

    #[test]
    fn probe_plan_band_is_symmetric_range() {
        let p = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.5 };
        match p.probe_plan(&s(0, 10)).unwrap() {
            ProbePlan::Range { lo, hi } => {
                assert_eq!(lo, Bound::Included(Value::Float(8.5)));
                assert_eq!(hi, Bound::Included(Value::Float(11.5)));
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    /// The direction-flipping logic of theta probe plans is subtle enough to
    /// verify exhaustively against the direct evaluation.
    #[test]
    fn theta_probe_plans_agree_with_evaluation() {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let p = JoinPredicate::Theta { r_attr: 0, s_attr: 0, op };
            for stored_k in -3..=3 {
                for probe_k in -3..=3 {
                    // Probe from S against stored R.
                    let stored = r(0, stored_k);
                    let probe = s(0, probe_k);
                    let expect = p.evaluate(&stored, &probe).unwrap();
                    let got = plan_contains(&p.probe_plan(&probe).unwrap(), &Value::Int(stored_k));
                    assert_eq!(got, expect, "{op:?} stored R={stored_k} probe S={probe_k}");
                    // Probe from R against stored S.
                    let stored = s(0, stored_k);
                    let probe = r(0, probe_k);
                    let expect = p.evaluate(&probe, &stored).unwrap();
                    let got = plan_contains(&p.probe_plan(&probe).unwrap(), &Value::Int(stored_k));
                    assert_eq!(got, expect, "{op:?} stored S={stored_k} probe R={probe_k}");
                }
            }
        }
    }

    fn plan_contains(plan: &ProbePlan, stored: &Value) -> bool {
        match plan {
            ProbePlan::ExactKey(k) => k == stored,
            ProbePlan::FullScan => true,
            ProbePlan::Range { lo, hi } => {
                let lo_ok = match lo {
                    Bound::Unbounded => true,
                    Bound::Included(v) => stored >= v,
                    Bound::Excluded(v) => stored > v,
                };
                let hi_ok = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(v) => stored <= v,
                    Bound::Excluded(v) => stored < v,
                };
                lo_ok && hi_ok
            }
        }
    }

    #[test]
    fn band_rejects_non_numeric() {
        let p = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.0 };
        let bad = Tuple::new(Rel::R, 0, vec![Value::Str("x".into())]);
        assert!(p.evaluate(&bad, &s(0, 1)).is_err());
    }

    #[test]
    fn out_of_range_attribute_is_schema_error() {
        let p = JoinPredicate::Equi { r_attr: 3, s_attr: 0 };
        assert!(matches!(p.evaluate(&r(0, 1), &s(0, 1)), Err(Error::Schema(_))));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            JoinPredicate::Band { r_attr: 1, s_attr: 2, band: 0.5 }.to_string(),
            "|R[1] - S[2]| <= 0.5"
        );
        assert_eq!(
            JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Ge }.to_string(),
            "R[0] >= S[0]"
        );
    }
}
