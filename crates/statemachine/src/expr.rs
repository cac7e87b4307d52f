//! Guard and action expressions, interpreted at run time.
//!
//! Expressions are plain data (serializable), matching the paper's "models
//! as system components" idea: the model artifact the framework executes at
//! run time carries its guard logic with it, rather than compiling it away.

use crate::event::Event;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// The variable context an expression evaluates against.
pub type Vars = BTreeMap<String, Value>;

/// An expression over model variables and the triggering event's payload.
///
/// ```
/// use statemachine::{Expr, Value};
/// use std::collections::BTreeMap;
///
/// let mut vars = BTreeMap::new();
/// vars.insert("volume".to_owned(), Value::Int(30));
/// let expr = Expr::var("volume").ge(Expr::lit(20));
/// assert_eq!(expr.eval(&vars, None).unwrap(), Value::Bool(true));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// The value of a model variable.
    Var(String),
    /// The payload of the triggering event (error if absent).
    Payload,
    /// Logical and (short-circuit).
    And(Box<Expr>, Box<Expr>),
    /// Logical or (short-circuit).
    Or(Box<Expr>, Box<Expr>),
    /// Equality (value equality; numeric kinds compare numerically).
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality.
    Ne(Box<Expr>, Box<Expr>),
    /// Less-than (numeric).
    Lt(Box<Expr>, Box<Expr>),
    /// Less-or-equal (numeric).
    Le(Box<Expr>, Box<Expr>),
    /// Greater-or-equal (numeric).
    Ge(Box<Expr>, Box<Expr>),
    /// Addition (Int+Int stays Int; otherwise Float).
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Clamp a numeric value into `[lo, hi]`.
    Clamp {
        /// The value to clamp.
        value: Box<Expr>,
        /// Inclusive lower bound.
        lo: Box<Expr>,
        /// Inclusive upper bound.
        hi: Box<Expr>,
    },
    /// Conditional: `if cond { then } else { otherwise }`.
    If {
        /// Boolean condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// Minimum of two numeric values.
    Min(Box<Expr>, Box<Expr>),
    /// Maximum of two numeric values.
    Max(Box<Expr>, Box<Expr>),
}

/// Errors raised while evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Referenced variable is not in the context.
    UnknownVar(String),
    /// `Payload` used but the trigger carried none.
    NoPayload,
    /// Operand had the wrong type for the operator.
    TypeMismatch {
        /// The operator that failed.
        op: &'static str,
        /// Debug rendering of the offending value.
        value: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            EvalError::NoPayload => write!(f, "event carries no payload"),
            EvalError::TypeMismatch { op, value } => {
                write!(f, "type mismatch in `{op}` on {value}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(rhs))
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Ne(Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Lt(Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Le(Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Ge(Box::new(self), Box::new(rhs))
    }

    /// `self && rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self || rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `if self { then } else { otherwise }`.
    pub fn if_else(self, then: Expr, otherwise: Expr) -> Expr {
        Expr::If {
            cond: Box::new(self),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    /// `clamp(self, lo, hi)`.
    pub fn clamp(self, lo: Expr, hi: Expr) -> Expr {
        Expr::Clamp {
            value: Box::new(self),
            lo: Box::new(lo),
            hi: Box::new(hi),
        }
    }

    /// Evaluates against variable context and optional triggering event.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on unknown variables, a missing payload, or
    /// operand type mismatches.
    pub fn eval(&self, vars: &Vars, event: Option<&Event>) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(name) => vars
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::UnknownVar(name.clone())),
            Expr::Payload => event
                .and_then(|e| e.payload.clone())
                .ok_or(EvalError::NoPayload),
            Expr::And(a, b) => {
                let va = a.eval(vars, event)?;
                let ba = va.as_bool().ok_or_else(|| type_err("and", &va))?;
                if !ba {
                    return Ok(Value::Bool(false));
                }
                let vb = b.eval(vars, event)?;
                let bb = vb.as_bool().ok_or_else(|| type_err("and", &vb))?;
                Ok(Value::Bool(bb))
            }
            Expr::Or(a, b) => {
                let va = a.eval(vars, event)?;
                let ba = va.as_bool().ok_or_else(|| type_err("or", &va))?;
                if ba {
                    return Ok(Value::Bool(true));
                }
                let vb = b.eval(vars, event)?;
                let bb = vb.as_bool().ok_or_else(|| type_err("or", &vb))?;
                Ok(Value::Bool(bb))
            }
            Expr::Eq(a, b) => Ok(Value::Bool(values_equal(
                &a.eval(vars, event)?,
                &b.eval(vars, event)?,
            ))),
            Expr::Ne(a, b) => Ok(Value::Bool(!values_equal(
                &a.eval(vars, event)?,
                &b.eval(vars, event)?,
            ))),
            Expr::Lt(a, b) => numeric_cmp("lt", a, b, vars, event, |x, y| x < y),
            Expr::Le(a, b) => numeric_cmp("le", a, b, vars, event, |x, y| x <= y),
            Expr::Ge(a, b) => numeric_cmp("ge", a, b, vars, event, |x, y| x >= y),
            Expr::Add(a, b) => arith(
                "add",
                a,
                b,
                vars,
                event,
                |x, y| x + y,
                |x, y| x.checked_add(y),
            ),
            Expr::Sub(a, b) => arith(
                "sub",
                a,
                b,
                vars,
                event,
                |x, y| x - y,
                |x, y| x.checked_sub(y),
            ),
            Expr::Mul(a, b) => arith(
                "mul",
                a,
                b,
                vars,
                event,
                |x, y| x * y,
                |x, y| x.checked_mul(y),
            ),
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                let c = cond.eval(vars, event)?;
                let b = c.as_bool().ok_or_else(|| type_err("if", &c))?;
                if b {
                    then.eval(vars, event)
                } else {
                    otherwise.eval(vars, event)
                }
            }
            Expr::Clamp { value, lo, hi } => {
                let v = numeric("clamp", value, vars, event)?;
                let l = numeric("clamp", lo, vars, event)?;
                let h = numeric("clamp", hi, vars, event)?;
                let clamped = v.max(l).min(h);
                Ok(float_or_int(clamped, value, lo, hi, vars, event))
            }
            Expr::Min(a, b) => {
                let x = numeric("min", a, vars, event)?;
                let y = numeric("min", b, vars, event)?;
                Ok(float_or_int(x.min(y), a, b, a, vars, event))
            }
            Expr::Max(a, b) => {
                let x = numeric("max", a, vars, event)?;
                let y = numeric("max", b, vars, event)?;
                Ok(float_or_int(x.max(y), a, b, a, vars, event))
            }
        }
    }

    /// Evaluates as a boolean guard.
    ///
    /// # Errors
    ///
    /// Returns an error if evaluation fails or the result is not boolean.
    pub fn eval_bool(&self, vars: &Vars, event: Option<&Event>) -> Result<bool, EvalError> {
        let v = self.eval(vars, event)?;
        v.as_bool().ok_or_else(|| type_err("guard", &v))
    }

    /// Collects every variable name this expression references.
    pub fn referenced_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Const(_) | Expr::Payload => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Ge(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.referenced_vars(out);
                b.referenced_vars(out);
            }
            Expr::Clamp { value, lo, hi } => {
                value.referenced_vars(out);
                lo.referenced_vars(out);
                hi.referenced_vars(out);
            }
            Expr::If {
                cond,
                then,
                otherwise,
            } => {
                cond.referenced_vars(out);
                then.referenced_vars(out);
                otherwise.referenced_vars(out);
            }
        }
    }
}

fn type_err(op: &'static str, v: &Value) -> EvalError {
    EvalError::TypeMismatch {
        op,
        value: format!("{v:?}"),
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

fn numeric(
    op: &'static str,
    e: &Expr,
    vars: &Vars,
    event: Option<&Event>,
) -> Result<f64, EvalError> {
    let v = e.eval(vars, event)?;
    v.as_f64().ok_or_else(|| type_err(op, &v))
}

fn numeric_cmp(
    op: &'static str,
    a: &Expr,
    b: &Expr,
    vars: &Vars,
    event: Option<&Event>,
    f: impl Fn(f64, f64) -> bool,
) -> Result<Value, EvalError> {
    Ok(Value::Bool(f(
        numeric(op, a, vars, event)?,
        numeric(op, b, vars, event)?,
    )))
}

fn arith(
    op: &'static str,
    a: &Expr,
    b: &Expr,
    vars: &Vars,
    event: Option<&Event>,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Value, EvalError> {
    let va = a.eval(vars, event)?;
    let vb = b.eval(vars, event)?;
    if let (Value::Int(x), Value::Int(y)) = (&va, &vb) {
        if let Some(r) = fi(*x, *y) {
            return Ok(Value::Int(r));
        }
    }
    let x = va.as_f64().ok_or_else(|| type_err(op, &va))?;
    let y = vb.as_f64().ok_or_else(|| type_err(op, &vb))?;
    Ok(Value::Float(ff(x, y)))
}

/// Preserves integer-ness: if all operand expressions evaluated to integers,
/// an integral result stays `Int`.
fn float_or_int(
    result: f64,
    a: &Expr,
    b: &Expr,
    c: &Expr,
    vars: &Vars,
    event: Option<&Event>,
) -> Value {
    let all_int = [a, b, c]
        .iter()
        .all(|e| matches!(e.eval(vars, event), Ok(Value::Int(_)) | Ok(Value::Bool(_))));
    if all_int && result.fract() == 0.0 {
        Value::Int(result as i64)
    } else {
        Value::Float(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> Vars {
        let mut v = Vars::new();
        v.insert("x".into(), Value::Int(10));
        v.insert("flag".into(), Value::Bool(true));
        v.insert("mode".into(), Value::Str("tv".into()));
        v
    }

    #[test]
    fn literals_and_vars() {
        let v = vars();
        assert_eq!(Expr::lit(3).eval(&v, None).unwrap(), Value::Int(3));
        assert_eq!(Expr::var("x").eval(&v, None).unwrap(), Value::Int(10));
        assert_eq!(
            Expr::var("nope").eval(&v, None),
            Err(EvalError::UnknownVar("nope".into()))
        );
    }

    #[test]
    fn payload_access() {
        let v = vars();
        let ev = Event::with_payload("k", 7);
        assert_eq!(Expr::Payload.eval(&v, Some(&ev)).unwrap(), Value::Int(7));
        assert_eq!(
            Expr::Payload.eval(&v, Some(&Event::plain("k"))),
            Err(EvalError::NoPayload)
        );
        assert_eq!(Expr::Payload.eval(&v, None), Err(EvalError::NoPayload));
    }

    #[test]
    fn comparisons() {
        let v = vars();
        assert_eq!(
            Expr::lit(5).lt(Expr::var("x")).eval(&v, None).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::var("x").le(Expr::lit(9)).eval(&v, None).unwrap(),
            Value::Bool(false)
        );
        // Cross-kind numeric equality.
        assert_eq!(
            Expr::lit(1).eq(Expr::lit(1.0)).eval(&v, None).unwrap(),
            Value::Bool(true)
        );
        // String equality.
        assert_eq!(
            Expr::var("mode")
                .eq(Expr::lit("tv"))
                .eval(&v, None)
                .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn boolean_logic_short_circuits() {
        let v = vars();
        // Right side would error (unknown var) but must not be evaluated.
        let e = Expr::lit(false).and(Expr::var("missing"));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Bool(false));
        let e = Expr::lit(true).or(Expr::var("missing"));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_preserves_int() {
        let v = vars();
        assert_eq!(
            Expr::var("x").add(Expr::lit(5)).eval(&v, None).unwrap(),
            Value::Int(15)
        );
        assert_eq!(
            Expr::var("x").mul(Expr::lit(0.5)).eval(&v, None).unwrap(),
            Value::Float(5.0)
        );
        assert_eq!(
            Expr::var("x").sub(Expr::lit(3)).eval(&v, None).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn int_overflow_falls_back_to_float() {
        let v = Vars::new();
        let e = Expr::lit(i64::MAX).add(Expr::lit(1));
        assert!(matches!(e.eval(&v, None).unwrap(), Value::Float(_)));
    }

    #[test]
    fn clamp_min_max() {
        let v = vars();
        let e = Expr::var("x").clamp(Expr::lit(0), Expr::lit(7));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Int(7));
        let e = Expr::Min(Box::new(Expr::lit(3)), Box::new(Expr::lit(9)));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Int(3));
        let e = Expr::Max(Box::new(Expr::lit(3.5)), Box::new(Expr::lit(9.0)));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Float(9.0));
    }

    #[test]
    fn if_else_selects_branch() {
        let v = vars();
        let e = Expr::var("flag").if_else(Expr::lit("yes"), Expr::lit("no"));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Str("yes".into()));
        let e = Expr::var("x")
            .lt(Expr::lit(0))
            .if_else(Expr::lit(1), Expr::lit(2));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Int(2));
        // Untaken branch is not evaluated.
        let e = Expr::lit(true).if_else(Expr::lit(1), Expr::var("missing"));
        assert_eq!(e.eval(&v, None).unwrap(), Value::Int(1));
    }

    #[test]
    fn guard_requires_bool() {
        let v = vars();
        assert!(Expr::var("mode").eval_bool(&v, None).is_err());
        assert!(Expr::var("flag").eval_bool(&v, None).unwrap());
    }

    #[test]
    fn referenced_vars_collects_all() {
        let e = Expr::var("a").add(Expr::var("b").mul(Expr::lit(2)));
        let mut out = Vec::new();
        e.referenced_vars(&mut out);
        out.sort();
        assert_eq!(out, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn type_mismatch_reported() {
        let v = vars();
        let e = Expr::var("mode").add(Expr::lit(1));
        assert!(matches!(
            e.eval(&v, None),
            Err(EvalError::TypeMismatch { op: "add", .. })
        ));
    }
}
