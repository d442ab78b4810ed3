//! Compiled expressions and their evaluation.
//!
//! Expressions are compiled once per query execution: variables become
//! binding slots and constants that exist in the store dictionary are
//! pre-resolved to IDs so the common filters (`?t = "#webseries"`,
//! `isLiteral(?v)`, `isIRI(?y)`) evaluate without materialising terms.

use std::borrow::Cow;
use std::cmp::Ordering;

use rdf_model::vocab::xsd;
use rdf_model::{Iri, Literal, Term};

use crate::ast::{ArithOp, CompareOp, Function};

/// A runtime value produced by expression evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A double.
    Float(f64),
    /// A plain string.
    Str(String),
    /// Any other RDF term (IRI, blank node, non-string literal).
    Term(Term),
}

impl Value {
    /// Builds a value from an RDF term, unwrapping numerics, booleans and
    /// plain strings into native variants.
    pub fn from_term(term: &Term) -> Value {
        if let Term::Literal(lit) = term {
            if let Some(b) = lit.as_bool() {
                return Value::Bool(b);
            }
            if let Some(i) = lit.as_i64() {
                return Value::Int(i);
            }
            if let Some(f) = lit.as_f64() {
                return Value::Float(f);
            }
            if lit.effective_datatype() == xsd::STRING {
                return Value::Str(lit.lexical().to_string());
            }
        }
        Value::Term(term.clone())
    }

    /// Converts back into an RDF term (for projected expression columns).
    pub fn into_term(self) -> Term {
        match self {
            Value::Bool(b) => Term::Literal(Literal::boolean(b)),
            Value::Int(i) => Term::Literal(Literal::integer(i)),
            Value::Float(f) => Term::Literal(Literal::double(f)),
            Value::Str(s) => Term::Literal(Literal::string(s)),
            Value::Term(t) => t,
        }
    }

    /// The SPARQL effective boolean value; `None` when undefined.
    pub fn ebv(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Float(f) => Some(*f != 0.0 && !f.is_nan()),
            Value::Str(s) => Some(!s.is_empty()),
            Value::Term(Term::Literal(lit)) => Some(!lit.lexical().is_empty()),
            Value::Term(_) => None,
        }
    }

    /// Numeric interpretation, if any.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Term(Term::Literal(lit)) => lit.as_f64(),
            _ => None,
        }
    }

    /// The `STR()` string form.
    pub fn str_value(&self) -> String {
        self.str_form().into_owned()
    }

    /// The string form, borrowed where the value holds one: comparisons
    /// read it without allocating.
    fn str_form(&self) -> Cow<'_, str> {
        match self {
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Float(f) => Cow::Owned(f.to_string()),
            Value::Str(s) => Cow::Borrowed(s),
            Value::Term(t) => Cow::Borrowed(t.str_value()),
        }
    }

    /// SPARQL `=` semantics over the supported value space: numeric
    /// comparison when both sides are numeric, term equality for two terms,
    /// string comparison otherwise.
    pub fn sparql_eq(&self, other: &Value) -> bool {
        if let (Some(a), Some(b)) = (self.as_number(), other.as_number()) {
            return a == b;
        }
        match (self, other) {
            (Value::Term(a), Value::Term(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => self.str_form() == other.str_form(),
        }
    }

    /// Ordering used by comparisons and MIN/MAX: numeric if both numeric,
    /// else lexicographic on string form. Not a total order over mixed
    /// columns (`9 < 10`, `10 < "5"`, `"5" < 9`): sorting takes
    /// [`SortKey`].
    pub fn sparql_cmp(&self, other: &Value) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_number(), other.as_number()) {
            return a.partial_cmp(&b).unwrap_or(Ordering::Equal);
        }
        self.str_form().cmp(&other.str_form())
    }

    /// ORDER BY's total order over two values (see [`SortKey`]).
    pub fn order_cmp(&self, other: &Value) -> Ordering {
        SortKey::of(self).cmp(&SortKey::of(other))
    }
}

/// An ORDER BY key. Its `Ord` is ORDER BY's total order: unbound, then
/// numbers by [`f64::total_cmp`] (NaN included), then the rest by string
/// form — [`Value::sparql_cmp`]'s order on a column all numeric or all
/// not. A key borrows its string form, so comparing keys never allocates.
#[derive(Debug, Clone)]
pub enum SortKey<'a> {
    /// No value (an unbound variable or an expression error).
    Unbound,
    /// A numeric value.
    Num(f64),
    /// Any other value, by string form.
    Text(Cow<'a, str>),
}

impl<'a> SortKey<'a> {
    /// The key of a value.
    pub fn of(value: &'a Value) -> SortKey<'a> {
        match value.as_number() {
            Some(n) => SortKey::Num(n),
            None => SortKey::Text(value.str_form()),
        }
    }

    /// The key of [`Value::from_term`], borrowed from the term.
    pub fn of_term(term: &'a Term) -> SortKey<'a> {
        let Term::Literal(lit) = term else {
            return SortKey::Text(Cow::Borrowed(term.str_value()));
        };
        if let Some(b) = lit.as_bool() {
            return SortKey::Text(Cow::Borrowed(if b { "true" } else { "false" }));
        }
        match lit.as_i64().map(|i| i as f64).or_else(|| lit.as_f64()) {
            Some(n) => SortKey::Num(n),
            None => SortKey::Text(Cow::Borrowed(lit.lexical())),
        }
    }

    /// The same key, owning its string form.
    pub fn into_owned(self) -> SortKey<'static> {
        match self {
            SortKey::Unbound => SortKey::Unbound,
            SortKey::Num(n) => SortKey::Num(n),
            SortKey::Text(s) => SortKey::Text(Cow::Owned(s.into_owned())),
        }
    }
}

impl Ord for SortKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (SortKey::Num(a), SortKey::Num(b)) => a.total_cmp(b),
            (SortKey::Text(a), SortKey::Text(b)) => a.cmp(b),
            (SortKey::Unbound, SortKey::Unbound) => Ordering::Equal,
            (SortKey::Unbound, _) | (SortKey::Num(_), SortKey::Text(_)) => Ordering::Less,
            _ => Ordering::Greater,
        }
    }
}

impl PartialOrd for SortKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SortKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for SortKey<'_> {}

/// A compiled expression; `Var` holds a binding slot.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A variable slot reference.
    Var(usize),
    /// A pre-evaluated constant.
    Const(Value),
    /// Fast path: `isLiteral(?v)` / `isIRI(?v)` / `isBlank(?v)`.
    KindCheck(usize, TermKind),
    /// Fast path: `?v = <const>` where the constant resolves to a store ID
    /// (`None` means the constant is absent from the store — always false
    /// unless compared against a computed value, handled by fallback).
    SlotEqConst(usize, Option<u64>, Box<CExpr>),
    /// `a || b`.
    Or(Box<CExpr>, Box<CExpr>),
    /// `a && b`.
    And(Box<CExpr>, Box<CExpr>),
    /// `!a`.
    Not(Box<CExpr>),
    /// Comparison.
    Compare(CompareOp, Box<CExpr>, Box<CExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<CExpr>, Box<CExpr>),
    /// Unary minus.
    Neg(Box<CExpr>),
    /// Built-in call.
    Call(Function, Vec<CExpr>),
    /// Reference to an aggregate accumulator (projection of grouped
    /// queries); index into the query's aggregate list.
    Agg(usize),
    /// Reference to a compiled `EXISTS { ... }` pattern (index into the
    /// query's exists-node table; the environment evaluates it against
    /// the current row).
    ExistsRef(usize),
}

/// Term kind, for the `isLiteral`/`isIRI`/`isBlank` fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermKind {
    /// IRIs.
    Iri,
    /// Blank nodes.
    Blank,
    /// Literals.
    Literal,
}

impl TermKind {
    /// The kind of a term.
    pub fn of(term: &Term) -> TermKind {
        match term {
            Term::Iri(_) => TermKind::Iri,
            Term::Blank(_) => TermKind::Blank,
            Term::Literal(_) => TermKind::Literal,
        }
    }
}

/// Evaluation environment handed to compiled expressions.
pub trait ExprEnv {
    /// The term bound to a slot, if any.
    fn term_of_slot(&self, slot: usize) -> Option<Term>;
    /// The raw ID bound to a slot, if any.
    fn id_of_slot(&self, slot: usize) -> Option<u64>;
    /// Kind of the term bound to a slot (cheap, no clone).
    fn kind_of_slot(&self, slot: usize) -> Option<TermKind>;
    /// Value of an aggregate accumulator (grouped queries only).
    fn aggregate_value(&self, index: usize) -> Option<Value>;
    /// Whether the referenced `EXISTS` pattern matches the current row.
    fn exists(&self, index: usize) -> Option<bool>;
}

impl CExpr {
    /// Collects every binding slot this expression reads into `slots`
    /// (duplicates possible; dedup is the caller's concern). Returns `true`
    /// if the expression references an `EXISTS` pattern, whose inner node
    /// may read arbitrary slots beyond the ones collected here — callers
    /// doing liveness analysis must then treat every slot as read.
    pub fn collect_slots(&self, slots: &mut Vec<usize>) -> bool {
        match self {
            CExpr::Var(slot) => {
                slots.push(*slot);
                false
            }
            CExpr::Const(_) | CExpr::Agg(_) => false,
            CExpr::KindCheck(slot, _) => {
                slots.push(*slot);
                false
            }
            CExpr::SlotEqConst(slot, _, fallback) => {
                slots.push(*slot);
                fallback.collect_slots(slots)
            }
            CExpr::Or(a, b)
            | CExpr::And(a, b)
            | CExpr::Compare(_, a, b)
            | CExpr::Arith(_, a, b) => {
                let ea = a.collect_slots(slots);
                let eb = b.collect_slots(slots);
                ea | eb
            }
            CExpr::Not(e) | CExpr::Neg(e) => e.collect_slots(slots),
            CExpr::Call(_, args) => {
                let mut saw = false;
                for a in args {
                    saw |= a.collect_slots(slots);
                }
                saw
            }
            CExpr::ExistsRef(_) => true,
        }
    }

    /// Evaluates to a value; `None` is SPARQL's "error" (unbound variable,
    /// type error), which filters treat as false.
    pub fn eval(&self, env: &dyn ExprEnv) -> Option<Value> {
        match self {
            CExpr::Var(slot) => env.term_of_slot(*slot).map(|t| Value::from_term(&t)),
            CExpr::Const(v) => Some(v.clone()),
            CExpr::KindCheck(slot, kind) => Some(Value::Bool(env.kind_of_slot(*slot)? == *kind)),
            CExpr::SlotEqConst(slot, id, fallback) => {
                let bound = env.id_of_slot(*slot)?;
                match id {
                    Some(cid) if bound & crate::exec::COMPUTED_BIT == 0 => {
                        Some(Value::Bool(bound == *cid))
                    }
                    // Constant absent from the dictionary, or the slot holds
                    // a computed value: fall back to general comparison.
                    _ => fallback.eval(env),
                }
            }
            CExpr::Or(a, b) => {
                let av = a.eval(env).and_then(|v| v.ebv());
                let bv = b.eval(env).and_then(|v| v.ebv());
                match (av, bv) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            CExpr::And(a, b) => {
                let av = a.eval(env).and_then(|v| v.ebv());
                let bv = b.eval(env).and_then(|v| v.ebv());
                match (av, bv) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            CExpr::Not(a) => a.eval(env)?.ebv().map(|b| Value::Bool(!b)),
            CExpr::Compare(op, a, b) => {
                let av = a.eval(env)?;
                let bv = b.eval(env)?;
                let result = match op {
                    CompareOp::Eq => av.sparql_eq(&bv),
                    CompareOp::Ne => !av.sparql_eq(&bv),
                    CompareOp::Lt => av.sparql_cmp(&bv) == std::cmp::Ordering::Less,
                    CompareOp::Le => av.sparql_cmp(&bv) != std::cmp::Ordering::Greater,
                    CompareOp::Gt => av.sparql_cmp(&bv) == std::cmp::Ordering::Greater,
                    CompareOp::Ge => av.sparql_cmp(&bv) != std::cmp::Ordering::Less,
                };
                Some(Value::Bool(result))
            }
            CExpr::Arith(op, a, b) => {
                let av = a.eval(env)?;
                let bv = b.eval(env)?;
                // Integer arithmetic when both sides are ints (except /).
                if let (Value::Int(x), Value::Int(y)) = (&av, &bv) {
                    match op {
                        ArithOp::Add => return Some(Value::Int(x.wrapping_add(*y))),
                        ArithOp::Sub => return Some(Value::Int(x.wrapping_sub(*y))),
                        ArithOp::Mul => return Some(Value::Int(x.wrapping_mul(*y))),
                        ArithOp::Div => {}
                    }
                }
                let x = av.as_number()?;
                let y = bv.as_number()?;
                Some(Value::Float(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return None;
                        }
                        x / y
                    }
                }))
            }
            CExpr::Neg(a) => {
                let v = a.eval(env)?;
                match v {
                    Value::Int(i) => Some(Value::Int(-i)),
                    other => Some(Value::Float(-other.as_number()?)),
                }
            }
            CExpr::Call(func, args) => eval_call(*func, args, env),
            CExpr::Agg(i) => env.aggregate_value(*i),
            CExpr::ExistsRef(i) => env.exists(*i).map(Value::Bool),
        }
    }

    /// Evaluates as a filter condition: errors count as `false`.
    pub fn eval_filter(&self, env: &dyn ExprEnv) -> bool {
        self.eval(env).and_then(|v| v.ebv()).unwrap_or(false)
    }
}

fn eval_call(func: Function, args: &[CExpr], env: &dyn ExprEnv) -> Option<Value> {
    match func {
        Function::Bound => {
            // BOUND only accepts a variable argument.
            match &args[0] {
                CExpr::Var(slot) => Some(Value::Bool(env.id_of_slot(*slot).is_some())),
                _ => None,
            }
        }
        Function::IsLiteral | Function::IsIri | Function::IsBlank => {
            let kind = match args[0].eval(env)? {
                Value::Term(t) => TermKind::of(&t),
                Value::Str(_) | Value::Bool(_) | Value::Int(_) | Value::Float(_) => {
                    TermKind::Literal
                }
            };
            let expected = match func {
                Function::IsLiteral => TermKind::Literal,
                Function::IsIri => TermKind::Iri,
                _ => TermKind::Blank,
            };
            Some(Value::Bool(kind == expected))
        }
        Function::Str => Some(Value::Str(args[0].eval(env)?.str_value())),
        Function::Lang => match args[0].eval(env)? {
            Value::Term(Term::Literal(lit)) => {
                Some(Value::Str(lit.lang().unwrap_or("").to_string()))
            }
            Value::Str(_) | Value::Bool(_) | Value::Int(_) | Value::Float(_) => {
                Some(Value::Str(String::new()))
            }
            _ => None,
        },
        Function::Datatype => {
            let iri = |text: &str| Some(Value::Term(Term::Iri(Iri::from_text(text))));
            match args[0].eval(env)? {
                Value::Term(Term::Literal(lit)) => match lit.datatype_iri() {
                    Some(dt) => Some(Value::Term(Term::Iri(dt.clone()))),
                    None => iri(lit.effective_datatype()),
                },
                Value::Str(_) => iri(xsd::STRING),
                Value::Bool(_) => iri(xsd::BOOLEAN),
                Value::Int(_) => iri(xsd::INTEGER),
                Value::Float(_) => iri(xsd::DOUBLE),
                _ => None,
            }
        }
        Function::Concat => {
            let mut out = String::new();
            for arg in args {
                out.push_str(&arg.eval(env)?.str_value());
            }
            Some(Value::Str(out))
        }
        Function::StrStarts => {
            let a = args[0].eval(env)?.str_value();
            let b = args[1].eval(env)?.str_value();
            Some(Value::Bool(a.starts_with(&b)))
        }
        Function::StrEnds => {
            let a = args[0].eval(env)?.str_value();
            let b = args[1].eval(env)?.str_value();
            Some(Value::Bool(a.ends_with(&b)))
        }
        Function::Contains => {
            let a = args[0].eval(env)?.str_value();
            let b = args[1].eval(env)?.str_value();
            Some(Value::Bool(a.contains(&b)))
        }
        Function::StrLen => Some(Value::Int(
            args[0].eval(env)?.str_value().chars().count() as i64
        )),
        Function::Ucase => Some(Value::Str(args[0].eval(env)?.str_value().to_uppercase())),
        Function::Lcase => Some(Value::Str(args[0].eval(env)?.str_value().to_lowercase())),
        Function::Abs => {
            let v = args[0].eval(env)?;
            match v {
                Value::Int(i) => Some(Value::Int(i.abs())),
                other => Some(Value::Float(other.as_number()?.abs())),
            }
        }
        Function::Regex => {
            let text = args[0].eval(env)?.str_value();
            let pattern = args[1].eval(env)?.str_value();
            Some(Value::Bool(regex_lite_match(&text, &pattern)))
        }
    }
}

/// A deliberately small regex dialect for `REGEX`: supports `^` / `$`
/// anchors and literal text in between (plus `.` as any-char). This covers
/// the tag/keyword filters used in social-network workloads without pulling
/// in a regex dependency.
pub fn regex_lite_match(text: &str, pattern: &str) -> bool {
    let (anchored_start, rest) = match pattern.strip_prefix('^') {
        Some(r) => (true, r),
        None => (false, pattern),
    };
    let (anchored_end, body) = match rest.strip_suffix('$') {
        Some(r) => (true, r),
        None => (false, rest),
    };
    let matches_at = |start: usize| -> bool {
        let tail = &text[start..];
        let mut t = tail.chars();
        for pc in body.chars() {
            match t.next() {
                Some(tc) if pc == '.' || pc == tc => {}
                _ => return false,
            }
        }
        !anchored_end || t.as_str().is_empty() || {
            // end anchor: consumed exactly to the end
            let consumed: usize = body.chars().count();
            tail.chars().count() == consumed
        }
    };
    if anchored_start {
        matches_at(0)
    } else if body.is_empty() {
        true
    } else {
        (0..=text.len())
            .filter(|i| text.is_char_boundary(*i))
            .any(matches_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct TestEnv {
        terms: HashMap<usize, Term>,
    }

    impl ExprEnv for TestEnv {
        fn term_of_slot(&self, slot: usize) -> Option<Term> {
            self.terms.get(&slot).cloned()
        }
        fn id_of_slot(&self, slot: usize) -> Option<u64> {
            self.terms.get(&slot).map(|_| slot as u64 + 100)
        }
        fn kind_of_slot(&self, slot: usize) -> Option<TermKind> {
            self.terms.get(&slot).map(TermKind::of)
        }
        fn aggregate_value(&self, _: usize) -> Option<Value> {
            None
        }
        fn exists(&self, _: usize) -> Option<bool> {
            None
        }
    }

    fn env() -> TestEnv {
        let mut terms = HashMap::new();
        terms.insert(0, Term::string("#webseries"));
        terms.insert(1, Term::iri("http://pg/v1"));
        terms.insert(2, Term::int(23));
        TestEnv { terms }
    }

    #[test]
    fn value_from_term_unwraps() {
        assert_eq!(Value::from_term(&Term::int(5)), Value::Int(5));
        assert_eq!(Value::from_term(&Term::string("x")), Value::Str("x".into()));
        assert_eq!(
            Value::from_term(&Term::Literal(Literal::boolean(true))),
            Value::Bool(true)
        );
        assert!(matches!(
            Value::from_term(&Term::iri("http://x")),
            Value::Term(_)
        ));
    }

    #[test]
    fn sparql_eq_numeric_across_types() {
        assert!(Value::Int(23).sparql_eq(&Value::Float(23.0)));
        assert!(!Value::Int(23).sparql_eq(&Value::Int(24)));
        assert!(Value::Str("a".into()).sparql_eq(&Value::Str("a".into())));
    }

    #[test]
    fn kind_checks() {
        let e = env();
        assert!(CExpr::KindCheck(0, TermKind::Literal).eval_filter(&e));
        assert!(!CExpr::KindCheck(1, TermKind::Literal).eval_filter(&e));
        assert!(CExpr::KindCheck(1, TermKind::Iri).eval_filter(&e));
        // unbound slot -> error -> false
        assert!(!CExpr::KindCheck(9, TermKind::Iri).eval_filter(&e));
    }

    #[test]
    fn str_and_concat() {
        let e = env();
        let expr = CExpr::Compare(
            CompareOp::Eq,
            Box::new(CExpr::Call(Function::Str, vec![CExpr::Var(0)])),
            Box::new(CExpr::Call(
                Function::Concat,
                vec![
                    CExpr::Const(Value::Str("#".into())),
                    CExpr::Const(Value::Str("webseries".into())),
                ],
            )),
        );
        assert!(expr.eval_filter(&e));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let e = env();
        let expr = CExpr::Arith(
            ArithOp::Add,
            Box::new(CExpr::Var(2)),
            Box::new(CExpr::Const(Value::Int(2))),
        );
        assert_eq!(expr.eval(&e), Some(Value::Int(25)));
        let div = CExpr::Arith(
            ArithOp::Div,
            Box::new(CExpr::Const(Value::Int(7))),
            Box::new(CExpr::Const(Value::Int(2))),
        );
        assert_eq!(div.eval(&e), Some(Value::Float(3.5)));
        let div0 = CExpr::Arith(
            ArithOp::Div,
            Box::new(CExpr::Const(Value::Int(7))),
            Box::new(CExpr::Const(Value::Int(0))),
        );
        assert_eq!(div0.eval(&e), None);
    }

    #[test]
    fn boolean_logic_with_errors() {
        let e = env();
        let err = CExpr::Var(9); // unbound
        let truth = CExpr::Const(Value::Bool(true));
        let falsity = CExpr::Const(Value::Bool(false));
        // error || true = true
        assert!(CExpr::Or(Box::new(err.clone()), Box::new(truth.clone())).eval_filter(&e));
        // error && false = false
        assert_eq!(
            CExpr::And(Box::new(err.clone()), Box::new(falsity)).eval(&e),
            Some(Value::Bool(false))
        );
        // error && true = error -> filter false
        assert!(!CExpr::And(Box::new(err), Box::new(truth)).eval_filter(&e));
    }

    #[test]
    fn string_functions() {
        let e = env();
        let starts = CExpr::Call(
            Function::StrStarts,
            vec![CExpr::Var(0), CExpr::Const(Value::Str("#web".into()))],
        );
        assert!(starts.eval_filter(&e));
        let len = CExpr::Call(Function::StrLen, vec![CExpr::Var(0)]);
        assert_eq!(len.eval(&e), Some(Value::Int(10)));
        let up = CExpr::Call(Function::Ucase, vec![CExpr::Const(Value::Str("ab".into()))]);
        assert_eq!(up.eval(&e), Some(Value::Str("AB".into())));
    }

    #[test]
    fn bound_function() {
        let e = env();
        assert!(CExpr::Call(Function::Bound, vec![CExpr::Var(0)]).eval_filter(&e));
        assert!(!CExpr::Call(Function::Bound, vec![CExpr::Var(9)]).eval_filter(&e));
    }

    #[test]
    fn regex_lite() {
        assert!(regex_lite_match("#webseries", "web"));
        assert!(regex_lite_match("#webseries", "^#web"));
        assert!(!regex_lite_match("#webseries", "^web"));
        assert!(regex_lite_match("#webseries", "series$"));
        assert!(!regex_lite_match("#webseries", "^series$"));
        assert!(regex_lite_match("abc", "a.c"));
        assert!(regex_lite_match("anything", ""));
    }

    #[test]
    fn value_ordering() {
        assert_eq!(
            Value::Int(2).sparql_cmp(&Value::Float(10.0)),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            Value::Str("b".into()).sparql_cmp(&Value::Str("a".into())),
            std::cmp::Ordering::Greater
        );
    }

    #[test]
    fn datatype_function() {
        let e = env();
        let dt = CExpr::Call(Function::Datatype, vec![CExpr::Var(2)]);
        // 23 unwraps to Value::Int, so datatype reports xsd:integer.
        assert_eq!(dt.eval(&e), Some(Value::Term(Term::iri(xsd::INTEGER))));
    }
}
