//! A first-class property language for safe nets: quantified marking
//! predicates in the shape the model-checking ecosystem expects
//! (reachability/safety queries à la SMPT and the MCC property formats).
//!
//! ```text
//! property := ("EF" | "AG") formula
//! formula  := formula "or" formula
//!           | formula "and" formula
//!           | "not" formula
//!           | "(" formula ")"
//!           | atom
//! atom     := "deadlock"
//!           | "fireable" "(" transition ")"
//!           | "m" "(" place ")" cmp integer       cmp := >= <= = != > <
//! ```
//!
//! `EF φ` asks whether some reachable marking satisfies `φ`; `AG φ` asks
//! whether *every* reachable marking does. Both reduce to searching for a
//! single **goal marking** (`φ` for `EF`, `¬φ` for `AG`): finding one
//! settles the question positively for `EF` and negatively for `AG`, and
//! exploring the whole space without finding one settles the converse.
//! The historical deadlock check is just the default property
//! `EF deadlock`.
//!
//! A [`Property`] stores *names* so it can outlive any particular net;
//! [`Property::compile`] resolves the names against a net (original,
//! reduced, or PNML-loaded) and returns the id-resolved evaluator used on
//! the hot path. [`CompiledProperty::visible_transitions`] computes the
//! visibility set that keeps stubborn-set reduction sound for non-default
//! properties (see DESIGN.md "Property-preserving stubborn sets").

use std::fmt;

use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::PetriNet;

/// The path quantifier of a [`Property`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    /// `EF φ` — some reachable marking satisfies φ.
    Ef,
    /// `AG φ` — every reachable marking satisfies φ.
    Ag,
}

/// Comparison operator of a token-count atom `m(p) <cmp> k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountOp {
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `<`
    Lt,
}

impl CountOp {
    /// Applies the comparison: `tokens <op> k`.
    pub fn eval(self, tokens: u64, k: u64) -> bool {
        match self {
            CountOp::Ge => tokens >= k,
            CountOp::Le => tokens <= k,
            CountOp::Eq => tokens == k,
            CountOp::Ne => tokens != k,
            CountOp::Gt => tokens > k,
            CountOp::Lt => tokens < k,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            CountOp::Ge => ">=",
            CountOp::Le => "<=",
            CountOp::Eq => "=",
            CountOp::Ne => "!=",
            CountOp::Gt => ">",
            CountOp::Lt => "<",
        }
    }
}

/// An atomic predicate over one marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// `m(place) <op> k` — token count of a named place.
    Count {
        /// Place name, resolved at [`Property::compile`] time.
        place: String,
        /// The comparison.
        op: CountOp,
        /// The constant.
        k: u64,
    },
    /// `fireable(t)` — the named transition is enabled.
    Fireable(String),
    /// `deadlock` — no transition is enabled.
    Deadlock,
}

/// A boolean combination of [`Atom`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// One atom.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction of two or more operands: a flat `a and b and c` chain is
    /// one node, so a formula is only as deep as its `(`/`not` nesting.
    And(Vec<Formula>),
    /// Disjunction of two or more operands, flat like [`Formula::And`].
    Or(Vec<Formula>),
}

impl Formula {
    fn atoms(&self) -> Vec<&Atom> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(f) = stack.pop() {
            match f {
                Formula::Atom(a) => out.push(a),
                Formula::Not(x) => stack.push(x),
                Formula::And(xs) | Formula::Or(xs) => stack.extend(xs.iter().rev()),
            }
        }
        out
    }

    /// Renders with minimal parentheses (`or` < `and` < `not` < atom).
    fn render(&self, out: &mut String, parent: u8) {
        let prec = match self {
            Formula::Or(..) => 1,
            Formula::And(..) => 2,
            Formula::Not(..) => 3,
            Formula::Atom(_) => 4,
        };
        let parens = prec < parent;
        if parens {
            out.push('(');
        }
        match self {
            Formula::Atom(Atom::Deadlock) => out.push_str("deadlock"),
            Formula::Atom(Atom::Fireable(t)) => {
                out.push_str("fireable(");
                out.push_str(t);
                out.push(')');
            }
            Formula::Atom(Atom::Count { place, op, k }) => {
                out.push_str("m(");
                out.push_str(place);
                out.push_str(") ");
                out.push_str(op.as_str());
                out.push(' ');
                out.push_str(&k.to_string());
            }
            Formula::Not(x) => {
                out.push_str("not ");
                x.render(out, 3);
            }
            Formula::And(xs) | Formula::Or(xs) => {
                // the spelling of a left-associated chain: only a later
                // operand of the same operator needs parentheses
                let op = if prec == 2 { " and " } else { " or " };
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(op);
                    }
                    x.render(out, if i == 0 { prec } else { prec + 1 });
                }
            }
        }
        if parens {
            out.push(')');
        }
    }
}

/// A parsed property: a quantifier over a boolean marking predicate.
///
/// `Display` renders the canonical spelling — the one stamped into
/// checkpoints, cache keys and reports — and `Display` output re-parses
/// to an equal `Property`.
///
/// # Examples
///
/// ```
/// use petri::property::Property;
///
/// let p = Property::parse("EF (m(eat0) >= 1 && fireable(drop0))").unwrap();
/// assert_eq!(p.to_string(), "EF m(eat0) >= 1 and fireable(drop0)");
/// assert!(!p.is_default());
/// assert_eq!(Property::deadlock().to_string(), "EF deadlock");
/// assert!(Property::parse("EF deadlock").unwrap().is_default());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// The path quantifier.
    pub quantifier: Quantifier,
    /// The marking predicate.
    pub formula: Formula,
}

impl Property {
    /// The default property of every engine: `EF deadlock`.
    pub fn deadlock() -> Self {
        Property {
            quantifier: Quantifier::Ef,
            formula: Formula::Atom(Atom::Deadlock),
        }
    }

    /// `true` iff this is exactly the default property `EF deadlock`, in
    /// which case every engine takes its historical deadlock path and the
    /// output is byte-identical to a property-less run.
    pub fn is_default(&self) -> bool {
        self.quantifier == Quantifier::Ef && self.formula == Formula::Atom(Atom::Deadlock)
    }

    /// Parses the property grammar (see the module docs). Keywords are
    /// case-insensitive; `&&`/`&`, `||`/`|` and `!` are accepted aliases
    /// for `and`, `or` and `not`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first offending token
    /// and its column.
    pub fn parse(text: &str) -> Result<Self, String> {
        Parser::new(text).property()
    }

    /// Resolves place/transition names against `net`.
    ///
    /// # Errors
    ///
    /// Names a place or transition the net does not have.
    pub fn compile(&self, net: &PetriNet) -> Result<CompiledProperty, String> {
        fn go(f: &Formula, net: &PetriNet) -> Result<CompiledFormula, String> {
            Ok(match f {
                Formula::Atom(Atom::Deadlock) => CompiledFormula::Atom(CompiledAtom::Deadlock),
                Formula::Atom(Atom::Fireable(t)) => {
                    let id = net.transition_by_name(t).ok_or_else(|| {
                        format!(
                            "property names unknown transition `{t}` (net `{}`)",
                            net.name()
                        )
                    })?;
                    CompiledFormula::Atom(CompiledAtom::Fireable(id))
                }
                Formula::Atom(Atom::Count { place, op, k }) => {
                    let id = net.place_by_name(place).ok_or_else(|| {
                        format!(
                            "property names unknown place `{place}` (net `{}`)",
                            net.name()
                        )
                    })?;
                    CompiledFormula::Atom(CompiledAtom::Count {
                        place: id,
                        op: *op,
                        k: *k,
                    })
                }
                Formula::Not(x) => CompiledFormula::Not(Box::new(go(x, net)?)),
                Formula::And(xs) => {
                    CompiledFormula::And(xs.iter().map(|x| go(x, net)).collect::<Result<_, _>>()?)
                }
                Formula::Or(xs) => {
                    CompiledFormula::Or(xs.iter().map(|x| go(x, net)).collect::<Result<_, _>>()?)
                }
            })
        }
        Ok(CompiledProperty {
            quantifier: self.quantifier,
            formula: go(&self.formula, net)?,
        })
    }

    /// Names of the places the property observes (token-count atoms).
    /// A structural reduction must keep these places intact.
    pub fn observed_places(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .formula
            .atoms()
            .into_iter()
            .filter_map(|a| match a {
                Atom::Count { place, .. } => Some(place.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Names of the transitions the property observes (fireability atoms).
    /// A structural reduction must keep these transitions intact.
    pub fn observed_transitions(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .formula
            .atoms()
            .into_iter()
            .filter_map(|a| match a {
                Atom::Fireable(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        match self.quantifier {
            Quantifier::Ef => out.push_str("EF "),
            Quantifier::Ag => out.push_str("AG "),
        }
        self.formula.render(&mut out, 0);
        f.write_str(&out)
    }
}

/// Id-resolved form of an [`Atom`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledAtom {
    /// `m(place) <op> k`.
    Count {
        /// The resolved place.
        place: PlaceId,
        /// The comparison.
        op: CountOp,
        /// The constant.
        k: u64,
    },
    /// `fireable(t)`.
    Fireable(TransitionId),
    /// `deadlock`.
    Deadlock,
}

/// Id-resolved form of a [`Formula`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledFormula {
    /// One atom.
    Atom(CompiledAtom),
    /// Negation.
    Not(Box<CompiledFormula>),
    /// Conjunction of two or more operands.
    And(Vec<CompiledFormula>),
    /// Disjunction of two or more operands.
    Or(Vec<CompiledFormula>),
}

impl CompiledFormula {
    /// Evaluates the formula at `m`.
    pub fn eval(&self, net: &PetriNet, m: &Marking) -> bool {
        match self {
            CompiledFormula::Atom(CompiledAtom::Deadlock) => net.is_dead(m),
            CompiledFormula::Atom(CompiledAtom::Fireable(t)) => net.enabled(*t, m),
            CompiledFormula::Atom(CompiledAtom::Count { place, op, k }) => {
                op.eval(u64::from(m.is_marked(*place)), *k)
            }
            CompiledFormula::Not(x) => !x.eval(net, m),
            CompiledFormula::And(xs) => xs.iter().all(|x| x.eval(net, m)),
            CompiledFormula::Or(xs) => xs.iter().any(|x| x.eval(net, m)),
        }
    }

    fn atoms(&self) -> Vec<&CompiledAtom> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(f) = stack.pop() {
            match f {
                CompiledFormula::Atom(a) => out.push(a),
                CompiledFormula::Not(x) => stack.push(x),
                CompiledFormula::And(xs) | CompiledFormula::Or(xs) => stack.extend(xs.iter().rev()),
            }
        }
        out
    }
}

/// A property with its names resolved against one specific net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProperty {
    /// The path quantifier.
    pub quantifier: Quantifier,
    /// The id-resolved predicate.
    pub formula: CompiledFormula,
}

impl CompiledProperty {
    /// Evaluates the bare predicate φ at `m`.
    pub fn eval(&self, net: &PetriNet, m: &Marking) -> bool {
        self.formula.eval(net, m)
    }

    /// The **goal predicate** the engines search for: `φ` under `EF`,
    /// `¬φ` under `AG`. Finding a goal marking answers the property
    /// positively (`EF` holds) or negatively (`AG` is violated) — exit
    /// code 1 with a witness either way; completing the exploration
    /// without one answers the converse (exit code 0).
    pub fn goal(&self, net: &PetriNet, m: &Marking) -> bool {
        match self.quantifier {
            Quantifier::Ef => self.eval(net, m),
            Quantifier::Ag => !self.eval(net, m),
        }
    }

    /// The **visible transitions** of the property: every transition whose
    /// firing can change the truth of some atom. A stubborn-set search
    /// stays sound for this property iff the visible transitions are
    /// seeded into every closure (see DESIGN.md).
    ///
    /// Returns `None` when the goal is the plain deadlock predicate
    /// (`EF deadlock`), which classical stubborn sets already preserve
    /// with no visibility condition. A `deadlock` atom inside any larger
    /// formula makes *all* transitions visible (no reduction).
    pub fn visible_transitions(&self, net: &PetriNet) -> Option<Vec<TransitionId>> {
        if self.quantifier == Quantifier::Ef
            && self.formula == CompiledFormula::Atom(CompiledAtom::Deadlock)
        {
            return None;
        }
        let mut visible = vec![false; net.transition_count()];
        // a transition changes m(p) iff p is in exactly one of its pre/post
        // sets (a pure self-loop consumes and reproduces the token)
        let changes = |t: TransitionId, p: PlaceId| {
            net.pre_place_set(t).contains(p.index()) != net.post_place_set(t).contains(p.index())
        };
        for atom in self.formula.atoms() {
            match atom {
                CompiledAtom::Deadlock => {
                    visible.iter_mut().for_each(|v| *v = true);
                    break;
                }
                CompiledAtom::Count { place, .. } => {
                    for t in net.transitions() {
                        visible[t.index()] |= changes(t, *place);
                    }
                }
                CompiledAtom::Fireable(obs) => {
                    // enabledness of `obs` depends exactly on the marking
                    // of its pre-places
                    for t in net.transitions() {
                        visible[t.index()] |= net.pre_places(*obs).iter().any(|&p| changes(t, p));
                    }
                }
            }
        }
        Some(net.transitions().filter(|t| visible[t.index()]).collect())
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    LParen,
    RParen,
    Cmp(CountOp),
    And,
    Or,
    Not,
}

/// Deepest `(`/`not` nesting the parser accepts. The parser and every
/// pass over a formula (rendering, compiling, evaluating, dropping, the
/// engines' encodings) recurse once per tree level, so hostile input must
/// not pick the depth. `and`/`or` chains are flat nodes of any length, so
/// this cap alone bounds the depth.
const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    len: usize,
    /// Open `(`/`not` levels around the current position.
    nesting: usize,
}

impl Parser {
    fn new(text: &str) -> Self {
        let mut toks = Vec::new();
        let bytes: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let col = i + 1;
            match c {
                c if c.is_whitespace() => i += 1,
                '(' => {
                    toks.push((col, Tok::LParen));
                    i += 1;
                }
                ')' => {
                    toks.push((col, Tok::RParen));
                    i += 1;
                }
                '>' | '<' | '=' | '!' | '&' | '|' => {
                    let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                    let (tok, width) = match two.as_str() {
                        ">=" => (Tok::Cmp(CountOp::Ge), 2),
                        "<=" => (Tok::Cmp(CountOp::Le), 2),
                        "==" => (Tok::Cmp(CountOp::Eq), 2),
                        "!=" => (Tok::Cmp(CountOp::Ne), 2),
                        "&&" => (Tok::And, 2),
                        "||" => (Tok::Or, 2),
                        _ => match c {
                            '>' => (Tok::Cmp(CountOp::Gt), 1),
                            '<' => (Tok::Cmp(CountOp::Lt), 1),
                            '=' => (Tok::Cmp(CountOp::Eq), 1),
                            '!' => (Tok::Not, 1),
                            '&' => (Tok::And, 1),
                            _ => (Tok::Or, 1),
                        },
                    };
                    toks.push((col, tok));
                    i += width;
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    // 20 digits cannot fit u64; report instead of panicking
                    let n = text.parse().unwrap_or(u64::MAX);
                    toks.push((col, Tok::Int(n)));
                }
                c if is_ident_char(c) => {
                    let start = i;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        i += 1;
                    }
                    let word: String = bytes[start..i].iter().collect();
                    let tok = match word.to_ascii_lowercase().as_str() {
                        "and" => Tok::And,
                        "or" => Tok::Or,
                        "not" => Tok::Not,
                        _ => Tok::Ident(word),
                    };
                    toks.push((col, tok));
                }
                other => {
                    // an unlexable character becomes a poison identifier
                    // that the grammar will reject with its column
                    toks.push((col, Tok::Ident(other.to_string())));
                    i += 1;
                }
            }
        }
        Parser {
            toks,
            pos: 0,
            len: bytes.len(),
            nesting: 0,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn col(&self) -> usize {
        self.toks.get(self.pos).map_or(self.len + 1, |(c, _)| *c)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), String> {
        let col = self.col();
        match self.bump() {
            Some(ref t) if t == want => Ok(()),
            _ => Err(format!("expected {what} at column {col}")),
        }
    }

    fn property(&mut self) -> Result<Property, String> {
        let col = self.col();
        let quantifier = match self.bump() {
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("EF") => Quantifier::Ef,
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("AG") => Quantifier::Ag,
            _ => {
                return Err(format!(
                    "property must start with `EF` or `AG` (column {col})"
                ))
            }
        };
        let formula = self.disjunction()?;
        if let Some(_t) = self.peek() {
            return Err(format!(
                "unexpected trailing input at column {}",
                self.col()
            ));
        }
        Ok(Property {
            quantifier,
            formula,
        })
    }

    // A chain whose first operand is a parenthesized chain of the same
    // operator extends it, as left association would: `(a or b) or c` and
    // `a or b or c` are one formula and render alike.
    fn disjunction(&mut self) -> Result<Formula, String> {
        let first = self.conjunction()?;
        if self.peek() != Some(&Tok::Or) {
            return Ok(first);
        }
        let mut operands = match first {
            Formula::Or(xs) => xs,
            x => vec![x],
        };
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            operands.push(self.conjunction()?);
        }
        Ok(Formula::Or(operands))
    }

    fn conjunction(&mut self) -> Result<Formula, String> {
        let first = self.unary()?;
        if self.peek() != Some(&Tok::And) {
            return Ok(first);
        }
        let mut operands = match first {
            Formula::And(xs) => xs,
            x => vec![x],
        };
        while self.peek() == Some(&Tok::And) {
            self.bump();
            operands.push(self.unary()?);
        }
        Ok(Formula::And(operands))
    }

    fn unary(&mut self) -> Result<Formula, String> {
        let not = match self.peek() {
            Some(Tok::Not) => true,
            Some(Tok::LParen) => false,
            _ => return self.atom(),
        };
        if self.nesting == MAX_NESTING {
            return Err(format!(
                "formula nests deeper than {MAX_NESTING} levels at column {}",
                self.col()
            ));
        }
        self.bump();
        self.nesting += 1;
        let inner = if not {
            Formula::Not(Box::new(self.unary()?))
        } else {
            let inner = self.disjunction()?;
            self.expect(&Tok::RParen, "`)`")?;
            inner
        };
        self.nesting -= 1;
        Ok(inner)
    }

    fn atom(&mut self) -> Result<Formula, String> {
        let col = self.col();
        let word = match self.bump() {
            Some(Tok::Ident(w)) => w,
            _ => {
                return Err(format!(
                    "expected `deadlock`, `fireable(t)` or `m(p)` at column {col}"
                ))
            }
        };
        if word.eq_ignore_ascii_case("deadlock") {
            return Ok(Formula::Atom(Atom::Deadlock));
        }
        if word.eq_ignore_ascii_case("fireable") {
            self.expect(&Tok::LParen, "`(` after `fireable`")?;
            let name = self.name("transition")?;
            self.expect(&Tok::RParen, "`)`")?;
            return Ok(Formula::Atom(Atom::Fireable(name)));
        }
        if word == "m" || word == "M" {
            self.expect(&Tok::LParen, "`(` after `m`")?;
            let place = self.name("place")?;
            self.expect(&Tok::RParen, "`)`")?;
            let col = self.col();
            let op = match self.bump() {
                Some(Tok::Cmp(op)) => op,
                _ => {
                    return Err(format!(
                        "expected a comparison (>=, <=, =, !=, >, <) at column {col}"
                    ))
                }
            };
            let col = self.col();
            let k = match self.bump() {
                Some(Tok::Int(k)) => k,
                _ => return Err(format!("expected an integer at column {col}")),
            };
            return Ok(Formula::Atom(Atom::Count { place, op, k }));
        }
        Err(format!(
            "unknown atom `{word}` at column {col} (expected `deadlock`, `fireable(t)` or `m(p) >= k`)"
        ))
    }

    fn name(&mut self, what: &str) -> Result<String, String> {
        let col = self.col();
        match self.bump() {
            Some(Tok::Ident(w)) => Ok(w),
            Some(Tok::Int(n)) => Ok(n.to_string()),
            _ => Err(format!("expected a {what} name at column {col}")),
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    fn diamond() -> PetriNet {
        // p -t1-> q -t2-> r, plus a self-loop observer s <-> loopt
        let mut b = NetBuilder::new("d");
        let p = b.place_marked("p");
        let q = b.place("q");
        let r = b.place("r");
        let s = b.place_marked("s");
        b.transition("t1", [p], [q]);
        b.transition("t2", [q], [r]);
        b.transition("loopt", [s], [s]);
        b.build().unwrap()
    }

    #[test]
    fn default_property_round_trips() {
        let p = Property::deadlock();
        assert!(p.is_default());
        assert_eq!(p.to_string(), "EF deadlock");
        assert_eq!(Property::parse("EF deadlock").unwrap(), p);
        assert_eq!(Property::parse("ef DEADLOCK").unwrap(), p);
        assert_eq!(Property::parse("EF (deadlock)").unwrap(), p);
        assert!(!Property::parse("AG deadlock").unwrap().is_default());
        assert!(!Property::parse("EF not deadlock").unwrap().is_default());
    }

    #[test]
    fn parser_handles_precedence_and_aliases() {
        let p = Property::parse("EF m(a) >= 1 or m(b) = 0 and not fireable(t)").unwrap();
        // `and` binds tighter than `or`
        assert_eq!(
            p.to_string(),
            "EF m(a) >= 1 or m(b) = 0 and not fireable(t)"
        );
        let q = Property::parse("EF m(a)>=1 || (m(b)==0 && !fireable(t))").unwrap();
        assert_eq!(p, q);
        // canonical text re-parses to the same AST
        assert_eq!(Property::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn parser_rejects_garbage_with_columns() {
        for (text, needle) in [
            ("", "must start with `EF` or `AG`"),
            ("XX deadlock", "must start with `EF` or `AG`"),
            ("EF", "expected `deadlock`"),
            ("EF m(p)", "expected a comparison"),
            ("EF m(p) >=", "expected an integer"),
            ("EF (deadlock", "expected `)`"),
            ("EF deadlock extra", "trailing input"),
            ("EF frob(t)", "unknown atom"),
            ("EF fireable()", "expected a transition name"),
        ] {
            let err = Property::parse(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
        }
    }

    #[test]
    fn hostile_nesting_is_rejected_with_a_column() {
        let parens = format!("EF {}deadlock{}", "(".repeat(200_000), ")".repeat(200_000));
        let nots = format!("EF {}deadlock", "!".repeat(200_000));
        for text in [&parens, &nots] {
            let err = Property::parse(text).unwrap_err();
            assert!(err.contains("column"), "{err}");
        }
        // the cap itself still parses
        let deep = format!("EF {}deadlock{}", "(".repeat(64), ")".repeat(64));
        assert!(Property::parse(&deep).unwrap().is_default());
        assert!(Property::parse(&format!("EF {}deadlock", "!".repeat(64))).is_ok());
        let err = Property::parse(&format!("EF {}deadlock", "not ".repeat(65))).unwrap_err();
        assert!(err.contains("column 260"), "{err}");
    }

    /// Stack given to the passes below: a quarter of the 2 MiB default of
    /// spawned threads, which serve workers and portfolio legs run on.
    const WORKER_STACK: usize = 512 * 1024;

    #[test]
    fn formulas_at_the_nesting_cap_run_on_a_worker_stack() {
        let net = diamond();
        // a flat chain is one node however long; the deepest formula the
        // parser accepts nests an `or` over an `and` in each of 63 `(`,
        // then a `not`: 64 levels
        let chain = format!("EF {}", vec!["m(p) >= 1"; 200_000].join(" and "));
        let deep = format!(
            "EF {}not deadlock{}",
            "fireable(t2) or m(r) = 1 and (".repeat(63),
            ")".repeat(63)
        );
        let run = move || {
            for (text, holds) in [(chain, true), (deep, false)] {
                let p = Property::parse(&text).unwrap();
                assert_eq!(Property::parse(&p.to_string()).unwrap(), p);
                let c = p.compile(&net).unwrap();
                assert_eq!(c.eval(&net, net.initial_marking()), holds, "{p}");
                assert!(c.visible_transitions(&net).is_some());
                drop((p, c));
            }
        };
        std::thread::Builder::new()
            .stack_size(WORKER_STACK)
            .spawn(run)
            .unwrap()
            .join()
            .expect("passes over a formula at the cap fit the stack");
    }

    #[test]
    fn chains_are_flat_and_render_left_associated() {
        let m = |p: &str| {
            Formula::Atom(Atom::Count {
                place: p.into(),
                op: CountOp::Ge,
                k: 1,
            })
        };
        let flat = Formula::And(vec![m("a"), m("b"), m("c")]);
        for text in [
            "EF m(a) >= 1 and m(b) >= 1 and m(c) >= 1",
            "EF (m(a) >= 1 and m(b) >= 1) and m(c) >= 1",
        ] {
            let p = Property::parse(text).unwrap();
            assert_eq!(p.formula, flat, "{text}");
            assert_eq!(p.to_string(), "EF m(a) >= 1 and m(b) >= 1 and m(c) >= 1");
        }
        let right = Property::parse("EF m(a) >= 1 or (m(b) >= 1 or m(c) >= 1)").unwrap();
        assert_eq!(
            right.formula,
            Formula::Or(vec![m("a"), Formula::Or(vec![m("b"), m("c")])])
        );
        assert_eq!(
            right.to_string(),
            "EF m(a) >= 1 or (m(b) >= 1 or m(c) >= 1)"
        );
    }

    #[test]
    fn compile_resolves_names_and_rejects_unknowns() {
        let net = diamond();
        let ok = Property::parse("EF m(q) >= 1 and fireable(t2)").unwrap();
        let c = ok.compile(&net).unwrap();
        let m0 = net.initial_marking();
        assert!(!c.eval(&net, m0));
        let m1 = net.fire(net.transition_by_name("t1").unwrap(), m0).unwrap();
        assert!(c.eval(&net, &m1));
        let bad = Property::parse("EF m(nope) = 1").unwrap();
        assert!(bad.compile(&net).unwrap_err().contains("nope"));
        let bad_t = Property::parse("EF fireable(nope)").unwrap();
        assert!(bad_t.compile(&net).unwrap_err().contains("nope"));
    }

    #[test]
    fn goal_flips_under_ag() {
        let net = diamond();
        let ef = Property::parse("EF m(q) >= 1")
            .unwrap()
            .compile(&net)
            .unwrap();
        let ag = Property::parse("AG m(q) = 0")
            .unwrap()
            .compile(&net)
            .unwrap();
        let m0 = net.initial_marking();
        let m1 = net.fire(net.transition_by_name("t1").unwrap(), m0).unwrap();
        assert!(!ef.goal(&net, m0) && ef.goal(&net, &m1));
        // the AG goal is the *violation* — the same markings
        assert!(!ag.goal(&net, m0) && ag.goal(&net, &m1));
    }

    #[test]
    fn deadlock_atom_evaluates_deadness() {
        let net = diamond();
        let c = Property::deadlock().compile(&net).unwrap();
        let m0 = net.initial_marking();
        assert!(!c.goal(&net, m0));
        let m1 = net.fire(net.transition_by_name("t1").unwrap(), m0).unwrap();
        let m2 = net
            .fire(net.transition_by_name("t2").unwrap(), &m1)
            .unwrap();
        // loopt keeps s alive — not dead even at the end of the chain
        assert!(!c.goal(&net, &m2));
    }

    #[test]
    fn visible_transitions_default_is_none() {
        let net = diamond();
        let c = Property::deadlock().compile(&net).unwrap();
        assert!(c.visible_transitions(&net).is_none());
        // AG deadlock is NOT the default goal: all transitions visible
        let ag = Property::parse("AG deadlock")
            .unwrap()
            .compile(&net)
            .unwrap();
        assert_eq!(
            ag.visible_transitions(&net).unwrap().len(),
            net.transition_count()
        );
    }

    #[test]
    fn visible_transitions_track_atom_support() {
        let net = diamond();
        let t1 = net.transition_by_name("t1").unwrap();
        let t2 = net.transition_by_name("t2").unwrap();
        // m(q): t1 produces q, t2 consumes q; loopt self-loops on s only
        let c = Property::parse("EF m(q) >= 1")
            .unwrap()
            .compile(&net)
            .unwrap();
        assert_eq!(c.visible_transitions(&net).unwrap(), vec![t1, t2]);
        // a self-loop on the observed place is invisible (net effect 0)
        let s = Property::parse("EF m(s) = 0")
            .unwrap()
            .compile(&net)
            .unwrap();
        assert_eq!(
            s.visible_transitions(&net).unwrap(),
            Vec::<TransitionId>::new()
        );
        // fireable(t2): anything changing q (= pre(t2)) is visible
        let f = Property::parse("AG not fireable(t2)")
            .unwrap()
            .compile(&net)
            .unwrap();
        assert_eq!(f.visible_transitions(&net).unwrap(), vec![t1, t2]);
    }

    #[test]
    fn observed_names_deduplicate() {
        let p =
            Property::parse("EF m(a) >= 1 and (m(a) = 0 or fireable(t) or fireable(u))").unwrap();
        assert_eq!(p.observed_places(), vec!["a".to_string()]);
        assert_eq!(
            p.observed_transitions(),
            vec!["t".to_string(), "u".to_string()]
        );
        assert!(Property::deadlock().observed_places().is_empty());
    }

    #[test]
    fn count_ops_evaluate_on_safe_range() {
        let net = diamond();
        for (text, at_m0) in [
            ("EF m(p) >= 1", true),
            ("EF m(p) > 0", true),
            ("EF m(p) <= 0", false),
            ("EF m(p) < 1", false),
            ("EF m(p) != 0", true),
            ("EF m(p) = 1", true),
            ("EF m(p) >= 2", false), // unattainable on a safe net
        ] {
            let c = Property::parse(text).unwrap().compile(&net).unwrap();
            assert_eq!(c.eval(&net, net.initial_marking()), at_m0, "{text}");
        }
    }
}
