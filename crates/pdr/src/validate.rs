//! Independent certificate validation.
//!
//! A [`Certificate`](crate::Certificate) claims that the conjunction of
//! its clauses is an **inductive invariant** of the net that excludes the
//! property's goal states. This module re-checks that claim from scratch,
//! sharing no code with the CDCL core or the IC3 frame bookkeeping: the
//! three conditions below are verified by direct incidence arithmetic
//! plus a tiny self-contained DPLL search.
//!
//! 1. **Initiation** — the initial marking satisfies every clause
//!    (checked by direct evaluation).
//! 2. **Consecution** — for every transition `t` and clause `c`: no
//!    marking that satisfies the invariant and fires `t` (all pre-places
//!    marked, all fresh post-places empty — the safe-net no-contact rule)
//!    can reach a marking falsifying `c`. The post-state value of each
//!    place is determined by the incidence structure (`t•` → marked,
//!    `•t \ t•` → empty, untouched → unchanged), so the check reduces to
//!    the unsatisfiability of a purely current-state formula.
//! 3. **Safety** — no assignment satisfies the invariant and the goal
//!    predicate together (the goal is CNF-encoded here with its own
//!    biconditional Tseitin transform, independent of the engine's).
//!
//! Together these imply every reachable marking satisfies the invariant
//! and no reachable marking is a goal state — which is exactly the HOLDS
//! verdict the engine reports.

use petri::property::{CompiledAtom, CompiledFormula, CompiledProperty, Quantifier};
use petri::PetriNet;

use crate::Certificate;

/// A validator literal: `(variable, polarity)`.
type VLit = (usize, bool);

/// Plain DPLL satisfiability: unit propagation to fixpoint plus
/// chronological branching. No learning, no heuristics — transparency
/// over speed, since certificates are small.
fn satisfiable(clauses: &[Vec<VLit>], nvars: usize, assume: &[VLit]) -> bool {
    let mut assign: Vec<Option<bool>> = vec![None; nvars];
    for &(v, b) in assume {
        match assign[v] {
            Some(x) if x != b => return false,
            _ => assign[v] = Some(b),
        }
    }
    search(clauses, &mut assign)
}

fn search(clauses: &[Vec<VLit>], assign: &mut Vec<Option<bool>>) -> bool {
    let mut trail: Vec<usize> = Vec::new();
    loop {
        let mut changed = false;
        for c in clauses {
            let mut sat = false;
            let mut open: Option<VLit> = None;
            let mut open_count = 0;
            for &(v, pos) in c {
                match assign[v] {
                    Some(x) => {
                        if x == pos {
                            sat = true;
                            break;
                        }
                    }
                    None => {
                        open_count += 1;
                        open = Some((v, pos));
                    }
                }
            }
            if sat {
                continue;
            }
            match open_count {
                0 => {
                    for v in trail {
                        assign[v] = None;
                    }
                    return false;
                }
                1 => {
                    let (v, pos) = open.expect("one open literal");
                    assign[v] = Some(pos);
                    trail.push(v);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    let sat = match assign.iter().position(|a| a.is_none()) {
        None => true,
        Some(v) => {
            let mut found = false;
            for val in [false, true] {
                assign[v] = Some(val);
                if search(clauses, assign) {
                    found = true;
                    break;
                }
            }
            if !found {
                assign[v] = None;
            }
            found
        }
    };
    if !sat {
        for v in trail {
            assign[v] = None;
        }
    }
    sat
}

/// Validator-local NNF over place literals (independent re-derivation,
/// not shared with the engine's encoder).
enum Nf {
    Const(bool),
    Lit(usize, bool),
    And(Vec<Nf>),
    Or(Vec<Nf>),
}

fn nf_and(parts: Vec<Nf>) -> Nf {
    let mut out = Vec::new();
    for p in parts {
        match p {
            Nf::Const(true) => {}
            Nf::Const(false) => return Nf::Const(false),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Nf::Const(true),
        1 => out.pop().expect("one element"),
        _ => Nf::And(out),
    }
}

fn nf_or(parts: Vec<Nf>) -> Nf {
    let mut out = Vec::new();
    for p in parts {
        match p {
            Nf::Const(false) => {}
            Nf::Const(true) => return Nf::Const(true),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Nf::Const(false),
        1 => out.pop().expect("one element"),
        _ => Nf::Or(out),
    }
}

fn nf_negate(n: Nf) -> Nf {
    match n {
        Nf::Const(b) => Nf::Const(!b),
        Nf::Lit(p, pos) => Nf::Lit(p, !pos),
        Nf::And(parts) => nf_or(parts.into_iter().map(nf_negate).collect()),
        Nf::Or(parts) => nf_and(parts.into_iter().map(nf_negate).collect()),
    }
}

fn nf_of_formula(net: &PetriNet, f: &CompiledFormula, positive: bool) -> Nf {
    match f {
        CompiledFormula::Atom(a) => {
            let n = match a {
                CompiledAtom::Count { place, op, k } => match (op.eval(0, *k), op.eval(1, *k)) {
                    (true, true) => Nf::Const(true),
                    (false, false) => Nf::Const(false),
                    (false, true) => Nf::Lit(place.index(), true),
                    (true, false) => Nf::Lit(place.index(), false),
                },
                CompiledAtom::Fireable(t) => nf_and(
                    net.pre_places(*t)
                        .iter()
                        .map(|p| Nf::Lit(p.index(), true))
                        .collect(),
                ),
                CompiledAtom::Deadlock => nf_and(
                    net.transitions()
                        .map(|t| {
                            nf_or(
                                net.pre_places(t)
                                    .iter()
                                    .map(|p| Nf::Lit(p.index(), false))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            };
            if positive {
                n
            } else {
                nf_negate(n)
            }
        }
        CompiledFormula::Not(x) => nf_of_formula(net, x, !positive),
        CompiledFormula::And(xs) => {
            let parts = xs.iter().map(|x| nf_of_formula(net, x, positive)).collect();
            if positive {
                nf_and(parts)
            } else {
                nf_or(parts)
            }
        }
        CompiledFormula::Or(xs) => {
            let parts = xs.iter().map(|x| nf_of_formula(net, x, positive)).collect();
            if positive {
                nf_or(parts)
            } else {
                nf_and(parts)
            }
        }
    }
}

/// Biconditional Tseitin transform; returns the root literal. Fresh
/// auxiliary variables are allocated from `*next_var`.
fn tseitin(n: &Nf, next_var: &mut usize, clauses: &mut Vec<Vec<VLit>>) -> VLit {
    match n {
        Nf::Const(_) => unreachable!("constants folded before encoding"),
        Nf::Lit(p, pos) => (*p, *pos),
        Nf::And(parts) => {
            let lits: Vec<VLit> = parts
                .iter()
                .map(|p| tseitin(p, next_var, clauses))
                .collect();
            let a = *next_var;
            *next_var += 1;
            let mut back: Vec<VLit> = vec![(a, true)];
            for &(v, pos) in &lits {
                clauses.push(vec![(a, false), (v, pos)]);
                back.push((v, !pos));
            }
            clauses.push(back);
            (a, true)
        }
        Nf::Or(parts) => {
            let lits: Vec<VLit> = parts
                .iter()
                .map(|p| tseitin(p, next_var, clauses))
                .collect();
            let a = *next_var;
            *next_var += 1;
            let mut fwd: Vec<VLit> = vec![(a, false)];
            for &(v, pos) in &lits {
                clauses.push(vec![(a, true), (v, !pos)]);
                fwd.push((v, pos));
            }
            clauses.push(fwd);
            (a, true)
        }
    }
}

/// Checks initiation, consecution, and safety of `cert` for the goal of
/// `prop` on `net`. `Ok(())` means the certificate genuinely proves the
/// goal unreachable.
pub fn validate_certificate(
    net: &PetriNet,
    prop: &CompiledProperty,
    cert: &Certificate,
) -> Result<(), String> {
    let nplaces = net.place_count();
    let m0 = net.initial_marking();

    // structural sanity + initiation
    let mut inv_clauses: Vec<Vec<VLit>> = Vec::with_capacity(cert.clauses.len());
    for (i, clause) in cert.clauses.iter().enumerate() {
        if clause.is_empty() {
            return Err(format!("clause {i} is empty (unsatisfiable invariant)"));
        }
        for &(p, _) in clause {
            if p.index() >= nplaces {
                return Err(format!("clause {i} names out-of-range place {}", p.index()));
            }
        }
        if !clause.iter().any(|&(p, pos)| m0.is_marked(p) == pos) {
            return Err(format!(
                "initiation fails: the initial marking falsifies clause {i}"
            ));
        }
        inv_clauses.push(clause.iter().map(|&(p, pos)| (p.index(), pos)).collect());
    }

    // consecution, one (transition, clause) pair at a time
    for t in net.transitions() {
        let pre = net.pre_place_set(t);
        let post = net.post_place_set(t);
        // firing preconditions on the current state
        let mut fire_units: Vec<VLit> = Vec::new();
        for p in net.pre_places(t) {
            fire_units.push((p.index(), true));
        }
        for p in net.post_places(t) {
            if !pre.contains(p.index()) {
                fire_units.push((p.index(), false)); // no-contact rule
            }
        }
        'clauses: for (i, clause) in cert.clauses.iter().enumerate() {
            // can firing t falsify every literal of the clause?
            let mut units = fire_units.clone();
            for &(p, pos) in clause {
                let idx = p.index();
                let after: Option<bool> = if post.contains(idx) {
                    Some(true)
                } else if pre.contains(idx) {
                    Some(false)
                } else {
                    None
                };
                match after {
                    // the firing itself makes the literal true: the
                    // clause survives every such step
                    Some(v) if v == pos => continue 'clauses,
                    // the firing makes the literal false: nothing to add
                    Some(_) => {}
                    // untouched place: falsifying the literal pins its
                    // current value
                    None => {
                        if units.iter().any(|&(v, b)| v == idx && b == pos) {
                            // contradicts the firing precondition: this
                            // literal cannot go false across the step
                            continue 'clauses;
                        }
                        if !units.contains(&(idx, !pos)) {
                            units.push((idx, !pos));
                        }
                    }
                }
            }
            // a pre-state satisfying the invariant and these constraints
            // would fire t into a marking falsifying the clause
            if satisfiable(&inv_clauses, nplaces, &units) {
                return Err(format!(
                    "consecution fails: firing `{}` can falsify clause {i}",
                    net.transition_name(t)
                ));
            }
        }
    }

    // safety: invariant ∧ goal must be unsatisfiable
    let goal = nf_of_formula(
        net,
        &prop.formula,
        matches!(prop.quantifier, Quantifier::Ef),
    );
    match goal {
        Nf::Const(false) => Ok(()),
        Nf::Const(true) => Err("safety fails: the goal is constantly true".into()),
        g => {
            let mut next_var = nplaces;
            let mut clauses = inv_clauses;
            let root = tseitin(&g, &mut next_var, &mut clauses);
            if satisfiable(&clauses, next_var, &[root]) {
                Err("safety fails: some invariant state satisfies the goal".into())
            } else {
                Ok(())
            }
        }
    }
}
