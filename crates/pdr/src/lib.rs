//! Inductive safety proving for safe Petri nets: IC3/PDR over the net's
//! incidence structure, with a built-in CDCL SAT core ([`sat`]) and an
//! independent certificate validator ([`validate`]).
//!
//! Where every enumerative engine (full, po, gpo, bdd, unfold) walks
//! markings until the budget runs out, this engine reasons *inductively*:
//! it maintains a sequence of frames `F_0 ⊆ F_1 ⊆ … ⊆ F_k` — each an
//! over-approximation of the markings reachable in at most `i` steps,
//! represented as sets of clauses over one boolean per place — and blocks
//! goal states backwards until either a concrete counterexample trace
//! reaches the initial marking or two adjacent frames coincide, at which
//! point the frame is an **inductive invariant** excluding the goal.
//!
//! Soundness does not rest on the solver. A HOLDS answer carries the
//! inductive invariant as a [`Certificate`], which [`check_bounded`]
//! re-validates with [`validate::validate_certificate`] — a separate code
//! path that checks initiation, consecution, and safety by direct
//! incidence-matrix arithmetic and a tiny independent DPLL search — before
//! the verdict is reported. A VIOLATED answer carries a transition
//! sequence that is replayed on the concrete net with [`PetriNet`] firing
//! semantics. A budget exhaustion degrades to an honest partial.
//!
//! Frames are seeded with P-invariants from [`petri::place_invariants_capped`],
//! restricted to the families whose boolean shadow is provably inductive
//! on safe nets (see [`seed_invariant_clauses`]); each seeded clause is
//! re-verified against the incidence matrix in exact `i128` arithmetic
//! first, so a bug in the Farkas elimination can never leak into a proof.
//!
//! The encoding targets **safe** nets: one boolean per place, and a
//! transition is fireable only when its post-places outside the pre-set
//! are empty (the "no contact" rule), exactly matching the concrete
//! firing rule. On a net that is not safe the engine still answers
//! soundly for the contact-free fragment it encodes, mirroring how the
//! enumerative engines reject contact firings.

mod sat;
pub mod validate;

pub use sat::{Lit, SolveResult, Solver};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use petri::property::{CompiledAtom, CompiledFormula, CompiledProperty};
use petri::{
    place_invariants_capped, Budget, CoverageStats, Marking, Outcome, PetriNet, PlaceId,
    TransitionId,
};

/// Cap on the Farkas work matrix while harvesting seed invariants — the
/// same guard `petri::reduce` uses, so seeding never blows up on
/// ASAT-style nets.
const INVARIANT_ROW_LIMIT: usize = 256;

/// Pairwise at-most-one clauses for an exactly-one invariant group are
/// quadratic in the support size; above this bound only the (linear)
/// at-least-one clause is seeded. The proof of inductiveness is per
/// family, so dropping a whole family keeps the seed set inductive.
const EXACTLY_ONE_SUPPORT_LIMIT: usize = 64;

/// Counters reported alongside every answer.
#[derive(Debug, Clone, Default)]
pub struct PdrStats {
    /// Highest frame index reached.
    pub frames: usize,
    /// Lemmas learned (blocking clauses, not counting seeds).
    pub lemmas: usize,
    /// Clauses seeded from P-invariants.
    pub seeded_clauses: usize,
    /// SAT queries issued.
    pub sat_calls: u64,
    /// Conflicts inside the SAT core.
    pub conflicts: u64,
    /// Unit propagations inside the SAT core.
    pub propagations: u64,
    /// Proof obligations processed.
    pub obligations: u64,
}

/// An inductive invariant: a conjunction of clauses, each a disjunction
/// of place literals (`true` = marked).
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The clauses; `(p, true)` reads "p is marked".
    pub clauses: Vec<Vec<(PlaceId, bool)>>,
}

/// The engine's answer (wrapped in [`Outcome`] for budget degradation).
#[derive(Debug, Clone)]
pub struct PdrResult {
    /// `Some(true)`: a goal marking is reachable (see `trace`);
    /// `Some(false)`: proved unreachable (see `certificate`); `None`: the
    /// budget ran out first.
    pub reachable: Option<bool>,
    /// Transition sequence from the initial marking to a goal marking,
    /// replay-validated on the concrete net.
    pub trace: Option<Vec<TransitionId>>,
    /// The goal marking the trace reaches.
    pub goal_marking: Option<Marking>,
    /// The validated inductive invariant excluding the goal.
    pub certificate: Option<Certificate>,
    /// Work counters.
    pub stats: PdrStats,
}

/// Goal formula in negation normal form over place literals, after
/// constant-folding the count atoms of a safe net.
enum Gf {
    Const(bool),
    /// `(place index, polarity)`.
    Lit(usize, bool),
    And(Vec<Gf>),
    Or(Vec<Gf>),
}

fn gf_and(parts: Vec<Gf>) -> Gf {
    let mut out = Vec::new();
    for p in parts {
        match p {
            Gf::Const(true) => {}
            Gf::Const(false) => return Gf::Const(false),
            Gf::And(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Gf::Const(true),
        1 => out.pop().expect("one element"),
        _ => Gf::And(out),
    }
}

fn gf_or(parts: Vec<Gf>) -> Gf {
    let mut out = Vec::new();
    for p in parts {
        match p {
            Gf::Const(false) => {}
            Gf::Const(true) => return Gf::Const(true),
            Gf::Or(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Gf::Const(false),
        1 => out.pop().expect("one element"),
        _ => Gf::Or(out),
    }
}

/// Positive-polarity NNF of an atom over a safe net (token counts are 0
/// or 1, so every count comparison folds to a constant or a literal).
fn atom_gf(net: &PetriNet, atom: &CompiledAtom) -> Gf {
    match atom {
        CompiledAtom::Count { place, op, k } => match (op.eval(0, *k), op.eval(1, *k)) {
            (true, true) => Gf::Const(true),
            (false, false) => Gf::Const(false),
            (false, true) => Gf::Lit(place.index(), true),
            (true, false) => Gf::Lit(place.index(), false),
        },
        CompiledAtom::Fireable(t) => gf_and(
            net.pre_places(*t)
                .iter()
                .map(|p| Gf::Lit(p.index(), true))
                .collect(),
        ),
        CompiledAtom::Deadlock => gf_and(
            net.transitions()
                .map(|t| {
                    // ¬enabled(t): some pre-place is empty
                    gf_or(
                        net.pre_places(t)
                            .iter()
                            .map(|p| Gf::Lit(p.index(), false))
                            .collect(),
                    )
                })
                .collect(),
        ),
    }
}

fn formula_gf(net: &PetriNet, f: &CompiledFormula, positive: bool) -> Gf {
    match f {
        CompiledFormula::Atom(a) => {
            let g = atom_gf(net, a);
            if positive {
                g
            } else {
                negate_gf(g)
            }
        }
        CompiledFormula::Not(x) => formula_gf(net, x, !positive),
        CompiledFormula::And(xs) => {
            let parts = xs.iter().map(|x| formula_gf(net, x, positive)).collect();
            if positive {
                gf_and(parts)
            } else {
                gf_or(parts)
            }
        }
        CompiledFormula::Or(xs) => {
            let parts = xs.iter().map(|x| formula_gf(net, x, positive)).collect();
            if positive {
                gf_or(parts)
            } else {
                gf_and(parts)
            }
        }
    }
}

fn negate_gf(g: Gf) -> Gf {
    match g {
        Gf::Const(b) => Gf::Const(!b),
        Gf::Lit(p, pos) => Gf::Lit(p, !pos),
        Gf::And(parts) => gf_or(parts.into_iter().map(negate_gf).collect()),
        Gf::Or(parts) => gf_and(parts.into_iter().map(negate_gf).collect()),
    }
}

/// The goal predicate of the property (φ under `EF`, ¬φ under `AG`) as an
/// NNF formula over place literals.
fn goal_gf(net: &PetriNet, prop: &CompiledProperty) -> Gf {
    use petri::property::Quantifier;
    formula_gf(
        net,
        &prop.formula,
        matches!(prop.quantifier, Quantifier::Ef),
    )
}

/// The SAT encoding of one transition step plus the goal predicate.
///
/// Variable layout (fixed so places decode from raw indices):
/// `0..P` current-state place booleans, `P..2P` next-state booleans,
/// `2P..2P+T+1` step selectors (the extra one is an idle/stutter step so
/// successor-free goal states — deadlocks — are still visible to the
/// frame queries), then ladder/Tseitin/activation auxiliaries.
struct Encoder {
    solver: Solver,
    nplaces: usize,
    ntransitions: usize,
    /// Literal asserting the goal predicate on the current state (assumed,
    /// never asserted, so the same solver answers frame queries too).
    goal_lit: Option<Lit>,
    goal_const: Option<bool>,
}

impl Encoder {
    fn cur(&self, p: usize) -> Lit {
        Lit::pos(p as u32)
    }

    fn nxt(&self, p: usize) -> Lit {
        Lit::pos((self.nplaces + p) as u32)
    }

    fn sel(&self, t: usize) -> Lit {
        Lit::pos((2 * self.nplaces + t) as u32)
    }

    fn idle_sel(&self) -> Lit {
        self.sel(self.ntransitions)
    }

    fn new(net: &PetriNet, goal: &Gf) -> Encoder {
        let nplaces = net.place_count();
        let ntransitions = net.transition_count();
        let mut enc = Encoder {
            solver: Solver::new(),
            nplaces,
            ntransitions,
            goal_lit: None,
            goal_const: None,
        };
        for _ in 0..2 * nplaces + ntransitions + 1 {
            enc.solver.new_var();
        }

        // one step fires exactly one (possibly idle) transition
        let selectors: Vec<Lit> = (0..=ntransitions).map(|t| enc.sel(t)).collect();
        enc.solver.add_clause(&selectors);
        // sequential at-most-one ladder: aux_i ⇔ "some selector ≤ i fired"
        let mut prev_aux: Option<Lit> = None;
        for (i, &s) in selectors.iter().enumerate() {
            if i + 1 == selectors.len() {
                if let Some(a) = prev_aux {
                    enc.solver.add_clause(&[a.negated(), s.negated()]);
                }
                break;
            }
            let aux = Lit::pos(enc.solver.new_var());
            enc.solver.add_clause(&[s.negated(), aux]);
            if let Some(a) = prev_aux {
                enc.solver.add_clause(&[a.negated(), aux]);
                enc.solver.add_clause(&[a.negated(), s.negated()]);
            }
            prev_aux = Some(aux);
        }

        // per-transition semantics, matching `PetriNet::fire` on safe nets
        for t in net.transitions() {
            let st = enc.sel(t.index());
            let pre = net.pre_place_set(t);
            let post = net.post_place_set(t);
            for p in net.pre_places(t) {
                // enabledness: every pre-place marked
                enc.solver.add_clause(&[st.negated(), enc.cur(p.index())]);
            }
            for p in net.post_places(t) {
                if !pre.contains(p.index()) {
                    // no-contact rule: a produced place must be empty
                    enc.solver
                        .add_clause(&[st.negated(), enc.cur(p.index()).negated()]);
                }
                // production
                enc.solver.add_clause(&[st.negated(), enc.nxt(p.index())]);
            }
            for p in net.pre_places(t) {
                if !post.contains(p.index()) {
                    // consumption
                    enc.solver
                        .add_clause(&[st.negated(), enc.nxt(p.index()).negated()]);
                }
            }
            for p in 0..nplaces {
                if !pre.contains(p) && !post.contains(p) {
                    // frame axioms: untouched places keep their token
                    enc.solver
                        .add_clause(&[st.negated(), enc.cur(p).negated(), enc.nxt(p)]);
                    enc.solver
                        .add_clause(&[st.negated(), enc.cur(p), enc.nxt(p).negated()]);
                }
            }
        }
        // the idle step copies the marking verbatim; it exists only so a
        // successor-free goal state still satisfies the step relation
        let idle = enc.idle_sel();
        for p in 0..nplaces {
            enc.solver
                .add_clause(&[idle.negated(), enc.cur(p).negated(), enc.nxt(p)]);
            enc.solver
                .add_clause(&[idle.negated(), enc.cur(p), enc.nxt(p).negated()]);
        }

        // goal predicate, Tseitin-encoded in the implication direction
        // (g → φ), asserted by assuming g
        match goal {
            Gf::Const(b) => enc.goal_const = Some(*b),
            g => {
                let root = enc.tseitin(g);
                enc.goal_lit = Some(root);
            }
        }
        enc
    }

    fn tseitin(&mut self, g: &Gf) -> Lit {
        match g {
            Gf::Const(_) => unreachable!("constants folded before encoding"),
            Gf::Lit(p, pos) => Lit::new(self.cur(*p).var(), *pos),
            Gf::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.tseitin(p)).collect();
                let a = Lit::pos(self.solver.new_var());
                for l in lits {
                    self.solver.add_clause(&[a.negated(), l]);
                }
                a
            }
            Gf::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.tseitin(p)).collect();
                let a = Lit::pos(self.solver.new_var());
                let mut clause = vec![a.negated()];
                clause.extend(lits);
                self.solver.add_clause(&clause);
                a
            }
        }
    }

    /// The primed (next-state) copy of a current-state place literal.
    fn primed(&self, l: Lit) -> Lit {
        debug_assert!((l.var() as usize) < self.nplaces);
        Lit::new(l.var() + self.nplaces as u32, l.is_positive())
    }

    /// The full current-state cube of the last model.
    fn model_cube(&self) -> Vec<Lit> {
        (0..self.nplaces)
            .map(|p| {
                let l = self.cur(p);
                Lit::new(l.var(), self.solver.model_true(l))
            })
            .collect()
    }

    /// The transition selected in the last model (`None` = idle).
    fn model_transition(&self) -> Option<TransitionId> {
        (0..self.ntransitions)
            .find(|&t| self.solver.model_true(self.sel(t)))
            .map(TransitionId::new)
    }
}

/// A backward-reachability node: a state cube plus the step it takes
/// toward the goal, forming a trace when the chain reaches the initial
/// marking.
struct CexNode {
    cube: Vec<Lit>,
    /// Step from this cube toward the goal (`None` on the goal cube).
    step: Option<(TransitionId, usize)>,
}

/// Everything IC3 tracks across queries.
struct Ic3<'a> {
    net: &'a PetriNet,
    prop: &'a CompiledProperty,
    budget: &'a Budget,
    enc: Encoder,
    /// Activation literal per frame index (index 0 unused: `F_0` is the
    /// initial marking, asserted as a complete assumption cube).
    frame_act: Vec<Lit>,
    /// `(blocked cube, level)` per learned lemma.
    lemmas: Vec<(Vec<Lit>, usize)>,
    /// Invariant-seeded clauses over current-state literals (always
    /// active; part of every certificate).
    seeds: Vec<Vec<Lit>>,
    init_lits: Vec<Lit>,
    stats: PdrStats,
    started: Instant,
    /// Obligations still open when the budget ran out.
    open_obligations: usize,
}

enum Ic3Answer {
    Reachable(Vec<TransitionId>),
    Proved(Certificate),
    Internal(String),
}

impl<'a> Ic3<'a> {
    fn new(net: &'a PetriNet, prop: &'a CompiledProperty, budget: &'a Budget) -> Ic3<'a> {
        let goal = goal_gf(net, prop);
        let enc = Encoder::new(net, &goal);
        let init_lits = net
            .places()
            .map(|p| Lit::new(p.index() as u32, net.initial_marking().is_marked(p)))
            .collect();
        let mut ic3 = Ic3 {
            net,
            prop,
            budget,
            enc,
            frame_act: vec![Lit::pos(0); 1], // index 0 placeholder, never used
            lemmas: Vec::new(),
            seeds: Vec::new(),
            init_lits,
            stats: PdrStats::default(),
            started: Instant::now(),
            open_obligations: 0,
        };
        ic3.seed_invariant_clauses();
        ic3
    }

    fn bytes_estimate(&self) -> usize {
        (self.enc.solver.clause_lits as usize) * 4 + self.enc.solver.num_vars() * 24
    }

    fn over_budget(&self) -> Option<petri::ExhaustionReason> {
        self.budget
            .exceeded(self.stats.lemmas, self.bytes_estimate())
    }

    fn coverage(&self, frontier: usize) -> CoverageStats {
        CoverageStats {
            states_stored: self.stats.lemmas,
            states_expanded: self.stats.sat_calls as usize,
            frontier_len: frontier,
            bytes_estimate: self.bytes_estimate(),
            elapsed: self.started.elapsed(),
        }
    }

    /// Seeds the frames with clauses derived from P-invariants, restricted
    /// to the three families whose boolean shadow is *self-inductive* on a
    /// safe net (each family's proof uses only its own clauses, so any
    /// union stays inductive — a general invariant-derived clause is true
    /// in every reachable marking but **not** necessarily inductive, and
    /// would poison the certificate):
    ///
    /// 1. weight `w·m = 0`: every support place stays empty (units) — any
    ///    transition producing into the support must consume from it;
    /// 2. weight-1 invariant with constant 1: exactly-one group (its
    ///    at-least-one clause plus all pairwise at-most-one clauses);
    /// 3. any invariant with constant ≥ 1: the at-least-one clause alone —
    ///    a transition consuming the last support token must produce
    ///    support weight back.
    ///
    /// Every invariant is first re-verified against the incidence matrix
    /// in exact `i128` arithmetic, so wrapped Farkas arithmetic (the bug
    /// class fixed alongside this engine) can never reach a proof.
    fn seed_invariant_clauses(&mut self) {
        let c = petri::incidence_matrix(self.net);
        let m0 = self.net.initial_marking();
        for inv in place_invariants_capped(self.net, INVARIANT_ROW_LIMIT) {
            // provenance check: x ≥ 0, x ≠ 0, and x·C = 0 exactly
            if inv.iter().all(|&w| w == 0) || inv.iter().any(|&w| w < 0) {
                continue;
            }
            let exact = (0..self.net.transition_count()).all(|t| {
                (0..self.net.place_count())
                    .map(|p| i128::from(inv[p]) * i128::from(c[p][t]))
                    .sum::<i128>()
                    == 0
            });
            if !exact {
                continue;
            }
            let support: Vec<usize> = (0..self.net.place_count())
                .filter(|&p| inv[p] > 0)
                .collect();
            let b: i128 = support
                .iter()
                .filter(|&&p| m0.is_marked(PlaceId::new(p)))
                .map(|&p| i128::from(inv[p]))
                .sum();
            if b == 0 {
                for &p in &support {
                    self.add_seed(vec![Lit::neg(p as u32)]);
                }
            } else {
                self.add_seed(support.iter().map(|&p| Lit::pos(p as u32)).collect());
                let weight_one = support.iter().all(|&p| inv[p] == 1);
                if b == 1 && weight_one && support.len() <= EXACTLY_ONE_SUPPORT_LIMIT {
                    for (i, &p) in support.iter().enumerate() {
                        for &q in &support[i + 1..] {
                            self.add_seed(vec![Lit::neg(p as u32), Lit::neg(q as u32)]);
                        }
                    }
                }
            }
        }
    }

    fn add_seed(&mut self, clause: Vec<Lit>) {
        self.enc.solver.add_clause(&clause);
        self.seeds.push(clause);
        self.stats.seeded_clauses += 1;
    }

    fn ensure_frame(&mut self, level: usize) {
        while self.frame_act.len() <= level {
            let act = Lit::pos(self.enc.solver.new_var());
            self.frame_act.push(act);
            self.stats.frames = self.stats.frames.max(self.frame_act.len() - 1);
        }
    }

    /// Activation assumptions selecting the clauses of `F_level`.
    fn frame_assumptions(&self, level: usize) -> Vec<Lit> {
        self.frame_act[level..].to_vec()
    }

    fn solve(&mut self, assumptions: &[Lit]) -> Result<SolveResult, petri::ExhaustionReason> {
        if let Some(r) = self.over_budget() {
            return Err(self.budget.stop_reason(r));
        }
        self.stats.sat_calls += 1;
        let budget = self.budget;
        let states = self.stats.lemmas;
        let bytes = self.bytes_estimate();
        let mut stop = move || budget.exceeded(states, bytes).is_some();
        let r = self.enc.solver.solve(assumptions, &mut stop);
        self.stats.conflicts = self.enc.solver.conflicts;
        self.stats.propagations = self.enc.solver.propagations;
        match r {
            SolveResult::Stopped => Err(self
                .budget
                .stop_reason(self.over_budget().unwrap_or(petri::ExhaustionReason::Time))),
            other => Ok(other),
        }
    }

    /// Installs the blocking clause `¬cube` at `level`.
    fn add_lemma(&mut self, cube: &[Lit], level: usize) {
        self.ensure_frame(level);
        let mut clause = vec![self.frame_act[level].negated()];
        clause.extend(cube.iter().map(|l| l.negated()));
        self.enc.solver.add_clause(&clause);
        self.lemmas.push((cube.to_vec(), level));
        self.stats.lemmas += 1;
    }

    /// `true` if the cube contains (is satisfied by) the initial marking.
    fn cube_holds_at_init(&self, cube: &[Lit]) -> bool {
        cube.iter().all(|l| {
            let marked = self
                .net
                .initial_marking()
                .is_marked(PlaceId::new(l.var() as usize));
            marked == l.is_positive()
        })
    }

    /// Relative-induction query for an obligation `(cube, level)`:
    /// is `F_{level−1} ∧ ¬cube ∧ T ∧ cube′` satisfiable?
    ///
    /// On SAT returns the predecessor cube and the connecting transition;
    /// on UNSAT returns the generalized sub-cube from the failed core.
    fn query_obligation(
        &mut self,
        cube: &[Lit],
        level: usize,
    ) -> Result<ObligationAnswer, petri::ExhaustionReason> {
        let primed: Vec<Lit> = cube.iter().map(|l| self.enc.primed(*l)).collect();
        let mut assumptions: Vec<Lit> = Vec::new();
        let mut temp_act: Option<Lit> = None;
        if level == 1 {
            // F_0 is the initial marking exactly: assume it as a cube.
            // `cube ≠ init` was checked by the caller, so no ¬cube clause
            // is needed under a complete initial assignment.
            assumptions.extend(self.init_lits.iter().copied());
        } else {
            // temporary activation literal for the ¬cube clause, retired
            // right after the query
            let a = Lit::pos(self.enc.solver.new_var());
            let mut not_cube = vec![a.negated()];
            not_cube.extend(cube.iter().map(|l| l.negated()));
            self.enc.solver.add_clause(&not_cube);
            temp_act = Some(a);
            assumptions.push(a);
            assumptions.extend(self.frame_assumptions(level - 1));
        }
        assumptions.extend(primed.iter().copied());
        let result = self.solve(&assumptions);
        let answer = match result {
            Err(e) => Err(e),
            Ok(SolveResult::Stopped) => unreachable!("mapped to Err by solve()"),
            Ok(SolveResult::Sat) => {
                let pred = self.enc.model_cube();
                let step = self
                    .enc
                    .model_transition()
                    .expect("idle step cannot connect distinct cubes");
                Ok(ObligationAnswer::Predecessor { pred, step })
            }
            Ok(SolveResult::Unsat) => {
                let core: Vec<Lit> = self.enc.solver.failed_assumptions().to_vec();
                let mut generalized: Vec<Lit> = cube
                    .iter()
                    .zip(&primed)
                    .filter(|(_, pl)| core.contains(pl))
                    .map(|(l, _)| *l)
                    .collect();
                // initiation repair: the lemma ¬generalized must hold at
                // the initial marking, so keep a literal that is false
                // there (one exists: cube ≠ init)
                if self.cube_holds_at_init(&generalized) {
                    let l = cube
                        .iter()
                        .find(|l| {
                            let marked = self
                                .net
                                .initial_marking()
                                .is_marked(PlaceId::new(l.var() as usize));
                            marked != l.is_positive()
                        })
                        .expect("obligation cube differs from the initial marking");
                    generalized.push(*l);
                }
                Ok(ObligationAnswer::Blocked { generalized })
            }
        };
        if let Some(a) = temp_act {
            self.enc.solver.add_clause(&[a.negated()]);
        }
        answer
    }

    /// Blocks a goal cube found in `F_k`, recursing backwards through
    /// predecessors. Returns a trace if the chase reaches the initial
    /// marking, `None` once every obligation is discharged.
    fn block(
        &mut self,
        goal_cube: Vec<Lit>,
        k: usize,
    ) -> Result<Option<Vec<TransitionId>>, petri::ExhaustionReason> {
        let mut nodes: Vec<CexNode> = vec![CexNode {
            cube: goal_cube,
            step: None,
        }];
        let mut heap: BinaryHeap<Reverse<(usize, u64, usize)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        heap.push(Reverse((k, seq, 0)));
        while let Some(Reverse((level, _, node_idx))) = heap.pop() {
            self.stats.obligations += 1;
            if let Some(r) = self.over_budget() {
                self.open_obligations = heap.len() + 1;
                return Err(self.budget.stop_reason(r));
            }
            let cube = nodes[node_idx].cube.clone();
            if self.cube_holds_at_init(&cube) {
                return Ok(Some(self.trace_from(&nodes, node_idx)));
            }
            match self.query_obligation(&cube, level) {
                Err(r) => {
                    self.open_obligations = heap.len() + 1;
                    return Err(r);
                }
                Ok(ObligationAnswer::Predecessor { pred, step }) => {
                    if level == 1 {
                        // the predecessor is the initial marking itself
                        let mut trace = vec![step];
                        trace.extend(self.trace_from(&nodes, node_idx));
                        return Ok(Some(trace));
                    }
                    nodes.push(CexNode {
                        cube: pred,
                        step: Some((step, node_idx)),
                    });
                    let pred_idx = nodes.len() - 1;
                    seq += 1;
                    heap.push(Reverse((level - 1, seq, pred_idx)));
                    seq += 1;
                    heap.push(Reverse((level, seq, node_idx)));
                }
                Ok(ObligationAnswer::Blocked { generalized }) => {
                    self.add_lemma(&generalized, level);
                    if level < k {
                        seq += 1;
                        heap.push(Reverse((level + 1, seq, node_idx)));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Walks a node chain down to the goal cube, collecting the steps.
    fn trace_from(&self, nodes: &[CexNode], mut idx: usize) -> Vec<TransitionId> {
        let mut trace = Vec::new();
        while let Some((t, next)) = nodes[idx].step {
            trace.push(t);
            idx = next;
        }
        trace
    }

    /// Pushes lemmas forward and scans for two coinciding frames.
    fn propagate_and_check(
        &mut self,
        k: usize,
    ) -> Result<Option<Certificate>, petri::ExhaustionReason> {
        self.ensure_frame(k + 1);
        for level in 1..=k {
            let candidates: Vec<usize> = (0..self.lemmas.len())
                .filter(|&i| self.lemmas[i].1 == level)
                .collect();
            for i in candidates {
                let cube = self.lemmas[i].0.clone();
                let primed: Vec<Lit> = cube.iter().map(|l| self.enc.primed(*l)).collect();
                let mut assumptions = self.frame_assumptions(level);
                assumptions.extend(primed);
                match self.solve(&assumptions)? {
                    SolveResult::Unsat => {
                        self.lemmas[i].1 = level + 1;
                        let mut clause = vec![self.frame_act[level + 1].negated()];
                        clause.extend(cube.iter().map(|l| l.negated()));
                        self.enc.solver.add_clause(&clause);
                    }
                    SolveResult::Sat => {}
                    SolveResult::Stopped => unreachable!("mapped to Err by solve()"),
                }
            }
        }
        for level in 1..=k {
            if self.lemmas.iter().all(|(_, l)| *l != level) {
                // F_level = F_{level+1}: inductive
                let mut clauses: Vec<Vec<(PlaceId, bool)>> = Vec::new();
                for seed in &self.seeds {
                    clauses.push(
                        seed.iter()
                            .map(|l| (PlaceId::new(l.var() as usize), l.is_positive()))
                            .collect(),
                    );
                }
                for (cube, l) in &self.lemmas {
                    if *l > level {
                        clauses.push(
                            cube.iter()
                                .map(|l| (PlaceId::new(l.var() as usize), !l.is_positive()))
                                .collect(),
                        );
                    }
                }
                return Ok(Some(Certificate { clauses }));
            }
        }
        Ok(None)
    }

    fn run(&mut self) -> Result<Ic3Answer, petri::ExhaustionReason> {
        // 0-step: is the initial marking itself a goal?
        if self.prop.goal(self.net, self.net.initial_marking()) {
            return Ok(Ic3Answer::Reachable(Vec::new()));
        }
        if self.enc.goal_const == Some(true) {
            // a constant-true goal holds at init, so the 0-step check
            // must have fired; defensive guard against a folding bug
            return Ok(Ic3Answer::Internal(
                "goal folds to true but does not hold at the initial marking".into(),
            ));
        }
        let mut k = 1;
        loop {
            self.ensure_frame(k);
            if self.enc.goal_const != Some(false) {
                loop {
                    let mut assumptions = self.frame_assumptions(k);
                    assumptions.push(self.enc.goal_lit.expect("non-constant goal"));
                    match self.solve(&assumptions)? {
                        SolveResult::Unsat => break,
                        SolveResult::Sat => {
                            let cube = self.enc.model_cube();
                            if let Some(trace) = self.block(cube, k)? {
                                return Ok(Ic3Answer::Reachable(trace));
                            }
                        }
                        SolveResult::Stopped => unreachable!("mapped to Err by solve()"),
                    }
                }
            }
            if let Some(cert) = self.propagate_and_check(k)? {
                return Ok(Ic3Answer::Proved(cert));
            }
            k += 1;
        }
    }
}

enum ObligationAnswer {
    Predecessor { pred: Vec<Lit>, step: TransitionId },
    Blocked { generalized: Vec<Lit> },
}

/// Checks the property on the net under the budget.
///
/// * Goal reachable → `PdrResult.reachable == Some(true)` with a trace
///   that has been replayed on the concrete net.
/// * Goal unreachable → `Some(false)` with a [`Certificate`] that has
///   passed [`validate::validate_certificate`].
/// * Budget exhausted → [`Outcome::Partial`] with `reachable == None`.
///
/// An internal inconsistency (a trace that does not replay, a certificate
/// that does not validate) returns `Err` instead of a verdict.
pub fn check_bounded(
    net: &PetriNet,
    prop: &CompiledProperty,
    budget: &Budget,
) -> Result<Outcome<PdrResult>, String> {
    let mut ic3 = Ic3::new(net, prop, budget);
    let answer = ic3.run();
    let stats = ic3.stats.clone();
    match answer {
        Ok(Ic3Answer::Reachable(trace)) => {
            let m = net
                .fire_sequence(net.initial_marking(), trace.iter().copied())
                .map_err(|e| format!("pdr: counterexample replay error: {e}"))?
                .ok_or("pdr: counterexample trace does not replay on the net")?;
            if !prop.goal(net, &m) {
                return Err("pdr: replayed counterexample does not reach the goal".into());
            }
            Ok(Outcome::Complete(PdrResult {
                reachable: Some(true),
                trace: Some(trace),
                goal_marking: Some(m),
                certificate: None,
                stats,
            }))
        }
        Ok(Ic3Answer::Proved(cert)) => {
            validate::validate_certificate(net, prop, &cert)
                .map_err(|e| format!("pdr: certificate validation failed: {e}"))?;
            Ok(Outcome::Complete(PdrResult {
                reachable: Some(false),
                trace: None,
                goal_marking: None,
                certificate: Some(cert),
                stats,
            }))
        }
        Ok(Ic3Answer::Internal(msg)) => Err(format!("pdr: internal error: {msg}")),
        Err(reason) => {
            let coverage = ic3.coverage(ic3.open_obligations);
            Ok(Outcome::Partial {
                result: PdrResult {
                    reachable: None,
                    trace: None,
                    goal_marking: None,
                    certificate: None,
                    stats,
                },
                reason,
                coverage,
            })
        }
    }
}
