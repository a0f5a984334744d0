//! Whole-net verification verdicts built on exhaustive reachability.
//!
//! This module packages the questions the paper's tool JULIE answers —
//! deadlock freedom, (quasi-)liveness, safeness — into a single
//! [`VerificationReport`], including a witness trace when a deadlock exists.

use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;
use crate::reachability::{ExploreOptions, ReachabilityGraph};

/// Outcome of exhaustively verifying a safe net.
///
/// # Examples
///
/// ```
/// use petri::{NetBuilder, verify};
///
/// let mut b = NetBuilder::new("two-step");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// b.transition("t", [p], [q]);
/// let report = verify(&b.build()?)?;
/// assert_eq!(report.state_count, 2);
/// assert!(report.has_deadlock);
/// assert_eq!(report.deadlock_witness.as_deref().map(|w| w.len()), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Number of reachable states.
    pub state_count: usize,
    /// Number of edges in the reachability graph.
    pub edge_count: usize,
    /// `true` if some reachable marking enables no transition.
    pub has_deadlock: bool,
    /// Number of dead reachable markings.
    pub deadlock_count: usize,
    /// A shortest firing sequence into some dead marking, if one exists.
    pub deadlock_witness: Option<Vec<TransitionId>>,
    /// The dead marking reached by the witness, if any.
    pub deadlock_marking: Option<Marking>,
    /// Transitions that never fire anywhere in the reachable space.
    pub dead_transitions: Vec<TransitionId>,
    /// Wall-clock time of the exploration.
    pub elapsed: Duration,
}

impl VerificationReport {
    /// `true` if every transition fires in at least one reachable marking
    /// (quasi-liveness, called *liveness* in the paper's informal sense).
    pub fn is_quasi_live(&self) -> bool {
        self.dead_transitions.is_empty()
    }
}

/// Exhaustively verifies `net`: explores the full reachability graph and
/// derives deadlock and liveness facts.
///
/// # Errors
///
/// Returns [`NetError::NotSafe`] if the net is not safe.
pub fn verify(net: &PetriNet) -> Result<VerificationReport, NetError> {
    verify_with(net, &ExploreOptions::default())
}

/// Like [`verify`], with explicit exploration options.
///
/// # Errors
///
/// Returns [`NetError::NotSafe`] on safeness violations or
/// [`NetError::StateLimit`] if the option's limit is hit.
pub fn verify_with(net: &PetriNet, opts: &ExploreOptions) -> Result<VerificationReport, NetError> {
    let start = Instant::now();
    let rg = ReachabilityGraph::explore_with(net, opts)?;
    Ok(derive_report(net, &rg, start.elapsed()))
}

/// Derives deadlock and liveness facts from an explored graph.
fn derive_report(net: &PetriNet, rg: &ReachabilityGraph, elapsed: Duration) -> VerificationReport {
    let mut fired = vec![false; net.transition_count()];
    for s in rg.states() {
        for (t, _) in rg.successors(s) {
            fired[t.index()] = true;
        }
    }
    // when edges are not recorded, fall back to per-state enabledness
    if !fired.iter().any(|&f| f) && rg.edge_count() > 0 {
        for s in rg.states() {
            for t in net.transitions() {
                if net.enabled(t, rg.marking(s)) {
                    fired[t.index()] = true;
                }
            }
        }
    }
    let dead_transitions: Vec<TransitionId> =
        net.transitions().filter(|t| !fired[t.index()]).collect();

    let deadlock_witness = rg.deadlocks().first().and_then(|&d| rg.path_to(d));
    let deadlock_marking = rg.deadlocks().first().map(|&d| rg.marking(d).clone());

    VerificationReport {
        state_count: rg.state_count(),
        edge_count: rg.edge_count(),
        has_deadlock: rg.has_deadlock(),
        deadlock_count: rg.deadlocks().len(),
        deadlock_witness,
        deadlock_marking,
        dead_transitions,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    #[test]
    fn live_cycle_reports_no_deadlock() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let report = verify(&b.build().unwrap()).unwrap();
        assert!(!report.has_deadlock);
        assert_eq!(report.deadlock_count, 0);
        assert!(report.deadlock_witness.is_none());
        assert!(report.is_quasi_live());
    }

    #[test]
    fn dead_transition_reported() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let r = b.place("r");
        b.transition("reach", [p], [q]);
        let never = b.transition("never", [r], []);
        let report = verify(&b.build().unwrap()).unwrap();
        assert_eq!(report.dead_transitions, vec![never]);
        assert!(!report.is_quasi_live());
    }

    #[test]
    fn witness_replays_to_dead_marking() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let r = b.place("r");
        b.transition("t1", [p], [q]);
        b.transition("t2", [q], [r]);
        let net = b.build().unwrap();
        let report = verify(&net).unwrap();
        assert!(report.has_deadlock);
        let w = report.deadlock_witness.unwrap();
        assert_eq!(w.len(), 2);
        let m = net
            .fire_sequence(net.initial_marking(), w)
            .unwrap()
            .unwrap();
        assert_eq!(Some(m), report.deadlock_marking);
    }

    #[test]
    fn initial_deadlock_has_empty_witness() {
        let mut b = NetBuilder::new("stuck");
        b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [q], []);
        let report = verify(&b.build().unwrap()).unwrap();
        assert!(report.has_deadlock);
        assert_eq!(report.deadlock_witness, Some(vec![]));
    }

    #[test]
    fn edgeless_exploration_still_counts() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p], [q]);
        let opts = ExploreOptions {
            max_states: usize::MAX,
            record_edges: false,
            ..Default::default()
        };
        let report = verify_with(&b.build().unwrap(), &opts).unwrap();
        assert_eq!(report.state_count, 2);
        assert!(report.is_quasi_live(), "fallback liveness via enabledness");
    }
}
