//! Structural dependency relations between transitions.
//!
//! Partial-order reduction rests on knowing, *statically*, which transitions
//! can interfere with each other. For safe Petri nets the relevant relations
//! are all derived from the flow relation:
//!
//! * `t` **conflicts with** `u` — they compete for tokens (`•t ∩ •u ≠ ∅`);
//!   firing one can disable the other.
//! * `t` **enables** `u` — `t` produces a token `u` needs (`t• ∩ •u ≠ ∅`).
//! * `t` is **dependent on** `u` — they conflict or one enables the other;
//!   independent transitions commute in every marking.

use petri::{BitSet, PetriNet, TransitionId};

/// Precomputed structural dependency matrices for a net.
///
/// # Examples
///
/// ```
/// use partial_order::Dependencies;
/// use petri::NetBuilder;
///
/// let mut b = NetBuilder::new("n");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// let a = b.transition("a", [p], [q]);
/// let c = b.transition("c", [q], []);
/// let net = b.build()?;
/// let dep = Dependencies::new(&net);
/// assert!(dep.enables(a, c));
/// assert!(!dep.conflicts(a, c));
/// assert!(dep.dependent(a, c));
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependencies {
    conflicts: Vec<BitSet>,
    enables: Vec<BitSet>,
    dependent: Vec<BitSet>,
}

impl Dependencies {
    /// Computes the dependency matrices of `net`.
    pub fn new(net: &PetriNet) -> Self {
        Self::new_with_threads(net, 1)
    }

    /// Computes the dependency matrices of `net` with `threads` workers.
    ///
    /// Each worker derives a contiguous chunk of per-transition rows from
    /// the flow relation alone (no shared mutable state), so the result is
    /// bit-for-bit identical for every thread count. One worker runs in
    /// the calling thread.
    pub fn new_with_threads(net: &PetriNet, threads: usize) -> Self {
        let n = net.transition_count();
        let ids: Vec<TransitionId> = net.transitions().collect();
        let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
        let rows: Vec<(BitSet, BitSet, BitSet)> = if chunk >= n {
            ids.iter().map(|&t| Self::row(net, t, n)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ids
                    .chunks(chunk)
                    .map(|ts| {
                        scope.spawn(move || {
                            ts.iter().map(|&t| Self::row(net, t, n)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("dependency worker panicked"))
                    .collect::<Vec<_>>()
            })
        };
        let (conflicts, (enables, dependent)) =
            rows.into_iter().map(|(c, e, d)| (c, (e, d))).unzip();
        Dependencies {
            conflicts,
            enables,
            dependent,
        }
    }

    /// One transition's rows of the three matrices, read off the flow
    /// relation: conflicts are the other consumers of `•t`, enablees the
    /// consumers of `t•`, and dependency adds the producers of `•t` (the
    /// transitions that enable `t`).
    fn row(net: &PetriNet, t: TransitionId, n: usize) -> (BitSet, BitSet, BitSet) {
        let mut conflicts = BitSet::new(n);
        for &p in net.pre_places(t) {
            for &u in net.post_transitions(p) {
                if u != t {
                    conflicts.insert(u.index());
                }
            }
        }
        let mut enables = BitSet::new(n);
        for &p in net.post_places(t) {
            for &u in net.post_transitions(p) {
                if u != t {
                    enables.insert(u.index());
                }
            }
        }
        let mut dependent = conflicts.union(&enables);
        for &p in net.pre_places(t) {
            for &u in net.pre_transitions(p) {
                if u != t {
                    dependent.insert(u.index());
                }
            }
        }
        (conflicts, enables, dependent)
    }

    /// `true` if `t` and `u` share an input place.
    pub fn conflicts(&self, t: TransitionId, u: TransitionId) -> bool {
        self.conflicts[t.index()].contains(u.index())
    }

    /// `true` if `t` produces a token into an input place of `u`.
    pub fn enables(&self, t: TransitionId, u: TransitionId) -> bool {
        self.enables[t.index()].contains(u.index())
    }

    /// `true` if `t` and `u` are dependent (conflict or enable in either
    /// direction). Independent transitions commute in every marking.
    pub fn dependent(&self, t: TransitionId, u: TransitionId) -> bool {
        self.dependent[t.index()].contains(u.index())
    }

    /// The set of transitions conflicting with `t`.
    pub fn conflict_set(&self, t: TransitionId) -> &BitSet {
        &self.conflicts[t.index()]
    }

    /// The set of transitions `t` enables.
    pub fn enable_set(&self, t: TransitionId) -> &BitSet {
        &self.enables[t.index()]
    }

    /// The set of transitions dependent on `t`.
    pub fn dependent_set(&self, t: TransitionId) -> &BitSet {
        &self.dependent[t.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petri::NetBuilder;

    #[test]
    fn independent_transitions_commute() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        let s = b.place("s");
        let t1 = b.transition("t1", [p], [r]);
        let t2 = b.transition("t2", [q], [s]);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(!dep.dependent(t1, t2));
        assert!(!dep.dependent(t2, t1));
        // semantic check: both orders give the same marking
        let m12 = net
            .fire_sequence(net.initial_marking(), [t1, t2])
            .unwrap()
            .unwrap();
        let m21 = net
            .fire_sequence(net.initial_marking(), [t2, t1])
            .unwrap()
            .unwrap();
        assert_eq!(m12, m21);
    }

    #[test]
    fn conflict_is_symmetric() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let a = b.transition("a", [p], []);
        let c = b.transition("c", [p], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(dep.conflicts(a, c));
        assert!(dep.conflicts(c, a));
        assert!(dep.dependent(a, c));
        assert!(dep.dependent(c, a));
    }

    #[test]
    fn enabling_is_directional_but_dependency_symmetric() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [q]);
        let c = b.transition("c", [q], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(dep.enables(a, c));
        assert!(!dep.enables(c, a));
        assert!(dep.dependent(a, c));
        assert!(dep.dependent(c, a));
    }

    #[test]
    fn self_loop_producer_enables_consumers() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [p, q]);
        let c = b.transition("c", [q], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert!(dep.enables(a, c));
        assert!(!dep.enables(a, a), "no self-enabling recorded");
    }

    /// Independent oracle: the matrices built by one sweep over places.
    fn per_place_sweep(net: &PetriNet) -> Dependencies {
        let n = net.transition_count();
        let mut conflicts = vec![BitSet::new(n); n];
        let mut enables = vec![BitSet::new(n); n];
        for p in net.places() {
            for &t in net.post_transitions(p) {
                for &u in net.post_transitions(p).iter().filter(|&&u| u != t) {
                    conflicts[t.index()].insert(u.index());
                }
                for &u in net.pre_transitions(p).iter().filter(|&&u| u != t) {
                    enables[u.index()].insert(t.index());
                }
            }
        }
        let dependent = (0..n)
            .map(|i| {
                let mut d = conflicts[i].union(&enables[i]);
                for j in (0..n).filter(|&j| enables[j].contains(i)) {
                    d.insert(j);
                }
                d
            })
            .collect();
        Dependencies {
            conflicts,
            enables,
            dependent,
        }
    }

    #[test]
    fn threaded_builder_matches_serial() {
        // the per-row formulas must agree bit-for-bit with the per-place
        // serial sweep, for any worker count (including more workers than
        // transitions)
        for net in [
            models::figures::fig2(4),
            models::figures::fig7(),
            models::nsdp(4),
            models::readers_writers(3),
            models::overtake(3),
            models::asat(4),
        ] {
            let serial = per_place_sweep(&net);
            for threads in [1usize, 2, 3, 8, 64] {
                assert_eq!(
                    Dependencies::new_with_threads(&net, threads),
                    serial,
                    "{} threads={threads}",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn sets_match_pairwise_queries() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [q]);
        let c = b.transition("c", [p], []);
        let d = b.transition("d", [q], []);
        let net = b.build().unwrap();
        let dep = Dependencies::new(&net);
        assert_eq!(
            dep.conflict_set(a).iter().collect::<Vec<_>>(),
            vec![c.index()]
        );
        assert_eq!(
            dep.enable_set(a).iter().collect::<Vec<_>>(),
            vec![d.index()]
        );
        let deps: Vec<usize> = dep.dependent_set(a).iter().collect();
        assert_eq!(deps, vec![c.index(), d.index()]);
    }
}
