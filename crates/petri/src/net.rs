//! Net structure: places, transitions, flow relation, and the builder.

use std::collections::HashMap;
use std::fmt;

use crate::bitset::BitSet;
use crate::error::NetError;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;

/// A place of the net together with its pre- and postset.
#[derive(Debug, Clone)]
pub(crate) struct Place {
    pub(crate) name: String,
    /// Transitions with an arc *into* this place (`•p`).
    pub(crate) pre: Vec<TransitionId>,
    /// Transitions with an arc *out of* this place (`p•`).
    pub(crate) post: Vec<TransitionId>,
}

/// A transition of the net together with its pre- and postset, both as id
/// lists (for iteration) and bit sets (for constant-time set queries).
#[derive(Debug, Clone)]
pub(crate) struct Transition {
    pub(crate) name: String,
    /// Places with an arc into this transition (`•t`).
    pub(crate) pre: Vec<PlaceId>,
    /// Places with an arc out of this transition (`t•`).
    pub(crate) post: Vec<PlaceId>,
    pub(crate) pre_set: BitSet,
    pub(crate) post_set: BitSet,
}

/// An immutable safe Petri net `⟨P, T, F, m₀⟩` (Definition 2.1 of the paper).
///
/// Construct one with [`NetBuilder`]. The net stores, for every node, both
/// direction of the flow relation, plus precomputed bit sets so that firing
/// and conflict queries are cheap during state-space exploration.
///
/// # Examples
///
/// ```
/// use petri::NetBuilder;
///
/// let mut b = NetBuilder::new("hello");
/// let p0 = b.place_marked("p0");
/// let p1 = b.place("p1");
/// let t = b.transition("t", [p0], [p1]);
/// let net = b.build()?;
/// assert_eq!(net.place_count(), 2);
/// assert_eq!(net.transition_count(), 1);
/// assert!(net.initial_marking().is_marked(p0));
/// assert_eq!(net.transition_name(t), "t");
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PetriNet {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
    initial: Marking,
}

impl PetriNet {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places `|P|`.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions `|T|`.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The initial marking `m₀`.
    pub fn initial_marking(&self) -> &Marking {
        &self.initial
    }

    /// Iterates over all place ids.
    pub fn places(&self) -> impl ExactSizeIterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(PlaceId::new)
    }

    /// Iterates over all transition ids.
    pub fn transitions(&self) -> impl ExactSizeIterator<Item = TransitionId> + '_ {
        (0..self.transitions.len()).map(TransitionId::new)
    }

    /// The name of place `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` does not belong to this net.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.places[p.index()].name
    }

    /// The name of transition `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this net.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.transitions[t.index()].name
    }

    /// Looks up a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(PlaceId::new)
    }

    /// Looks up a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransitionId::new)
    }

    /// The preset `•t`: places with an arc into `t`.
    pub fn pre_places(&self, t: TransitionId) -> &[PlaceId] {
        &self.transitions[t.index()].pre
    }

    /// The postset `t•`: places with an arc out of `t`.
    pub fn post_places(&self, t: TransitionId) -> &[PlaceId] {
        &self.transitions[t.index()].post
    }

    /// The preset `•t` as a bit set over place indices.
    #[inline]
    pub fn pre_place_set(&self, t: TransitionId) -> &BitSet {
        &self.transitions[t.index()].pre_set
    }

    /// The postset `t•` as a bit set over place indices.
    pub fn post_place_set(&self, t: TransitionId) -> &BitSet {
        &self.transitions[t.index()].post_set
    }

    /// The preset `•p`: transitions with an arc into `p`.
    pub fn pre_transitions(&self, p: PlaceId) -> &[TransitionId] {
        &self.places[p.index()].pre
    }

    /// The postset `p•`: transitions with an arc out of `p`.
    pub fn post_transitions(&self, p: PlaceId) -> &[TransitionId] {
        &self.places[p.index()].post
    }

    /// Total number of arcs `|F|`.
    pub fn arc_count(&self) -> usize {
        self.transitions
            .iter()
            .map(|t| t.pre.len() + t.post.len())
            .sum()
    }

    /// Two transitions are in conflict when they share an input place
    /// (Definition 2.2).
    pub fn in_conflict(&self, t: TransitionId, u: TransitionId) -> bool {
        self.transitions[t.index()]
            .pre_set
            .intersects(&self.transitions[u.index()].pre_set)
    }

    /// A human-readable rendering of a marking using place names.
    pub fn display_marking(&self, m: &Marking) -> String {
        let names: Vec<&str> = m.places().map(|p| self.place_name(p)).collect();
        format!("{{{}}}", names.join(", "))
    }

    /// A stable structural fingerprint of this net (name, places with
    /// their initial marking, transitions with their pre/post sets).
    ///
    /// The fingerprint is identical across processes and builds, so it is
    /// safe to persist: [`checkpoint`](crate::checkpoint) snapshots embed
    /// it and refuse to resume against a structurally different net.
    pub fn fingerprint(&self) -> u64 {
        crate::checkpoint::net_fingerprint(self)
    }
}

impl fmt::Display for PetriNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "net {} ({} places, {} transitions, {} arcs)",
            self.name,
            self.place_count(),
            self.transition_count(),
            self.arc_count()
        )?;
        for t in self.transitions() {
            let pre: Vec<&str> = self
                .pre_places(t)
                .iter()
                .map(|&p| self.place_name(p))
                .collect();
            let post: Vec<&str> = self
                .post_places(t)
                .iter()
                .map(|&p| self.place_name(p))
                .collect();
            writeln!(
                f,
                "  tr {} : {} -> {}",
                self.transition_name(t),
                pre.join(" "),
                post.join(" ")
            )?;
        }
        write!(f, "  marking {}", self.display_marking(&self.initial))
    }
}

/// Incremental builder for a [`PetriNet`].
///
/// Places and transitions are declared in order; ids are handed back
/// immediately so arcs can reference them. `build` validates the result.
///
/// # Examples
///
/// ```
/// use petri::NetBuilder;
///
/// let mut b = NetBuilder::new("choice");
/// let p = b.place_marked("p");
/// let q = b.place("q");
/// let r = b.place("r");
/// b.transition("a", [p], [q]);
/// b.transition("b", [p], [r]);
/// let net = b.build()?;
/// let a = net.transition_by_name("a").unwrap();
/// let bb = net.transition_by_name("b").unwrap();
/// assert!(net.in_conflict(a, bb));
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetBuilder {
    name: String,
    place_names: Vec<String>,
    marked: Vec<bool>,
    transition_names: Vec<String>,
    arcs: Vec<(Vec<PlaceId>, Vec<PlaceId>)>,
}

impl NetBuilder {
    /// Starts a new builder for a net called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetBuilder {
            name: name.into(),
            place_names: Vec::new(),
            marked: Vec::new(),
            transition_names: Vec::new(),
            arcs: Vec::new(),
        }
    }

    /// Declares an initially unmarked place.
    pub fn place(&mut self, name: impl Into<String>) -> PlaceId {
        self.place_names.push(name.into());
        self.marked.push(false);
        PlaceId::new(self.place_names.len() - 1)
    }

    /// Declares a place holding a token in the initial marking.
    pub fn place_marked(&mut self, name: impl Into<String>) -> PlaceId {
        let id = self.place(name);
        self.marked[id.index()] = true;
        id
    }

    /// Marks an already declared place in the initial marking.
    pub fn mark(&mut self, p: PlaceId) {
        self.marked[p.index()] = true;
    }

    /// Declares a transition with the given pre- and postset.
    pub fn transition(
        &mut self,
        name: impl Into<String>,
        pre: impl IntoIterator<Item = PlaceId>,
        post: impl IntoIterator<Item = PlaceId>,
    ) -> TransitionId {
        self.transition_names.push(name.into());
        self.arcs
            .push((pre.into_iter().collect(), post.into_iter().collect()));
        TransitionId::new(self.transition_names.len() - 1)
    }

    /// Number of places declared so far.
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions declared so far.
    pub fn transition_count(&self) -> usize {
        self.transition_names.len()
    }

    /// Validates and finalizes the net.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DuplicateName`] if two nodes share a name, or
    /// [`NetError::DuplicateArc`] if the same arc was declared twice.
    pub fn build(self) -> Result<PetriNet, NetError> {
        let mut seen = HashMap::new();
        for n in self.place_names.iter().chain(&self.transition_names) {
            if seen.insert(n.clone(), ()).is_some() {
                return Err(NetError::DuplicateName(n.clone()));
            }
        }

        let place_count = self.place_names.len();
        let mut places: Vec<Place> = self
            .place_names
            .iter()
            .map(|n| Place {
                name: n.clone(),
                pre: Vec::new(),
                post: Vec::new(),
            })
            .collect();

        let mut transitions = Vec::with_capacity(self.transition_names.len());
        for (i, (pre, post)) in self.arcs.iter().enumerate() {
            let t = TransitionId::new(i);
            let name = self.transition_names[i].clone();
            let mut pre_set = BitSet::new(place_count);
            let mut post_set = BitSet::new(place_count);
            for &p in pre {
                if !pre_set.insert(p.index()) {
                    return Err(NetError::DuplicateArc {
                        from: self.place_names[p.index()].clone(),
                        to: name,
                    });
                }
                places[p.index()].post.push(t);
            }
            for &p in post {
                if !post_set.insert(p.index()) {
                    return Err(NetError::DuplicateArc {
                        from: name,
                        to: self.place_names[p.index()].clone(),
                    });
                }
                places[p.index()].pre.push(t);
            }
            transitions.push(Transition {
                name,
                pre: pre.clone(),
                post: post.clone(),
                pre_set,
                post_set,
            });
        }

        let initial = Marking::from_bits(BitSet::from_iter_with_capacity(
            place_count,
            self.marked
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| i),
        ));

        Ok(PetriNet {
            name: self.name,
            places,
            transitions,
            initial,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> PetriNet {
        let mut b = NetBuilder::new("simple");
        let p0 = b.place_marked("p0");
        let p1 = b.place("p1");
        let p2 = b.place("p2");
        b.transition("a", [p0], [p1]);
        b.transition("b", [p1], [p2]);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_expected_structure() {
        let net = simple();
        assert_eq!(net.name(), "simple");
        assert_eq!(net.place_count(), 3);
        assert_eq!(net.transition_count(), 2);
        assert_eq!(net.arc_count(), 4);
        let a = net.transition_by_name("a").unwrap();
        assert_eq!(net.pre_places(a), &[PlaceId::new(0)]);
        assert_eq!(net.post_places(a), &[PlaceId::new(1)]);
    }

    #[test]
    fn place_presets_and_postsets_are_filled() {
        let net = simple();
        let p1 = net.place_by_name("p1").unwrap();
        let a = net.transition_by_name("a").unwrap();
        let b = net.transition_by_name("b").unwrap();
        assert_eq!(net.pre_transitions(p1), &[a]);
        assert_eq!(net.post_transitions(p1), &[b]);
    }

    #[test]
    fn initial_marking_reflects_marked_places() {
        let net = simple();
        let m = net.initial_marking();
        assert!(m.is_marked(net.place_by_name("p0").unwrap()));
        assert!(!m.is_marked(net.place_by_name("p1").unwrap()));
        assert_eq!(m.token_count(), 1);
    }

    #[test]
    fn mark_after_declaration() {
        let mut b = NetBuilder::new("n");
        let p = b.place("p");
        b.mark(p);
        let net = b.build().unwrap();
        assert!(net.initial_marking().is_marked(p));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = NetBuilder::new("n");
        b.place("x");
        b.place("x");
        assert_eq!(b.build().unwrap_err(), NetError::DuplicateName("x".into()));
    }

    #[test]
    fn place_and_transition_sharing_name_rejected() {
        let mut b = NetBuilder::new("n");
        let p = b.place("x");
        b.transition("x", [p], []);
        assert!(matches!(b.build(), Err(NetError::DuplicateName(_))));
    }

    #[test]
    fn duplicate_arc_rejected() {
        let mut b = NetBuilder::new("n");
        let p = b.place("p");
        b.transition("t", [p, p], []);
        assert!(matches!(b.build(), Err(NetError::DuplicateArc { .. })));
    }

    #[test]
    fn conflict_detection() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        let q = b.place("q");
        let a = b.transition("a", [p], [q]);
        let c = b.transition("c", [p], []);
        let d = b.transition("d", [q], []);
        let net = b.build().unwrap();
        assert!(net.in_conflict(a, c));
        assert!(net.in_conflict(a, a), "a transition conflicts with itself");
        assert!(!net.in_conflict(a, d));
    }

    #[test]
    fn lookup_by_name_misses_gracefully() {
        let net = simple();
        assert!(net.place_by_name("nope").is_none());
        assert!(net.transition_by_name("nope").is_none());
    }

    #[test]
    fn display_contains_structure() {
        let s = simple().to_string();
        assert!(s.contains("net simple"));
        assert!(s.contains("tr a : p0 -> p1"));
        assert!(s.contains("marking {p0}"));
    }

    #[test]
    fn source_and_sink_transitions_allowed() {
        let mut b = NetBuilder::new("n");
        let p = b.place_marked("p");
        b.transition("sink", [p], []);
        b.transition("source", [], [p]);
        let net = b.build().unwrap();
        assert_eq!(net.transition_count(), 2);
        let source = net.transition_by_name("source").unwrap();
        assert!(net.pre_places(source).is_empty());
    }
}
