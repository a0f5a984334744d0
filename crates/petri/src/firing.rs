//! The classical enabling and firing rules (Definitions 2.3 and 2.4).

use crate::error::NetError;
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;

/// Firing-rule queries and updates on a [`PetriNet`].
///
/// These are free-standing in spirit but exposed as methods on the net so
/// call sites read naturally (`net.enabled(t, &m)`).
impl PetriNet {
    /// Definition 2.3: `t` is enabled in `m` iff every input place is marked.
    ///
    /// # Examples
    ///
    /// ```
    /// use petri::NetBuilder;
    ///
    /// let mut b = NetBuilder::new("n");
    /// let p = b.place_marked("p");
    /// let q = b.place("q");
    /// let t = b.transition("t", [p], [q]);
    /// let net = b.build()?;
    /// assert!(net.enabled(t, net.initial_marking()));
    /// # Ok::<(), petri::NetError>(())
    /// ```
    // inlined (with the bit-set test under it) into every engine's
    // successor scan, which runs once per transition per state
    #[inline]
    pub fn enabled(&self, t: TransitionId, m: &Marking) -> bool {
        m.covers(self.pre_place_set(t))
    }

    /// All transitions enabled in `m`, in index order.
    pub fn enabled_transitions(&self, m: &Marking) -> Vec<TransitionId> {
        self.transitions().filter(|&t| self.enabled(t, m)).collect()
    }

    /// `true` if no transition is enabled in `m` — a deadlock (or final) state.
    pub fn is_dead(&self, m: &Marking) -> bool {
        self.transitions().all(|t| !self.enabled(t, m))
    }

    /// Definition 2.4: fires `t` in `m`, producing the successor marking.
    ///
    /// Tokens are removed from `•t \ t•`, added to `t• \ •t`, and places in
    /// `•t ∩ t•` (self-loops) keep their token.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] if the firing would place a second token
    /// in a place — i.e. the net is not safe from this marking.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` is not enabled in `m`.
    pub fn fire(&self, t: TransitionId, m: &Marking) -> Result<Marking, NetError> {
        debug_assert!(self.enabled(t, m), "fired disabled transition {t}");
        let mut next = m.clone();
        let pre = self.pre_place_set(t);
        let post = self.post_place_set(t);
        for p in self.pre_places(t) {
            if !post.contains(p.index()) {
                next.remove_token(*p);
            }
        }
        for p in self.post_places(t) {
            if !pre.contains(p.index()) && !next.add_token(*p) {
                return Err(NetError::NotSafe {
                    place: self.place_name(*p).to_string(),
                    transition: self.transition_name(t).to_string(),
                });
            }
        }
        Ok(next)
    }

    /// Fires a whole sequence of transitions starting from `m`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] if a firing violates safeness. Returns
    /// `Ok(None)` if some transition in the sequence is not enabled when its
    /// turn comes.
    pub fn fire_sequence<I>(&self, m: &Marking, seq: I) -> Result<Option<Marking>, NetError>
    where
        I: IntoIterator<Item = TransitionId>,
    {
        let mut cur = m.clone();
        for t in seq {
            if !self.enabled(t, &cur) {
                return Ok(None);
            }
            cur = self.fire(t, &cur)?;
        }
        Ok(Some(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    fn fork_join() -> (PetriNet, Vec<TransitionId>) {
        // p0 -> split -> (p1, p2); p1 -> a -> p3; p2 -> b -> p4; (p3,p4) -> join -> p0
        let mut b = NetBuilder::new("fork-join");
        let p0 = b.place_marked("p0");
        let p1 = b.place("p1");
        let p2 = b.place("p2");
        let p3 = b.place("p3");
        let p4 = b.place("p4");
        let split = b.transition("split", [p0], [p1, p2]);
        let a = b.transition("a", [p1], [p3]);
        let bb = b.transition("b", [p2], [p4]);
        let join = b.transition("join", [p3, p4], [p0]);
        (b.build().unwrap(), vec![split, a, bb, join])
    }

    #[test]
    fn enabling_requires_all_input_places() {
        let (net, ts) = fork_join();
        let m0 = net.initial_marking();
        assert!(net.enabled(ts[0], m0));
        assert!(!net.enabled(ts[1], m0));
        assert!(!net.enabled(ts[3], m0));
    }

    #[test]
    fn firing_moves_tokens() {
        let (net, ts) = fork_join();
        let m1 = net.fire(ts[0], net.initial_marking()).unwrap();
        assert_eq!(m1.token_count(), 2);
        assert!(net.enabled(ts[1], &m1));
        assert!(net.enabled(ts[2], &m1));
        assert!(!net.enabled(ts[0], &m1));
    }

    #[test]
    fn full_cycle_returns_to_initial() {
        let (net, ts) = fork_join();
        let m = net
            .fire_sequence(net.initial_marking(), ts.iter().copied())
            .unwrap()
            .expect("all transitions enabled in order");
        assert_eq!(&m, net.initial_marking());
    }

    #[test]
    fn fire_sequence_reports_disabled() {
        let (net, ts) = fork_join();
        let res = net.fire_sequence(net.initial_marking(), [ts[1]]).unwrap();
        assert!(res.is_none());
    }

    #[test]
    fn self_loop_keeps_token() {
        let mut b = NetBuilder::new("loop");
        let p = b.place_marked("p");
        let q = b.place("q");
        let t = b.transition("t", [p], [p, q]);
        let net = b.build().unwrap();
        let m = net.fire(t, net.initial_marking()).unwrap();
        assert!(m.is_marked(p), "self-loop place keeps its token");
        assert!(m.is_marked(q));
    }

    #[test]
    fn unsafe_firing_detected() {
        let mut b = NetBuilder::new("unsafe");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place_marked("r");
        let t = b.transition("t", [p], [r]);
        let _ = q;
        let net = b.build().unwrap();
        let err = net.fire(t, net.initial_marking()).unwrap_err();
        assert!(matches!(err, NetError::NotSafe { .. }));
    }

    #[test]
    fn enabled_transitions_in_order() {
        let (net, ts) = fork_join();
        let m1 = net.fire(ts[0], net.initial_marking()).unwrap();
        assert_eq!(net.enabled_transitions(&m1), vec![ts[1], ts[2]]);
    }

    #[test]
    fn dead_marking_detected() {
        let mut b = NetBuilder::new("dead");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p], [q]);
        let net = b.build().unwrap();
        let m1 = net
            .fire(net.transition_by_name("t").unwrap(), net.initial_marking())
            .unwrap();
        assert!(!net.is_dead(net.initial_marking()));
        assert!(net.is_dead(&m1));
    }

    #[test]
    fn source_transition_always_enabled() {
        let mut b = NetBuilder::new("src");
        let p = b.place("p");
        let t = b.transition("gen", [], [p]);
        let net = b.build().unwrap();
        assert!(net.enabled(t, net.initial_marking()));
        let m1 = net.fire(t, net.initial_marking()).unwrap();
        assert!(m1.is_marked(p));
        // firing again violates safeness
        assert!(net.fire(t, &m1).is_err());
    }
}
