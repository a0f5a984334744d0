//! Reduced reachability graphs via stubborn-set partial-order reduction.
//!
//! This module is the workspace's stand-in for the paper's "SPIN+PO" column:
//! it explores only the enabled members of a stubborn set at each state,
//! which preserves every reachable deadlock while skipping redundant
//! interleavings of independent transitions. The search itself is
//! `petri`'s: a [`ReachabilityGraph`] explored under the stubborn-set
//! [`Expansion`] rule defined here.

use petri::checkpoint::{ByteReader, ByteWriter, CheckpointError, EngineKind};
use petri::parallel::default_threads;
use petri::{
    Budget, CheckpointConfig, Expansion, Marking, NetError, Outcome, PetriNet, ReachabilityGraph,
    Snapshot, SnapshotTags, TransitionId,
};

use crate::stubborn::{SeedStrategy, StubbornSets};

/// Options for [`ReducedReachability::explore_with`].
#[derive(Debug, Clone)]
pub struct ReducedOptions {
    /// Seed strategy for the stubborn-set closure.
    pub strategy: SeedStrategy,
    /// Abort with [`NetError::StateLimit`] once this many states are stored.
    pub max_states: usize,
    /// Worker threads for the frontier exploration (see
    /// [`petri::ExploreOptions::threads`] for the determinism contract).
    /// The stubborn set of a marking is a pure function of that marking,
    /// so the reduced graph is the same graph for every thread count.
    pub threads: usize,
    /// Visible transitions of the property being checked, seeded into
    /// every stubborn-set closure ([`StubbornSets::with_visible`]);
    /// `None` for the classical deadlock-preserving exploration. The
    /// visible set becomes part of the snapshot identity: resuming with a
    /// different set is rejected.
    pub visible: Option<Vec<TransitionId>>,
}

impl Default for ReducedOptions {
    fn default() -> Self {
        ReducedOptions {
            strategy: SeedStrategy::default(),
            max_states: usize::MAX,
            threads: default_threads(),
            visible: None,
        }
    }
}

/// The stubborn-set expansion rule: each state fires the enabled members
/// of one stubborn set. No edges are recorded.
///
/// Its snapshot's identity section records the [`SeedStrategy`] and, for
/// a property run, the visible-transition set: a stubborn-set exploration
/// is only a sound prefix for the rule it was computed under, so a resume
/// under another strategy or visible set is rejected.
struct StubbornExpansion<'net> {
    sets: StubbornSets<'net>,
    /// The closures are seeded with a property's visible set; `false` for
    /// the classical deadlock-preserving exploration.
    property: bool,
}

impl<'net> StubbornExpansion<'net> {
    fn new(net: &'net PetriNet, opts: &ReducedOptions) -> Self {
        let mut sets = StubbornSets::new_with_threads(net, opts.strategy, opts.threads.max(1));
        if let Some(visible) = &opts.visible {
            sets = sets.with_visible(visible.clone());
        }
        StubbornExpansion {
            sets,
            property: opts.visible.is_some(),
        }
    }
}

impl Expansion for StubbornExpansion<'_> {
    const KIND: EngineKind = EngineKind::Reduced;
    const TAGS: SnapshotTags = SnapshotTags {
        states: 1,
        expanded: 2,
        deadlocks: 3,
        counters: 4,
        identity: 5,
    };

    fn record_edges(&self) -> bool {
        false
    }

    #[inline]
    fn successors(
        &self,
        net: &PetriNet,
        m: &Marking,
        out: &mut Vec<(TransitionId, Marking)>,
    ) -> Result<(), NetError> {
        for t in self.sets.enabled_stubborn(m) {
            out.push((t, net.fire(t, m)?));
        }
        Ok(())
    }

    fn write_identity(&self, w: &mut ByteWriter, _succ: &[Vec<(TransitionId, u32)>]) {
        w.u8(self.sets.strategy() as u8);
        if self.property {
            // the deadlock-preserving layout is exactly one byte; a
            // property run appends its visible set
            let visible = self.sets.visible();
            w.usize(visible.len());
            for &t in visible {
                w.u32(t.index() as u32);
            }
        }
    }

    fn read_identity(
        &self,
        r: &mut ByteReader<'_>,
        net: &PetriNet,
        states: usize,
    ) -> Result<Vec<Vec<(TransitionId, u32)>>, CheckpointError> {
        let stored_strategy = r.u8()?;
        let strategy = self.sets.strategy() as u8;
        if stored_strategy != strategy {
            return Err(r.malformed(format!(
                "snapshot uses stubborn-set strategy {stored_strategy}, run uses {strategy}"
            )));
        }
        let stored_visible: Option<Vec<TransitionId>> = if r.at_end() {
            None
        } else {
            let n = r.usize()?;
            if n > net.transition_count() {
                return Err(r.malformed("implausible visible-set length"));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let t = r.u32()? as usize;
                if t >= net.transition_count() {
                    return Err(r.malformed("visible transition id out of range"));
                }
                v.push(TransitionId::new(t));
            }
            Some(v)
        };
        let visible = self.property.then(|| self.sets.visible());
        if stored_visible.as_deref() != visible {
            return Err(r.malformed(format!(
                "snapshot was written under visible set {:?}, run uses {:?} \
                 (explorations under different properties cannot be mixed)",
                stored_visible.as_deref().map(<[TransitionId]>::len),
                visible.map(<[TransitionId]>::len),
            )));
        }
        Ok(vec![Vec::new(); states])
    }
}

/// Partial-order-reduced exploration: a [`ReachabilityGraph`] explored
/// under the stubborn-set rule.
///
/// The reduced graph visits a subset of the full reachability graph's states
/// but reaches *every* deadlock (possibly by a different interleaving), so
/// its [`has_deadlock`](ReachabilityGraph::has_deadlock) agrees with
/// exhaustive analysis. It records no edges, so it gives no traces.
///
/// # Examples
///
/// ```
/// use partial_order::{ReducedOptions, ReducedReachability};
/// use petri::{NetBuilder, ReachabilityGraph};
///
/// // three independent strands: full graph has 8 states, reduced has 4
/// let mut b = NetBuilder::new("n");
/// for i in 0..3 {
///     let p = b.place_marked(format!("p{i}"));
///     let q = b.place(format!("q{i}"));
///     b.transition(format!("t{i}"), [p], [q]);
/// }
/// let net = b.build()?;
/// let full = ReachabilityGraph::explore(&net)?;
/// let red = ReducedReachability::explore_with(&net, &ReducedOptions::default())?;
/// assert_eq!(full.state_count(), 8);
/// assert_eq!(red.state_count(), 4, "one interleaving: t0 t1 t2");
/// assert_eq!(full.has_deadlock(), red.has_deadlock());
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug)]
pub enum ReducedReachability {}

impl ReducedReachability {
    /// Explores with explicit options.
    ///
    /// This is the all-or-nothing entry point; a hit state limit discards
    /// the partial graph. Prefer
    /// [`explore_checkpointed`](Self::explore_checkpointed) for graceful
    /// degradation.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation or
    /// [`NetError::StateLimit`] if the state limit is exceeded.
    pub fn explore_with(
        net: &PetriNet,
        opts: &ReducedOptions,
    ) -> Result<ReachabilityGraph, NetError> {
        let (budget, ckpt) = (Budget::default(), CheckpointConfig::default());
        match Self::explore_checkpointed(net, opts, &budget, &ckpt, None)? {
            Outcome::Complete(red) => Ok(red),
            Outcome::Partial { .. } => Err(NetError::StateLimit(opts.max_states)),
        }
    }

    /// Explores under a cooperative resource [`Budget`], optionally
    /// resuming a prior partial graph and/or writing crash-safe snapshots
    /// (see [`ReachabilityGraph::explore_rule`] for the segmenting
    /// protocol).
    ///
    /// The effective state cap is the tighter of `opts.max_states` and
    /// `budget.max_states`. On exhaustion the reduced graph built so far is
    /// returned as [`Outcome::Partial`]: every stored marking is reachable,
    /// so any deadlock in it is real, but absence of deadlocks in a partial
    /// reduced graph proves nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation,
    /// [`NetError::WorkerPanicked`] if a parallel worker died, or
    /// [`NetError::Checkpoint`] for an unusable snapshot, including one
    /// written under another strategy or visible set.
    pub fn explore_checkpointed(
        net: &PetriNet,
        opts: &ReducedOptions,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<ReachabilityGraph>, NetError> {
        let rule = StubbornExpansion::new(net, opts);
        let budget = budget.clone().cap_states(opts.max_states);
        ReachabilityGraph::explore_rule(net, &rule, opts.threads, &budget, ckpt, resume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petri::{FullExpansion, NetBuilder};

    /// The paper's Figure 2 net: n concurrently marked binary conflict
    /// places.
    fn fig2(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("fig2");
        for i in 0..n {
            let c = b.place_marked(format!("c{i}"));
            let a = b.place(format!("a{i}"));
            let bb = b.place(format!("b{i}"));
            b.transition(format!("A{i}"), [c], [a]);
            b.transition(format!("B{i}"), [c], [bb]);
        }
        b.build().unwrap()
    }

    #[test]
    fn fig2_reduced_graph_matches_paper_formula() {
        // the paper: anticipation still needs 2^(N+1) - 1 states
        for n in 1..=6 {
            let red = ReducedReachability::explore_with(
                &fig2(n),
                &ReducedOptions {
                    strategy: SeedStrategy::ConflictCluster,
                    max_states: usize::MAX,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(red.state_count(), (1 << (n + 1)) - 1, "n={n}");
        }
    }

    #[test]
    fn fig2_full_graph_is_three_to_the_n() {
        for n in 1..=5 {
            let full = ReachabilityGraph::explore(&fig2(n)).unwrap();
            assert_eq!(full.state_count(), 3usize.pow(n as u32), "n={n}");
        }
    }

    #[test]
    fn deadlock_preserved_on_resource_cycle() {
        let mut b = NetBuilder::new("deadlock");
        let r1 = b.place_marked("r1");
        let r2 = b.place_marked("r2");
        let a0 = b.place_marked("a0");
        let a1 = b.place("a1");
        let b0 = b.place_marked("b0");
        let b1 = b.place("b1");
        b.transition("a_take1", [a0, r1], [a1]);
        b.transition("a_take2", [a1, r2], [a0, r1, r2]);
        b.transition("b_take2", [b0, r2], [b1]);
        b.transition("b_take1", [b1, r1], [b0, r1, r2]);
        let net = b.build().unwrap();
        let full = ReachabilityGraph::explore(&net).unwrap();
        for strategy in [
            SeedStrategy::FirstEnabled,
            SeedStrategy::BestOfEnabled,
            SeedStrategy::ConflictCluster,
        ] {
            let red = ReducedReachability::explore_with(
                &net,
                &ReducedOptions {
                    strategy,
                    max_states: usize::MAX,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(red.has_deadlock(), full.has_deadlock(), "{strategy:?}");
            assert!(red.state_count() <= full.state_count());
        }
    }

    #[test]
    fn deadlock_free_cycle_stays_deadlock_free() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let net = b.build().unwrap();
        let red = ReducedReachability::explore_with(&net, &ReducedOptions::default()).unwrap();
        assert!(!red.has_deadlock());
        assert_eq!(red.state_count(), 2);
    }

    #[test]
    fn state_limit_enforced() {
        let err = ReducedReachability::explore_with(
            &fig2(4),
            &ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                max_states: 3,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, NetError::StateLimit(3));
    }

    #[test]
    fn bounded_exploration_returns_partial_graph() {
        use petri::ExhaustionReason;
        let outcome = ReducedReachability::explore_checkpointed(
            &fig2(4),
            &ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                max_states: 3,
                threads: 1,
                visible: None,
            },
            &Budget::default(),
            &CheckpointConfig::default(),
            None,
        )
        .unwrap();
        let Outcome::Partial {
            result,
            reason,
            coverage,
        } = outcome
        else {
            panic!("expected a partial outcome");
        };
        assert_eq!(reason, ExhaustionReason::States);
        assert!(result.state_count() >= 3, "keeps the graph built so far");
        assert_eq!(coverage.states_stored, result.state_count());
        assert!(coverage.frontier_len > 0, "work was left unexplored");
        // every stored marking of the partial graph is genuinely reachable
        let full = ReachabilityGraph::explore(&fig2(4)).unwrap();
        let reachable: std::collections::HashSet<_> =
            full.states().map(|s| full.marking(s).clone()).collect();
        for s in result.states() {
            assert!(reachable.contains(result.marking(s)));
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        use std::collections::BTreeSet;
        let net = fig2(4);
        for threads in [1usize, 2] {
            let opts = ReducedOptions {
                strategy: SeedStrategy::BestOfEnabled,
                max_states: usize::MAX,
                threads,
                visible: None,
            };
            let no_ckpt = CheckpointConfig::default();
            let reference = ReducedReachability::explore_with(&net, &opts).unwrap();
            let cap = Budget::default().cap_states(5);
            let partial =
                ReducedReachability::explore_checkpointed(&net, &opts, &cap, &no_ckpt, None)
                    .unwrap();
            assert!(!partial.is_complete(), "threads={threads}");
            let rule = StubbornExpansion::new(&net, &opts);
            let snap = partial.value().to_snapshot(&net, &rule);
            let decoded = petri::Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = ReducedReachability::explore_checkpointed(
                &net,
                &opts,
                &Budget::default(),
                &no_ckpt,
                Some(&decoded),
            )
            .unwrap();
            assert!(resumed.is_complete(), "threads={threads}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count());
            assert_eq!(resumed.edge_count(), reference.edge_count());
            let dead = |g: &ReachabilityGraph| -> BTreeSet<Marking> {
                g.deadlocks()
                    .iter()
                    .map(|&d| g.marking(d).clone())
                    .collect()
            };
            let (ref_dead, res_dead) = (dead(&reference), dead(&resumed));
            assert_eq!(ref_dead, res_dead, "threads={threads}");
        }
    }

    #[test]
    fn snapshot_strategy_mismatch_is_rejected() {
        let net = fig2(3);
        let opts = |strategy| ReducedOptions {
            strategy,
            ..Default::default()
        };
        let best = StubbornExpansion::new(&net, &opts(SeedStrategy::BestOfEnabled));
        let cluster = StubbornExpansion::new(&net, &opts(SeedStrategy::ConflictCluster));
        let red = ReducedReachability::explore_with(&net, &opts(SeedStrategy::BestOfEnabled));
        let snap = red.unwrap().to_snapshot(&net, &best);
        let err = ReachabilityGraph::from_snapshot(&net, &snap, &cluster).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }));
        // and the wrong engine kind is caught before anything decodes
        let full_snap = ReachabilityGraph::explore(&net)
            .unwrap()
            .to_snapshot(&net, &FullExpansion { record_edges: true });
        let err = ReachabilityGraph::from_snapshot(&net, &full_snap, &best).unwrap_err();
        assert!(matches!(err, CheckpointError::EngineMismatch { .. }));
    }

    #[test]
    fn dead_markings_are_really_dead() {
        let net = fig2(3);
        let red = ReducedReachability::explore_with(&net, &ReducedOptions::default()).unwrap();
        assert!(red.has_deadlock());
        for &d in red.deadlocks() {
            assert!(net.is_dead(red.marking(d)));
        }
    }
}
