//! Explicit-state reachability analysis ("conventional analysis", §2.2).
//!
//! Builds the reachability graph `RG(N)` of a safe net by breadth-first
//! exploration with hashed visited states. This is the ground truth the
//! reduced analyses are compared against, and the "States" column of the
//! paper's Table 1.
//!
//! The search is parameterized by an [`Expansion`] rule: which transitions
//! a state fires, and how a snapshot of the graph is tagged. Conventional
//! analysis ([`FullExpansion`]) fires every enabled transition; the
//! `partial-order` crate's stubborn-set rule fires the enabled members of
//! one stubborn set and reuses this graph, loop and snapshot code as is.

use std::fmt;
use std::time::{Duration, Instant};

use crate::budget::{Budget, Outcome};
use crate::checkpoint::{
    ByteReader, ByteWriter, CheckpointConfig, CheckpointError, EngineKind, Snapshot,
};
use crate::error::NetError;
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;
use crate::parallel::{default_threads, explore_frontier_seeded, FrontierOptions, FrontierResult};

/// The section tags of a [`ReachabilityGraph`] snapshot, fixed per
/// [`Expansion`] rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotTags {
    /// The state table.
    pub states: u32,
    /// The expanded flags (the unexpanded states are the frontier).
    pub expanded: u32,
    /// The deadlock state ids.
    pub deadlocks: u32,
    /// The fired-edge count and elapsed time.
    pub counters: u32,
    /// The rule's identity ([`Expansion::write_identity`]).
    pub identity: u32,
}

/// How an explicit-state search expands a state, and how a snapshot of
/// the graph it builds is tagged.
///
/// The frontier loop is generic over the rule (static dispatch, no trait
/// object), so each rule's successor function is called directly.
pub trait Expansion: Sync {
    /// The engine kind stamped into snapshots; resuming a snapshot of
    /// another kind is rejected.
    const KIND: EngineKind;
    /// The snapshot's section tags.
    const TAGS: SnapshotTags;

    /// Whether the search keeps the labelled edges (needed for
    /// [`ReachabilityGraph::path_to`] and DOT export).
    fn record_edges(&self) -> bool;

    /// Pushes the `(transition, successor)` pairs the rule fires at `m`;
    /// none exactly when `m` is dead.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] if a firing violates safeness.
    fn successors(
        &self,
        net: &PetriNet,
        m: &Marking,
        out: &mut Vec<(TransitionId, Marking)>,
    ) -> Result<(), NetError>;

    /// Writes the identity section: what a resumed run must share with
    /// the run that wrote the snapshot, plus the recorded edges `succ`
    /// when the rule stores them.
    fn write_identity(&self, w: &mut ByteWriter, succ: &[Vec<(TransitionId, u32)>]);

    /// Reads what [`write_identity`](Self::write_identity) wrote for a
    /// graph of `states` states, rejecting a snapshot taken under another
    /// identity, and returns the recorded edges (one list per state).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] for a mismatched identity or
    /// an inconsistent payload.
    fn read_identity(
        &self,
        r: &mut ByteReader<'_>,
        net: &PetriNet,
        states: usize,
    ) -> Result<Vec<Vec<(TransitionId, u32)>>, CheckpointError>;
}

/// Conventional analysis: every enabled transition fires.
///
/// Its snapshot's identity section is the edge section: the
/// `record_edges` flag, then every state's recorded edges.
#[derive(Debug, Clone, Copy)]
pub struct FullExpansion {
    /// Keep the labelled edges.
    pub record_edges: bool,
}

impl Expansion for FullExpansion {
    const KIND: EngineKind = EngineKind::Full;
    const TAGS: SnapshotTags = SnapshotTags {
        states: 1,
        expanded: 2,
        identity: 3,
        deadlocks: 4,
        counters: 5,
    };

    fn record_edges(&self) -> bool {
        self.record_edges
    }

    // out of line, so the layout of this scan's inner bit-set loop does
    // not move with the frontier worker's code: inlined there it landed
    // across a 32-byte boundary and explored comb(200,16) about 25% slower
    #[inline(never)]
    fn successors(
        &self,
        net: &PetriNet,
        m: &Marking,
        out: &mut Vec<(TransitionId, Marking)>,
    ) -> Result<(), NetError> {
        for t in net.transitions() {
            if net.enabled(t, m) {
                out.push((t, net.fire(t, m)?));
            }
        }
        Ok(())
    }

    fn write_identity(&self, w: &mut ByteWriter, succ: &[Vec<(TransitionId, u32)>]) {
        w.u8(u8::from(self.record_edges));
        for edges in succ {
            w.u32(edges.len() as u32);
            for &(t, dst) in edges {
                w.u32(t.index() as u32);
                w.u32(dst);
            }
        }
    }

    fn read_identity(
        &self,
        r: &mut ByteReader<'_>,
        net: &PetriNet,
        states: usize,
    ) -> Result<Vec<Vec<(TransitionId, u32)>>, CheckpointError> {
        let snap_recorded = r.u8()? != 0;
        if snap_recorded != self.record_edges {
            return Err(r.malformed(format!(
                "snapshot was taken with record_edges={snap_recorded}, run uses {}",
                self.record_edges
            )));
        }
        let mut succ = Vec::with_capacity(states);
        for _ in 0..states {
            let n = r.u32()? as usize;
            let mut edges = Vec::with_capacity(n);
            for _ in 0..n {
                let t = r.u32()? as usize;
                let dst = r.u32()? as usize;
                if t >= net.transition_count() || dst >= states {
                    return Err(r.malformed("edge references an out-of-range id"));
                }
                edges.push((TransitionId::new(t), dst as u32));
            }
            succ.push(edges);
        }
        Ok(succ)
    }
}

/// Identifier of a state (vertex) in a [`ReachabilityGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u32);

impl StateId {
    /// The raw index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Internal constructor for indexes already known to be in range
    /// (anything `< states.len()` of a built graph: the frontier engine
    /// fails with [`NetError::StateIdOverflow`] before an id could wrap).
    fn new(i: usize) -> Self {
        debug_assert!(
            u32::try_from(i).is_ok(),
            "state index validated at insertion"
        );
        StateId(i as u32)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Options controlling [`ReachabilityGraph::explore_with`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Abort with [`NetError::StateLimit`] once this many states are stored.
    pub max_states: usize,
    /// Record the labelled edges (needed for path queries and DOT export);
    /// disable to save memory when only the state count matters.
    pub record_edges: bool,
    /// Worker threads for the frontier exploration. The default is the
    /// machine's available parallelism; `1` runs a single worker in the
    /// calling thread, which numbers states in breadth-first discovery
    /// order (fully deterministic ids). For any thread count the
    /// reachable state set, deadlock set, and edge count are identical;
    /// ids may permute when `threads > 1`.
    pub threads: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: usize::MAX,
            record_edges: true,
            threads: default_threads(),
        }
    }
}

/// The reachability graph of a safe Petri net under an [`Expansion`]
/// rule: the full graph for [`FullExpansion`], a reduced subgraph for a
/// stubborn-set rule.
///
/// # Examples
///
/// ```
/// use petri::{NetBuilder, ReachabilityGraph};
///
/// // Three concurrent transitions: 2^3 = 8 reachable states (paper Fig. 1).
/// let mut b = NetBuilder::new("fig1");
/// for i in 0..3 {
///     let p = b.place_marked(format!("in{i}"));
///     let q = b.place(format!("out{i}"));
///     b.transition(format!("t{i}"), [p], [q]);
/// }
/// let net = b.build()?;
/// let rg = ReachabilityGraph::explore(&net)?;
/// assert_eq!(rg.state_count(), 8);
/// assert_eq!(rg.deadlocks().len(), 1);
/// # Ok::<(), petri::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// States, expanded flags (the `false` entries are the frontier a
    /// checkpointed run resumes from), labelled edges (none if the rule
    /// does not record them) and deadlock ids.
    graph: FrontierResult,
    /// The deadlock ids again, typed for [`deadlocks`](Self::deadlocks).
    deadlocks: Vec<StateId>,
    elapsed: Duration,
    threads_used: usize,
}

impl ReachabilityGraph {
    /// Explores the full state space with default options.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] if any firing violates safeness.
    pub fn explore(net: &PetriNet) -> Result<Self, NetError> {
        Self::explore_with(net, &ExploreOptions::default())
    }

    /// Explores the full state space with explicit options.
    ///
    /// This is the legacy all-or-nothing entry point: a hit state limit is
    /// reported as an error and the partial graph is discarded. Prefer
    /// [`explore_bounded`](Self::explore_bounded), which returns the graph
    /// computed so far when a budget runs out.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation, or
    /// [`NetError::StateLimit`] if `opts.max_states` is exceeded.
    pub fn explore_with(net: &PetriNet, opts: &ExploreOptions) -> Result<Self, NetError> {
        match Self::explore_bounded(net, opts, &Budget::default())? {
            Outcome::Complete(rg) => Ok(rg),
            Outcome::Partial { .. } => Err(NetError::StateLimit(opts.max_states)),
        }
    }

    /// Explores the state space under a cooperative resource [`Budget`].
    ///
    /// The effective state cap is the tighter of `opts.max_states` and
    /// `budget.max_states`. When any budget axis (states, bytes, deadline,
    /// cancellation) is exhausted, the graph built so far is returned as
    /// [`Outcome::Partial`] with [`CoverageStats`] — every stored marking
    /// is genuinely reachable, so a deadlock found in a partial graph is a
    /// real counterexample, but deadlock *freedom* can only be concluded
    /// from [`Outcome::Complete`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation,
    /// [`NetError::WorkerPanicked`] if a parallel worker died, or
    /// [`NetError::StateIdOverflow`] past `u32::MAX` states.
    pub fn explore_bounded(
        net: &PetriNet,
        opts: &ExploreOptions,
        budget: &Budget,
    ) -> Result<Outcome<Self>, NetError> {
        Self::explore_checkpointed(net, opts, budget, &CheckpointConfig::default(), None)
    }

    /// Like [`explore_bounded`](Self::explore_bounded), but optionally
    /// resuming a prior partial graph and/or writing crash-safe snapshots
    /// (see [`explore_rule`](Self::explore_rule)).
    ///
    /// # Errors
    ///
    /// Everything [`explore_bounded`](Self::explore_bounded) returns, plus
    /// [`NetError::Checkpoint`] when `resume` does not belong to this
    /// net/engine/options or a snapshot cannot be written.
    pub fn explore_checkpointed(
        net: &PetriNet,
        opts: &ExploreOptions,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<Self>, NetError> {
        let rule = FullExpansion {
            record_edges: opts.record_edges,
        };
        let budget = budget.clone().cap_states(opts.max_states);
        Self::explore_rule(net, &rule, opts.threads, &budget, ckpt, resume)
    }

    /// Explores the graph `rule` spans on `threads` workers (see
    /// [`ExploreOptions::threads`]) under `budget`, optionally resuming a
    /// prior partial graph and/or writing crash-safe snapshots.
    ///
    /// * `resume` — a snapshot previously produced by an interrupted run
    ///   under the same rule over the *same net* (validated via the
    ///   embedded fingerprint and the rule's identity section). The
    ///   exploration continues from the stored frontier and, run to
    ///   completion, reaches the identical verdict, state count, and
    ///   witnesses as a single uninterrupted run.
    /// * `ckpt.path` — budget exhaustion writes a snapshot there before
    ///   the partial outcome is returned.
    /// * `ckpt.every` — additionally snapshots roughly every `every` newly
    ///   stored states: the run proceeds in segments capped at
    ///   `stored + every` states, each segment quiescing its workers at
    ///   the frontier barrier before the snapshot is taken, then
    ///   continuing in-process (see [`CheckpointConfig::run_segments`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotSafe`] on a safeness violation,
    /// [`NetError::WorkerPanicked`] if a parallel worker died,
    /// [`NetError::StateIdOverflow`] past `u32::MAX` states, or
    /// [`NetError::Checkpoint`] when `resume` is unusable or a snapshot
    /// cannot be written.
    pub fn explore_rule<R: Expansion>(
        net: &PetriNet,
        rule: &R,
        threads: usize,
        budget: &Budget,
        ckpt: &CheckpointConfig,
        resume: Option<&Snapshot>,
    ) -> Result<Outcome<Self>, NetError> {
        let prior = resume
            .map(|snap| Self::from_snapshot(net, snap, rule))
            .transpose()
            .map_err(|e| NetError::Checkpoint(e.to_string()))?;
        ckpt.run_segments(
            budget,
            prior,
            Self::state_count,
            |segment, prior| Self::explore_resumed(net, rule, threads, segment, prior),
            |g| g.to_snapshot(net, rule),
        )
    }

    /// Continues exploring `prior` (or starts fresh) under `budget` on the
    /// shared [`parallel`](crate::parallel) frontier engine.
    fn explore_resumed<R: Expansion>(
        net: &PetriNet,
        rule: &R,
        threads: usize,
        budget: &Budget,
        prior: Option<Self>,
    ) -> Result<Outcome<Self>, NetError> {
        let start = Instant::now();
        let threads = threads.max(1);
        let (seed, base_elapsed) = match prior {
            Some(g) => (g.graph, g.elapsed),
            None => (
                FrontierResult::initial(net.initial_marking().clone()),
                Duration::ZERO,
            ),
        };
        // the spread fills the cfg-gated fault-injection field in test builds
        #[allow(clippy::needless_update)]
        let outcome = explore_frontier_seeded(
            seed,
            &FrontierOptions {
                threads,
                record_edges: rule.record_edges(),
                budget: budget.clone(),
                ..Default::default()
            },
            |m, out| rule.successors(net, m, out),
        )?;
        Ok(outcome.map(|graph| ReachabilityGraph {
            deadlocks: graph.deadlocks.iter().map(|&d| StateId(d)).collect(),
            graph,
            elapsed: base_elapsed + start.elapsed(),
            threads_used: threads,
        }))
    }

    /// Serializes this (typically partial) graph, explored under `rule`,
    /// as a checkpoint snapshot: the state table (place count, state
    /// count, each marking's place bits), the expanded flags, the rule's
    /// identity, the deadlock ids and the counters (fired edges, elapsed
    /// time), in tag order.
    pub fn to_snapshot<R: Expansion>(&self, net: &PetriNet, rule: &R) -> Snapshot {
        let (tags, g) = (R::TAGS, &self.graph);
        let mut snap = Snapshot::new(R::KIND, net);
        snap.push_with(tags.states, |w| {
            w.u32(net.place_count() as u32);
            w.usize(g.states.len());
            for m in &g.states {
                w.bits(m.as_bits());
            }
        });
        snap.push_with(tags.expanded, |w| w.bools(&g.expanded));
        snap.push_with(tags.identity, |w| rule.write_identity(w, &g.succ));
        snap.push_with(tags.deadlocks, |w| {
            w.usize(g.deadlocks.len());
            for &d in &g.deadlocks {
                w.u32(d);
            }
        });
        snap.push_with(tags.counters, |w| {
            w.usize(g.edge_count);
            w.u64(self.elapsed.as_nanos() as u64);
        });
        snap.sections.sort_by_key(|s| s.tag);
        snap
    }

    /// Rebuilds a (typically partial) graph from a snapshot taken under
    /// `rule`, validating the engine kind, net fingerprint, the rule's
    /// identity, and every structural invariant of the payload: same
    /// place count, state 0 is the initial marking, no duplicate states,
    /// one expanded flag per state, and every deadlock id names an
    /// expanded state.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] when the snapshot belongs to a
    /// different engine/net, was taken under a different identity (say,
    /// another `record_edges` setting), or is internally inconsistent.
    pub fn from_snapshot<R: Expansion>(
        net: &PetriNet,
        snap: &Snapshot,
        rule: &R,
    ) -> Result<Self, CheckpointError> {
        let tags = R::TAGS;
        snap.validate(R::KIND, net.fingerprint())?;
        let section = |tag| snap.require_section(tag).map(|p| ByteReader::new(p, tag));

        let mut r = section(tags.states)?;
        let place_count = r.u32()? as usize;
        if place_count != net.place_count() {
            return Err(r.malformed(format!(
                "snapshot has {place_count} places, net has {}",
                net.place_count()
            )));
        }
        let count = r.usize()?;
        let mut states = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            states.push(Marking::from_bits(r.bits(place_count)?));
        }
        if states.first() != Some(net.initial_marking()) {
            return Err(r.malformed("state 0 is not the net's initial marking"));
        }
        let distinct: std::collections::HashSet<&Marking> = states.iter().collect();
        if distinct.len() != count {
            return Err(r.malformed("duplicate markings in state table"));
        }
        r.finish()?;

        let mut r = section(tags.expanded)?;
        let expanded = r.bools()?;
        if expanded.len() != count {
            return Err(r.malformed("expanded bitmap length disagrees with state count"));
        }
        r.finish()?;

        let mut r = section(tags.identity)?;
        let succ = rule.read_identity(&mut r, net, count)?;
        r.finish()?;

        let mut r = section(tags.deadlocks)?;
        let n = r.usize()?;
        let mut deadlocks = Vec::with_capacity(n.min(count));
        for _ in 0..n {
            let d = r.u32()?;
            if !expanded.get(d as usize).copied().unwrap_or(false) {
                return Err(r.malformed("deadlock id out of range or unexpanded"));
            }
            deadlocks.push(d);
        }
        r.finish()?;

        let mut r = section(tags.counters)?;
        let edge_count = r.usize()?;
        let elapsed = Duration::from_nanos(r.u64()?);
        r.finish()?;
        if edge_count < succ.iter().map(Vec::len).sum() {
            return Err(CheckpointError::Malformed {
                section: tags.counters,
                detail: "edge count is below the number of recorded edges".into(),
            });
        }

        Ok(ReachabilityGraph {
            deadlocks: deadlocks.iter().map(|&d| StateId(d)).collect(),
            graph: FrontierResult {
                states,
                expanded,
                succ,
                origin: Vec::new(),
                deadlocks,
                edge_count,
            },
            elapsed,
            threads_used: 1,
        })
    }

    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.graph.states.len()
    }

    /// Number of edges (fired transitions) in the graph.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count
    }

    /// Wall-clock exploration time.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Exploration throughput in states per second — the perf counter the
    /// benchmark tables regress against.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.graph.states.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// How many worker threads the exploration ran on.
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The marking of state `s`.
    pub fn marking(&self, s: StateId) -> &Marking {
        &self.graph.states[s.index()]
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl ExactSizeIterator<Item = StateId> + '_ {
        (0..self.graph.states.len()).map(StateId::new)
    }

    /// Outgoing labelled edges of `s` (none if edges were not recorded).
    pub fn successors(
        &self,
        s: StateId,
    ) -> impl ExactSizeIterator<Item = (TransitionId, StateId)> + '_ {
        self.graph.succ[s.index()]
            .iter()
            .map(|&(t, dst)| (t, StateId(dst)))
    }

    /// States with no enabled transition (deadlock / termination states).
    pub fn deadlocks(&self) -> &[StateId] {
        &self.deadlocks
    }

    /// `true` if some reachable state is dead.
    pub fn has_deadlock(&self) -> bool {
        !self.deadlocks.is_empty()
    }

    /// Looks up the state id of a marking, if it is reachable.
    pub fn find(&self, m: &Marking) -> Option<StateId> {
        // Linear scan is acceptable for test-sized graphs; exploration keeps
        // its own hash index internally.
        self.graph
            .states
            .iter()
            .position(|s| s == m)
            .map(StateId::new)
    }

    /// Checks whether a marking is reachable.
    pub fn contains(&self, m: &Marking) -> bool {
        self.find(m).is_some()
    }

    /// A shortest firing sequence from the initial state to `target`.
    ///
    /// Returns `None` if `target` is unreachable or edges were not recorded.
    pub fn path_to(&self, target: StateId) -> Option<Vec<TransitionId>> {
        if target == self.initial() {
            return Some(Vec::new());
        }
        let mut pred: Vec<Option<(StateId, TransitionId)>> = vec![None; self.state_count()];
        let mut queue = std::collections::VecDeque::from([self.initial()]);
        let mut seen = vec![false; self.state_count()];
        seen[0] = true;
        while let Some(s) = queue.pop_front() {
            for (t, n) in self.successors(s) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    pred[n.index()] = Some((s, t));
                    if n == target {
                        let mut path = Vec::new();
                        let mut cur = n;
                        while let Some((p, tr)) = pred[cur.index()] {
                            path.push(tr);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }

    /// Counts the distinct maximal firing sequences (interleavings) of an
    /// *acyclic* reachability graph — e.g. the `3! = 6` interleavings of the
    /// paper's Figure 1.
    ///
    /// Returns `None` if the graph contains a cycle (the count would be
    /// infinite) or edges were not recorded.
    pub fn count_maximal_paths(&self) -> Option<u128> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        fn visit(
            rg: &ReachabilityGraph,
            s: StateId,
            marks: &mut [Mark],
            memo: &mut [Option<u128>],
        ) -> Option<u128> {
            if let Some(v) = memo[s.index()] {
                return Some(v);
            }
            if marks[s.index()] == Mark::Grey {
                return None; // cycle
            }
            marks[s.index()] = Mark::Grey;
            let succs = rg.successors(s);
            let v = if succs.len() == 0 {
                1
            } else {
                let mut sum: u128 = 0;
                for (_, n) in succs {
                    sum += visit(rg, n, marks, memo)?;
                }
                sum
            };
            marks[s.index()] = Mark::Black;
            memo[s.index()] = Some(v);
            Some(v)
        }
        let mut marks = vec![Mark::White; self.state_count()];
        let mut memo = vec![None; self.state_count()];
        visit(self, self.initial(), &mut marks, &mut memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    /// N independent place->transition->place strands, all marked.
    fn concurrent(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("concurrent");
        for i in 0..n {
            let p = b.place_marked(format!("in{i}"));
            let q = b.place(format!("out{i}"));
            b.transition(format!("t{i}"), [p], [q]);
        }
        b.build().unwrap()
    }

    #[test]
    fn fig1_shape_eight_states_six_interleavings() {
        let rg = ReachabilityGraph::explore(&concurrent(3)).unwrap();
        assert_eq!(rg.state_count(), 8);
        assert_eq!(rg.edge_count(), 12); // 3*4 edges of the cube
        assert_eq!(rg.deadlocks().len(), 1);
        assert_eq!(rg.count_maximal_paths(), Some(6));
    }

    #[test]
    fn concurrency_scales_as_two_to_the_n() {
        for n in 1..=6 {
            let rg = ReachabilityGraph::explore(&concurrent(n)).unwrap();
            assert_eq!(rg.state_count(), 1 << n, "n={n}");
        }
    }

    #[test]
    fn cyclic_net_has_no_path_count() {
        let mut b = NetBuilder::new("cycle");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("go", [p], [q]);
        b.transition("back", [q], [p]);
        let net = b.build().unwrap();
        let rg = ReachabilityGraph::explore(&net).unwrap();
        assert_eq!(rg.state_count(), 2);
        assert!(!rg.has_deadlock());
        assert_eq!(rg.count_maximal_paths(), None);
    }

    #[test]
    fn deadlock_found_and_witnessed() {
        // classic 2-process deadlock: each grabs one of two shared resources
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
        let rg = ReachabilityGraph::explore(&net).unwrap();
        assert!(rg.has_deadlock());
        let dead = rg.deadlocks()[0];
        let path = rg.path_to(dead).expect("deadlock reachable");
        // replaying the witness ends in the dead marking
        let m = net
            .fire_sequence(net.initial_marking(), path)
            .unwrap()
            .unwrap();
        assert_eq!(&m, rg.marking(dead));
        assert!(net.is_dead(&m));
    }

    #[test]
    fn state_limit_respected() {
        let net = concurrent(5);
        let opts = ExploreOptions {
            max_states: 10,
            record_edges: false,
            ..Default::default()
        };
        let err = ReachabilityGraph::explore_with(&net, &opts).unwrap_err();
        assert_eq!(err, NetError::StateLimit(10));
    }

    #[test]
    fn edges_can_be_skipped() {
        let net = concurrent(3);
        let opts = ExploreOptions {
            max_states: usize::MAX,
            record_edges: false,
            ..Default::default()
        };
        let rg = ReachabilityGraph::explore_with(&net, &opts).unwrap();
        assert_eq!(rg.state_count(), 8);
        assert_eq!(rg.successors(rg.initial()).len(), 0);
        assert_eq!(rg.edge_count(), 12, "edge count still tracked");
    }

    #[test]
    fn find_and_contains() {
        let net = concurrent(2);
        let rg = ReachabilityGraph::explore(&net).unwrap();
        assert!(rg.contains(net.initial_marking()));
        assert_eq!(rg.find(net.initial_marking()), Some(rg.initial()));
        let absent = Marking::empty(net.place_count());
        assert!(!rg.contains(&absent));
    }

    #[test]
    fn path_to_initial_is_empty() {
        let net = concurrent(2);
        let rg = ReachabilityGraph::explore(&net).unwrap();
        assert_eq!(rg.path_to(rg.initial()), Some(vec![]));
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        use crate::budget::Verdict;
        let net = concurrent(5);
        for threads in [1usize, 2] {
            let opts = ExploreOptions {
                threads,
                ..Default::default()
            };
            let reference = ReachabilityGraph::explore_bounded(&net, &opts, &Budget::default())
                .unwrap()
                .into_value();

            // interrupt at 10 states, snapshot, decode, resume
            let partial =
                ReachabilityGraph::explore_bounded(&net, &opts, &Budget::default().cap_states(10))
                    .unwrap();
            assert!(!partial.is_complete(), "threads={threads}");
            let snap = partial
                .value()
                .to_snapshot(&net, &FullExpansion { record_edges: true });
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            let resumed = ReachabilityGraph::explore_checkpointed(
                &net,
                &opts,
                &Budget::default(),
                &CheckpointConfig::default(),
                Some(&decoded),
            )
            .unwrap();
            assert!(resumed.is_complete(), "threads={threads}");
            let resumed = resumed.into_value();
            assert_eq!(resumed.state_count(), reference.state_count());
            assert_eq!(resumed.edge_count(), reference.edge_count());
            assert_eq!(resumed.deadlocks().len(), reference.deadlocks().len());
            use std::collections::BTreeSet;
            let ref_dead: BTreeSet<&Marking> = reference
                .deadlocks()
                .iter()
                .map(|&d| reference.marking(d))
                .collect();
            let res_dead: BTreeSet<&Marking> = resumed
                .deadlocks()
                .iter()
                .map(|&d| resumed.marking(d))
                .collect();
            assert_eq!(ref_dead, res_dead, "threads={threads}");
            assert_eq!(
                Verdict::from_observation(resumed.has_deadlock(), true, 0),
                Verdict::from_observation(reference.has_deadlock(), true, 0)
            );
        }
    }

    #[test]
    fn periodic_checkpoints_are_written_and_resumable() {
        let net = concurrent(5);
        let dir = std::env::temp_dir().join(format!("rg-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.ckpt");
        let opts = ExploreOptions::default();
        let out = ReachabilityGraph::explore_checkpointed(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::periodic(&path, 5),
            None,
        )
        .unwrap();
        assert!(out.is_complete(), "periodic snapshots do not stop the run");
        assert_eq!(out.value().state_count(), 32);
        assert!(path.exists(), "mid-run snapshot was written");
        // the last snapshot resumes to the same complete result
        let snap = crate::checkpoint::read_checkpoint_with_fallback(&path).unwrap();
        let resumed = ReachabilityGraph::explore_checkpointed(
            &net,
            &opts,
            &Budget::default(),
            &CheckpointConfig::default(),
            Some(&snap),
        )
        .unwrap()
        .into_value();
        assert_eq!(resumed.state_count(), 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_trip_rolled_back_under_the_cap_still_ends_the_run() {
        // each state of a 3-cycle fires into both others, so an expansion
        // can trip the byte cap on its second edge and roll the first one
        // back, leaving the estimate under the cap again; the segment
        // loop must report that as a memory stop, not rerun it
        let net = crate::parse_net(
            "net triangle\npl a *\npl b\npl c\ntr ab : a -> b\ntr ac : a -> c\n\
             tr ba : b -> a\ntr bc : b -> c\ntr ca : c -> a\ntr cb : c -> b\n",
        )
        .unwrap();
        let opts = ExploreOptions {
            threads: 1,
            ..Default::default()
        };
        for cap in 0..512 {
            let budget = Budget::default().cap_bytes(cap);
            let out = ReachabilityGraph::explore_checkpointed(
                &net,
                &opts,
                &budget,
                &CheckpointConfig::default(),
                None,
            )
            .unwrap();
            if let Some(reason) = out.reason() {
                assert_eq!(reason, crate::ExhaustionReason::Memory, "cap {cap}");
            }
        }
    }

    #[test]
    fn snapshot_for_wrong_net_is_rejected() {
        let net = concurrent(3);
        let other = concurrent(4);
        let rg = ReachabilityGraph::explore(&net).unwrap();
        let snap = rg.to_snapshot(&net, &FullExpansion { record_edges: true });
        let err =
            ReachabilityGraph::from_snapshot(&other, &snap, &FullExpansion { record_edges: true })
                .unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        let err = ReachabilityGraph::from_snapshot(
            &net,
            &snap,
            &FullExpansion {
                record_edges: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }));
    }

    #[test]
    fn unsafe_net_reported() {
        let mut b = NetBuilder::new("unsafe");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        b.transition("t1", [p], [r]);
        b.transition("t2", [q], [r]);
        let net = b.build().unwrap();
        // firing t1 then t2 puts two tokens in r
        let err = ReachabilityGraph::explore(&net).unwrap_err();
        assert!(matches!(err, NetError::NotSafe { .. }));
    }
}
