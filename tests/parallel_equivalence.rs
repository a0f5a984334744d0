//! Determinism contract of the parallel frontier engine (README §parallel
//! exploration): for every model and every thread count, the reachable
//! state *set*, the deadlock marking *set*, and the edge *count* are
//! identical — only state ids may permute.

use std::collections::{BTreeSet, HashMap};

use gpo_suite::prelude::*;
use partial_order::StubbornSets;
use petri::{CheckpointConfig, ExploreOptions, FullExpansion};

const THREADS: [usize; 3] = [1, 2, 8];

/// Small instances of every model in `crates/models`, plus the paper's
/// figure nets that have interesting structure.
fn model_zoo() -> Vec<(String, PetriNet)> {
    vec![
        ("fig2(4)".into(), models::figures::fig2(4)),
        ("fig7".into(), models::figures::fig7()),
        ("nsdp(4)".into(), models::nsdp(4)),
        ("readers_writers(4)".into(), models::readers_writers(4)),
        ("overtake(3)".into(), models::overtake(3)),
        ("asat(4)".into(), models::asat(4)),
        ("scheduler(4)".into(), models::scheduler(4)),
    ]
}

fn marking_set<'a>(ms: impl Iterator<Item = &'a Marking>) -> BTreeSet<Marking> {
    ms.cloned().collect()
}

#[test]
fn full_graph_identical_across_thread_counts() {
    for (name, net) in model_zoo() {
        let mut baseline: Option<(BTreeSet<Marking>, BTreeSet<Marking>, usize)> = None;
        for threads in THREADS {
            let rg = ReachabilityGraph::explore_with(
                &net,
                &ExploreOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let states = marking_set(rg.states().map(|s| rg.marking(s)));
            let deadlocks = marking_set(rg.deadlocks().iter().map(|&s| rg.marking(s)));
            assert_eq!(states.len(), rg.state_count(), "{name} threads={threads}");
            let obs = (states, deadlocks, rg.edge_count());
            match &baseline {
                None => baseline = Some(obs),
                Some(b) => {
                    assert_eq!(b.0, obs.0, "{name}: state set differs at threads={threads}");
                    assert_eq!(
                        b.1, obs.1,
                        "{name}: deadlock set differs at threads={threads}"
                    );
                    assert_eq!(
                        b.2, obs.2,
                        "{name}: edge count differs at threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn reduced_graph_identical_across_thread_counts() {
    for (name, net) in model_zoo() {
        for strategy in [
            SeedStrategy::FirstEnabled,
            SeedStrategy::BestOfEnabled,
            SeedStrategy::ConflictCluster,
        ] {
            let mut baseline: Option<(BTreeSet<Marking>, BTreeSet<Marking>, usize)> = None;
            for threads in THREADS {
                let red = ReducedReachability::explore_with(
                    &net,
                    &ReducedOptions {
                        strategy,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                let states = marking_set(red.states().map(|s| red.marking(s)));
                let deadlocks = marking_set(red.deadlocks().iter().map(|&s| red.marking(s)));
                let obs = (states, deadlocks, red.edge_count());
                match &baseline {
                    None => baseline = Some(obs),
                    Some(b) => {
                        assert_eq!(
                            b.0, obs.0,
                            "{name}/{strategy:?}: state set differs at threads={threads}"
                        );
                        assert_eq!(
                            b.1, obs.1,
                            "{name}/{strategy:?}: deadlock set differs at threads={threads}"
                        );
                        assert_eq!(
                            b.2, obs.2,
                            "{name}/{strategy:?}: edge count differs at threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_agrees_with_full_verification_report() {
    // the downstream consumers (verify, gpo differential tests) only look
    // at counts and deadlock flags; cross-check against the serial engine
    for (name, net) in model_zoo() {
        let serial = ReachabilityGraph::explore_with(
            &net,
            &ExploreOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = ReachabilityGraph::explore_with(
            &net,
            &ExploreOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.state_count(), parallel.state_count(), "{name}");
        assert_eq!(serial.has_deadlock(), parallel.has_deadlock(), "{name}");
        assert_eq!(
            serial.deadlocks().len(),
            parallel.deadlocks().len(),
            "{name}"
        );
        assert_eq!(serial.edge_count(), parallel.edge_count(), "{name}");
        assert_eq!(parallel.threads_used(), 4);
    }
}

#[test]
fn state_limit_reported_for_any_thread_count() {
    let net = models::nsdp(5);
    for threads in THREADS {
        let err = ReachabilityGraph::explore_with(
            &net,
            &ExploreOptions {
                max_states: 10,
                threads,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, petri::NetError::StateLimit(10)),
            "threads={threads}: {err:?}"
        );
    }
}

/// One seed state, a deep chain whose every link also fans out wide: the
/// schedule is dominated by work stealing (one worker advances the chain
/// while thieves nibble the dead-end leaves), which is exactly the shape
/// the per-worker deques were built for.
fn steal_heavy_comb(depth: usize, width: usize) -> PetriNet {
    let mut b = NetBuilder::new("comb");
    let mut cur = b.place_marked("c0");
    for i in 0..depth {
        let next = b.place(format!("c{}", i + 1));
        b.transition(format!("t{i}"), [cur], [next]);
        for j in 0..width {
            let d = b.place(format!("d{i}_{j}"));
            b.transition(format!("u{i}_{j}"), [cur], [d]);
        }
        cur = next;
    }
    b.build().unwrap()
}

#[test]
fn steal_heavy_schedule_identical_across_thread_counts() {
    let net = steal_heavy_comb(40, 8);
    let gpo_net = steal_heavy_comb(6, 2);
    let expected_states = 41 + 40 * 8;
    let mut full_base: Option<(BTreeSet<Marking>, BTreeSet<Marking>, usize)> = None;
    let mut gpo_base: Option<(usize, bool)> = None;
    for threads in THREADS {
        let rg = ReachabilityGraph::explore_with(
            &net,
            &ExploreOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(rg.state_count(), expected_states, "threads={threads}");
        let obs = (
            marking_set(rg.states().map(|s| rg.marking(s))),
            marking_set(rg.deadlocks().iter().map(|&s| rg.marking(s))),
            rg.edge_count(),
        );
        match &full_base {
            None => full_base = Some(obs),
            Some(b) => assert_eq!(b, &obs, "full engine diverges at threads={threads}"),
        }

        let red = ReducedReachability::explore_with(
            &net,
            &ReducedOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            red.has_deadlock(),
            rg.has_deadlock(),
            "reduced engine verdict diverges at threads={threads}"
        );

        // the GPN valid-set relation blows up on the 40×8 comb, so the
        // GPO leg runs a smaller instance of the same steal-heavy shape
        let gpo = analyze_with(
            &gpo_net,
            &GpoOptions {
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        let obs = (gpo.state_count, gpo.deadlock_possible);
        match &gpo_base {
            None => gpo_base = Some(obs),
            Some(b) => assert_eq!(b, &obs, "gpo engine diverges at threads={threads}"),
        }
    }
}

/// An independent breadth-first search: every marking in discovery order
/// and each state's labelled edges (dense ids). `fire` lists the
/// transitions to fire at a marking — all enabled ones, or a stubborn
/// set's.
fn bfs_oracle(
    net: &PetriNet,
    fire: impl Fn(&Marking) -> Vec<TransitionId>,
) -> (Vec<Marking>, Vec<Vec<(TransitionId, usize)>>) {
    let mut states = vec![net.initial_marking().clone()];
    let mut ids = HashMap::from([(states[0].clone(), 0)]);
    let mut edges = Vec::new();
    while edges.len() < states.len() {
        let cur = edges.len();
        let mut out = Vec::new();
        for t in fire(&states[cur]) {
            let next = net.fire(t, &states[cur]).unwrap();
            let id = *ids.entry(next.clone()).or_insert_with(|| {
                states.push(next);
                states.len() - 1
            });
            out.push((t, id));
        }
        edges.push(out);
    }
    (states, edges)
}

/// The firing sequence to `target` along the breadth-first first-reach
/// tree: each state's parent is the lowest id with an edge into it.
fn oracle_path(edges: &[Vec<(TransitionId, usize)>], mut target: usize) -> Vec<TransitionId> {
    let mut path = Vec::new();
    while target != 0 {
        let (parent, t) = (0..edges.len())
            .find_map(|p| edges[p].iter().find(|e| e.1 == target).map(|e| (p, e.0)))
            .expect("every state is reached");
        path.push(t);
        target = parent;
    }
    path.reverse();
    path
}

/// One worker explores in breadth-first discovery order, so at
/// `threads = 1` the full and the reduced engine must number their states
/// exactly like an independent BFS: same marking per id, same edges, same
/// deadlock ids, and `path_to` follows the BFS first-reach tree. A full
/// run interrupted at a third of its states and resumed from its snapshot
/// must number them the same way.
#[test]
fn single_thread_ids_follow_an_independent_bfs() {
    let mut nets = model_zoo();
    nets.push(("comb(40,8)".into(), steal_heavy_comb(40, 8)));
    let (unbounded, no_ckpt) = (Budget::default(), CheckpointConfig::default());
    for (name, net) in nets {
        let (states, edges) = bfs_oracle(&net, |m| {
            net.transitions().filter(|&t| net.enabled(t, m)).collect()
        });
        let cap = Budget::default().cap_states(states.len() / 3);
        let opts = ExploreOptions {
            threads: 1,
            ..Default::default()
        };
        let partial = ReachabilityGraph::explore_bounded(&net, &opts, &cap).unwrap();
        let snap = partial
            .value()
            .to_snapshot(&net, &FullExpansion { record_edges: true });
        let resumed =
            ReachabilityGraph::explore_checkpointed(&net, &opts, &unbounded, &no_ckpt, Some(&snap));
        let whole = ReachabilityGraph::explore_with(&net, &opts).unwrap();
        for rg in [whole, resumed.unwrap().into_value()] {
            let markings: Vec<Marking> = rg.states().map(|s| rg.marking(s).clone()).collect();
            assert_eq!(markings, states, "{name}: marking per id");
            let dead: Vec<usize> = (0..states.len()).filter(|&i| edges[i].is_empty()).collect();
            let rg_dead: Vec<usize> = rg.deadlocks().iter().map(|s| s.index()).collect();
            assert_eq!(rg_dead, dead, "{name}: deadlock ids");
            for s in rg.states() {
                let succ: Vec<_> = rg.successors(s).map(|(t, d)| (t, d.index())).collect();
                assert_eq!(succ, edges[s.index()], "{name}: edges of {s}");
                let path = Some(oracle_path(&edges, s.index()));
                assert_eq!(rg.path_to(s), path, "{name}: path to {s}");
            }
        }

        for strategy in [
            SeedStrategy::FirstEnabled,
            SeedStrategy::BestOfEnabled,
            SeedStrategy::ConflictCluster,
        ] {
            let stubborn = StubbornSets::new(&net, strategy);
            let (states, edges) = bfs_oracle(&net, |m| stubborn.enabled_stubborn(m));
            let opts = ReducedOptions {
                strategy,
                threads: 1,
                ..Default::default()
            };
            let red = ReducedReachability::explore_with(&net, &opts).unwrap();
            let tag = format!("{name}/{strategy:?}");
            let markings = red.states().map(|s| red.marking(s));
            assert!(markings.eq(&states), "{tag}: marking per id");
            let dead = (0..states.len()).filter(|&i| edges[i].is_empty());
            let oracle_dead = dead.map(|i| &states[i]);
            assert!(
                red.deadlocks()
                    .iter()
                    .map(|&s| red.marking(s))
                    .eq(oracle_dead),
                "{tag}: deadlocks in id order"
            );
            let fired: usize = edges.iter().map(Vec::len).sum();
            assert_eq!(red.edge_count(), fired, "{tag}: edge count");
        }
    }
}
