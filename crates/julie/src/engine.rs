//! The shared engine runner: one table of the verification engines
//! ([`ENGINES`]) and one entry point, [`run_engine`], that drives any of
//! them and returns a [`CheckReport`]. `julie check` renders the report
//! as prose or `--json`; `julie serve` workers store its JSON rendering
//! as the job result, so both paths agree byte-for-byte on what a verdict
//! looks like.
//!
//! Everything julie knows about an engine — its name, what it can do and
//! how it runs — lives in its table row. The run function only reports
//! what the engine established (an `EngineRun`); the verdict, coverage and
//! witness lifting are assembled once, in [`run_engine`].

use gpo_core::{analyze_checkpointed, GpoOptions, Representation};
use partial_order::{ReducedOptions, ReducedReachability, SeedStrategy};
use petri::{
    Budget, CheckpointConfig, CompiledProperty, CoverageStats, ExhaustionReason, ExploreOptions,
    Marking, Outcome, PetriNet, Property, ReachabilityGraph, Reduction, Snapshot, TransitionId,
    Verdict,
};
use symbolic::{SymbolicOptions, SymbolicReachability};
use timed::{ClassGraph, TimedNet};
use unfolding::{UnfoldOptions, Unfolding};

use crate::report::{CheckReport, ReductionSummary, Witness};

/// The `--engine` selector of the portfolio, which races the table's
/// raceable engines.
pub const AUTO: &str = "auto";

/// The engine `julie check` and `julie serve` use when none is named.
pub const DEFAULT_ENGINE: &str = "gpo";

/// One row of the engine table.
pub struct Engine {
    /// The `--engine` selector.
    pub name: &'static str,
    /// Human-readable description, shown in every report.
    pub desc: &'static str,
    /// Honours `--checkpoint`/`--resume`.
    pub checkpoint: bool,
    /// The `--engine=auto` stage this engine races in by default, or
    /// `None` when it cannot race (it has no budget hooks, so it could
    /// not be cancelled when it loses). [`ENGINES`] lists the raceable
    /// engines in escalation order.
    pub stage: Option<usize>,
    /// How the engine answers a property other than `EF deadlock`.
    pub property: PropertySupport,
    run: fn(&Ctx) -> Result<EngineRun, String>,
}

/// How an engine answers a property other than the default `EF deadlock`.
pub enum PropertySupport {
    /// Its own run function answers any property.
    Native,
    /// It runs the named engine's search instead, reported under `desc`.
    Via {
        /// The engine whose run answers the property.
        engine: &'static str,
        /// The report's engine description for such runs.
        desc: &'static str,
    },
    /// It answers only the default property.
    DefaultOnly,
}

/// Every engine, raceable ones first in escalation order.
pub const ENGINES: &[Engine] = &[
    Engine {
        name: "po",
        desc: "stubborn-set partial-order reduction",
        checkpoint: true,
        stage: Some(0),
        property: PropertySupport::Native,
        run: |cx| run_graph(cx, true),
    },
    // the GPN exploration only decides the default `EF deadlock` (its
    // states are whole firing families, blind to individual marking
    // predicates), so for any other property the gpo engine honestly runs
    // the property-preserving stubborn-set search instead
    Engine {
        name: "gpo",
        desc: "generalized partial order analysis",
        checkpoint: true,
        stage: Some(0),
        property: PropertySupport::Via {
            engine: "po",
            desc: "generalized partial order analysis (via property-preserving stubborn sets)",
        },
        run: run_gpo,
    },
    Engine {
        name: "pdr",
        desc: "inductive safety proving (IC3/PDR over invariant frames)",
        checkpoint: false,
        stage: Some(0),
        property: PropertySupport::Native,
        run: run_pdr,
    },
    Engine {
        name: "bdd",
        desc: "symbolic (BDD) reachability",
        checkpoint: false,
        stage: Some(1),
        property: PropertySupport::Native,
        run: run_bdd,
    },
    Engine {
        name: "unfold",
        desc: "McMillan finite complete prefix",
        checkpoint: false,
        stage: Some(1),
        property: PropertySupport::Native,
        run: run_unfold,
    },
    Engine {
        name: "full",
        desc: "exhaustive reachability",
        checkpoint: true,
        stage: Some(2),
        property: PropertySupport::Native,
        run: |cx| run_graph(cx, false),
    },
    Engine {
        name: "classes",
        desc: "state-class graph (untimed intervals)",
        checkpoint: false,
        stage: None,
        property: PropertySupport::DefaultOnly,
        run: run_classes,
    },
];

/// Looks up an engine row by its `--engine` name.
pub fn engine(name: &str) -> Result<&'static Engine, String> {
    ENGINES
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown engine `{name}`"))
}

/// The names of the rows `keep` selects, comma-separated.
pub fn engine_names(keep: impl Fn(&Engine) -> bool) -> String {
    let names: Vec<&str> = ENGINES.iter().filter(|e| keep(e)).map(|e| e.name).collect();
    names.join(", ")
}

impl Engine {
    /// Rejects a property this engine cannot answer.
    pub fn accepts(&self, property: &Property) -> Result<(), String> {
        if matches!(self.property, PropertySupport::DefaultOnly) && !property.is_default() {
            return Err(format!(
                "engine `{}` supports only the default property `EF deadlock` (got `{property}`); \
                 use one of {}",
                self.name,
                engine_names(|e| !matches!(e.property, PropertySupport::DefaultOnly))
            ));
        }
        Ok(())
    }
}

/// Engine-independent knobs of one verification run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Engine selector: a name from [`ENGINES`], or [`AUTO`].
    pub engine: String,
    /// ZDD-backed families for the gpo engine.
    pub zdd: bool,
    /// Deadlock witnesses to report.
    pub witnesses: usize,
    /// Worker threads for the full/po/gpo engines.
    pub threads: usize,
    /// The property to verify. The default (`EF deadlock`) follows the
    /// exact legacy deadlock path of every engine; any other property
    /// re-aims the search at its goal markings (φ under `EF`, ¬φ under
    /// `AG`).
    pub property: Property,
}

impl RunSpec {
    /// Whether this engine supports `--checkpoint`/`--resume`. `auto`
    /// qualifies: the portfolio designates one checkpoint-capable leg to
    /// snapshot under an engine stamp.
    pub fn supports_checkpoint(&self) -> bool {
        self.engine == AUTO || engine(&self.engine).is_ok_and(|e| e.checkpoint)
    }
}

/// What a run function hands to [`run_engine`]: the net it explores (the
/// reduced one under `--reduce`), the property compiled against that net,
/// and the run's knobs.
struct Ctx<'a> {
    net: &'a PetriNet,
    property: &'a CompiledProperty,
    default: bool,
    spec: &'a RunSpec,
    budget: &'a Budget,
    ckpt: &'a CheckpointConfig,
    resume: Option<&'a Snapshot>,
}

/// What one engine run established, before the shared tail of
/// [`run_engine`] turns it into a [`CheckReport`].
#[derive(Default)]
struct EngineRun {
    exhausted: Option<ExhaustionReason>,
    coverage: Option<CoverageStats>,
    states: usize,
    states_line: String,
    detail_lines: Vec<String>,
    details: Vec<(&'static str, u64)>,
    /// A goal marking (a deadlock, for the default property) was found.
    goal_found: bool,
    /// Goal markings to report, on the explored net, each with the trace
    /// into it when the engine records one.
    witnesses: Vec<(Marking, Option<Vec<TransitionId>>)>,
    certificate: Vec<String>,
}

impl EngineRun {
    /// Records an outcome's budget facts and hands back its value.
    fn from_outcome<T>(outcome: Outcome<T>) -> (Self, T) {
        let run = EngineRun {
            exhausted: outcome.reason(),
            coverage: outcome.coverage().cloned(),
            ..EngineRun::default()
        };
        (run, outcome.into_value())
    }
}

/// Lifts one dead marking (and its trace, when the engine recorded one)
/// back to the original net and renders it for display. Mirrors the
/// classic `print_dead` behaviour: with a trace the lift is exact; without
/// one, removed sink places show their initial value and the witness is
/// flagged `statically_lifted`.
pub fn lift_witness(
    original: &PetriNet,
    reduction: Option<&Reduction>,
    marking: &Marking,
    trace: Option<&[TransitionId]>,
) -> Result<Witness, String> {
    let Some(r) = reduction else {
        return Ok(Witness {
            marking: original.display_marking(marking).to_string(),
            trace: trace.map(|t| {
                t.iter()
                    .map(|&x| original.transition_name(x).to_string())
                    .collect()
            }),
            statically_lifted: false,
        });
    };
    if let Some(t) = trace {
        let lifted = r
            .map
            .lift_trace(t)
            .map_err(|e| e.to_string())?
            .ok_or("reduced-net witness does not lift to the original net")?;
        let m = original
            .fire_sequence(original.initial_marking(), lifted.iter().copied())
            .map_err(|e| e.to_string())?
            .ok_or("lifted witness does not replay on the original net")?;
        Ok(Witness {
            marking: original.display_marking(&m).to_string(),
            trace: Some(
                lifted
                    .iter()
                    .map(|&x| original.transition_name(x).to_string())
                    .collect(),
            ),
            statically_lifted: false,
        })
    } else {
        Ok(Witness {
            marking: original
                .display_marking(&r.map.lift_marking(marking))
                .to_string(),
            trace: None,
            statically_lifted: true,
        })
    }
}

/// Runs one verification with the chosen engine. `reduction`, when
/// present, is the structural pre-pass whose reduced net the engine
/// explores; all reported witnesses are lifted back to `original`.
///
/// `ckpt`/`resume` are honoured by the checkpoint-capable engines; callers
/// must pre-validate (via [`RunSpec::supports_checkpoint`]) that other
/// engines are not asked to checkpoint.
pub fn run_engine(
    original: &PetriNet,
    reduction: Option<&Reduction>,
    rules: &str,
    spec: &RunSpec,
    budget: &Budget,
    ckpt: &CheckpointConfig,
    resume: Option<&Snapshot>,
) -> Result<CheckReport, String> {
    let net: &PetriNet = reduction.map_or(original, |r| &r.net);
    // resolve the property against the net the engine actually explores;
    // `--reduce` protects observed nodes, so the names are still there
    let compiled = spec
        .property
        .compile(net)
        .map_err(|e| format!("property error: {e}"))?;
    let row = engine(&spec.engine)?;
    row.accepts(&spec.property)?;
    let default = spec.property.is_default();
    let (engine_desc, run) = match row.property {
        PropertySupport::Via { engine: via, desc } if !default => (desc, engine(via)?.run),
        _ => (row.desc, row.run),
    };
    let run = run(&Ctx {
        net,
        property: &compiled,
        default,
        spec,
        budget,
        ckpt,
        resume,
    })?;
    let frontier = run.coverage.as_ref().map_or(0, |c| c.frontier_len);
    let verdict = Verdict::from_observation(run.goal_found, run.exhausted.is_none(), frontier);
    let witnesses = run
        .witnesses
        .iter()
        .map(|(m, trace)| lift_witness(original, reduction, m, trace.as_deref()))
        .collect::<Result<_, _>>()?;
    Ok(CheckReport {
        net: original.name().to_string(),
        engine: spec.engine.clone(),
        engine_desc,
        states_line: run.states_line,
        states: run.states,
        verdict,
        exhausted: run.exhausted,
        coverage: run.coverage,
        detail_lines: run.detail_lines,
        details: run.details,
        witnesses,
        certificate: run.certificate,
        reduction: reduction.map(|r| ReductionSummary::new(rules, &r.report)),
        property: spec.property.clone(),
        legs: Vec::new(),
    })
}

/// The explicit-state search: the full graph, or with `po` the
/// stubborn-set reduced one. For a non-default property (and for the gpo
/// engine, which borrows the po search for such properties) every stubborn
/// set is seeded with the property's visible transitions, and the stored
/// markings are then scanned for goal states. Only the full graph records
/// edges, so only its witnesses carry a trace.
fn run_graph(cx: &Ctx, po: bool) -> Result<EngineRun, String> {
    let (net, threads) = (cx.net, cx.spec.threads);
    // `None` exactly for the default property, and for the full search
    let visible = po.then(|| cx.property.visible_transitions(net)).flatten();
    let visible_count = visible.as_ref().map(Vec::len);
    let outcome = if po {
        let opts = ReducedOptions {
            strategy: SeedStrategy::BestOfEnabled,
            max_states: usize::MAX,
            threads,
            visible,
        };
        ReducedReachability::explore_checkpointed(net, &opts, cx.budget, cx.ckpt, cx.resume)
    } else {
        let opts = ExploreOptions {
            max_states: usize::MAX,
            record_edges: true,
            threads,
        };
        ReachabilityGraph::explore_checkpointed(net, &opts, cx.budget, cx.ckpt, cx.resume)
    };
    let (mut run, rg) = EngineRun::from_outcome(outcome.map_err(|e| e.to_string())?);
    if let Some(n) = visible_count {
        run.detail_lines.push(format!("visible transitions: {n}"));
        run.details.push(("visible_transitions", n as u64));
    }
    let goals = if cx.default {
        rg.deadlocks().to_vec()
    } else {
        // post-hoc goal scan; smallest goal markings first so the
        // reported witness is deterministic across thread counts
        let mut goals: Vec<_> = rg
            .states()
            .filter(|&s| cx.property.goal(net, rg.marking(s)))
            .collect();
        goals.sort_by(|&a, &b| rg.marking(a).cmp(rg.marking(b)));
        goals
    };
    Ok(EngineRun {
        states: rg.state_count(),
        states_line: format!("states: {}", rg.state_count()),
        goal_found: !goals.is_empty(),
        witnesses: goals
            .iter()
            .take(cx.spec.witnesses)
            .map(|&g| (rg.marking(g).clone(), if po { None } else { rg.path_to(g) }))
            .collect(),
        ..run
    })
}

fn run_gpo(cx: &Ctx) -> Result<EngineRun, String> {
    let opts = GpoOptions {
        valid_set_limit: 1 << 24,
        max_states: usize::MAX,
        representation: if cx.spec.zdd {
            Representation::Zdd
        } else {
            Representation::Explicit
        },
        max_witnesses: cx.spec.witnesses,
        threads: cx.spec.threads,
        coverage_query: Vec::new(),
    };
    let outcome = analyze_checkpointed(cx.net, &opts, cx.budget, cx.ckpt, cx.resume)
        .map_err(|e| e.to_string())?;
    let (mut run, gpo) = EngineRun::from_outcome(outcome);
    run.detail_lines
        .push(format!("valid sets |r0|: {}", gpo.valid_set_count));
    run.details.push(("valid_sets", gpo.valid_set_count));
    if gpo.zdd_nodes_allocated > 0 {
        run.detail_lines.push(format!(
            "zdd: {} nodes allocated, {} unique-table hits, {} op-cache hits, \
             {} op-cache evictions",
            gpo.zdd_nodes_allocated, gpo.unique_hits, gpo.op_cache_hits, gpo.op_cache_evictions
        ));
        run.details.extend([
            ("zdd_nodes_allocated", gpo.zdd_nodes_allocated),
            ("unique_hits", gpo.unique_hits),
            ("op_cache_hits", gpo.op_cache_hits),
            ("op_cache_evictions", gpo.op_cache_evictions),
        ]);
    }
    let mut traces = gpo.deadlock_traces.into_iter();
    Ok(EngineRun {
        states: gpo.state_count,
        states_line: format!("GPN states: {}", gpo.state_count),
        goal_found: gpo.deadlock_possible,
        witnesses: gpo
            .deadlock_witnesses
            .into_iter()
            .map(|w| (w, traces.next()))
            .collect(),
        ..run
    })
}

fn run_bdd(cx: &Ctx) -> Result<EngineRun, String> {
    let opts = SymbolicOptions::default();
    let outcome = if cx.default {
        SymbolicReachability::explore_bounded(cx.net, &opts, cx.budget)
    } else {
        SymbolicReachability::explore_goal_bounded(cx.net, &opts, cx.budget, cx.property)
    };
    let (run, sym) = EngineRun::from_outcome(outcome);
    // default runs report no witness; property runs report the one
    // goal marking the symbolic search extracts
    let witness = sym.deadlock_witness().filter(|_| !cx.default);
    Ok(EngineRun {
        // the symbolic engine counts states as f64 (BDD model count)
        states: sym.state_count() as usize,
        states_line: format!("states: {}", sym.state_count()),
        detail_lines: vec![format!("peak BDD nodes: {}", sym.peak_live_nodes())],
        details: vec![("peak_bdd_nodes", sym.peak_live_nodes() as u64)],
        goal_found: sym.has_deadlock(),
        witnesses: witness.map(|m| (m.clone(), None)).into_iter().collect(),
        ..run
    })
}

fn run_unfold(cx: &Ctx) -> Result<EngineRun, String> {
    let opts = UnfoldOptions {
        max_events: usize::MAX,
    };
    let (run, unf) = EngineRun::from_outcome(Unfolding::build_bounded(cx.net, &opts, cx.budget));
    let prefix = unf.prefix();
    let (goal_found, goal) = if cx.default {
        (unf.has_deadlock(cx.net), None)
    } else {
        let goal = unf.goal_marking(cx.net, cx.property);
        (goal.is_some(), goal)
    };
    Ok(EngineRun {
        states: prefix.event_count(),
        states_line: format!(
            "prefix: {} events, {} conditions, {} cut-offs",
            prefix.event_count(),
            prefix.condition_count(),
            prefix.cutoff_count()
        ),
        details: vec![
            ("events", prefix.event_count() as u64),
            ("conditions", prefix.condition_count() as u64),
            ("cutoffs", prefix.cutoff_count() as u64),
        ],
        goal_found,
        witnesses: goal.map(|m| (m, None)).into_iter().collect(),
        ..run
    })
}

fn run_pdr(cx: &Ctx) -> Result<EngineRun, String> {
    let outcome = pdr::check_bounded(cx.net, cx.property, cx.budget)?;
    let (mut run, res) = EngineRun::from_outcome(outcome);
    let stats = &res.stats;
    run.detail_lines.push(format!(
        "sat: {} queries, {} conflicts; seeded invariant clauses: {}",
        stats.sat_calls, stats.conflicts, stats.seeded_clauses
    ));
    run.details.extend([
        ("frames", stats.frames as u64),
        ("lemmas", stats.lemmas as u64),
        ("sat_calls", stats.sat_calls),
        ("conflicts", stats.conflicts),
        ("seeded_clauses", stats.seeded_clauses as u64),
    ]);
    if let Some(cert) = &res.certificate {
        // `check_bounded` already re-validated the certificate by
        // independent incidence arithmetic; render its clauses against
        // the net the engine actually proved them on
        run.detail_lines.push(format!(
            "certificate: {} clauses, independently re-validated",
            cert.clauses.len()
        ));
        run.details
            .push(("certificate_clauses", cert.clauses.len() as u64));
        run.certificate = cert
            .clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&(p, pos)| {
                        let name = cx.net.place_name(p);
                        if pos {
                            name.to_string()
                        } else {
                            format!("!{name}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .collect();
    }
    Ok(EngineRun {
        states: stats.lemmas,
        states_line: format!("frames: {}, lemmas: {}", stats.frames, stats.lemmas),
        goal_found: res.reachable == Some(true),
        witnesses: res
            .goal_marking
            .filter(|_| cx.spec.witnesses > 0)
            .map(|m| (m, res.trace))
            .into_iter()
            .collect(),
        ..run
    })
}

/// Untimed intervals: the class graph doubles as a reference explorer;
/// real timing analyses use the `timed` crate API. The class graph has no
/// budget hooks, so its verdicts are always complete.
fn run_classes(cx: &Ctx) -> Result<EngineRun, String> {
    let graph = ClassGraph::explore(&TimedNet::new(cx.net.clone())).map_err(|e| e.to_string())?;
    Ok(EngineRun {
        states: graph.class_count(),
        states_line: format!("classes: {}", graph.class_count()),
        goal_found: graph.has_deadlock(),
        ..EngineRun::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_engine_table_is_consistent() {
        for (i, e) in ENGINES.iter().enumerate() {
            assert!(e.name != AUTO && ENGINES[..i].iter().all(|f| f.name != e.name));
            // raceable rows come first, in stage order
            assert!(ENGINES[..i]
                .iter()
                .all(|f| f.stage.is_some() && f.stage <= e.stage || e.stage.is_none()));
            if let PropertySupport::Via { engine: via, .. } = e.property {
                assert!(matches!(
                    engine(via).unwrap().property,
                    PropertySupport::Native
                ));
            }
        }
        assert!(engine(DEFAULT_ENGINE).is_ok());
        assert_eq!(engine_names(|e| e.checkpoint), "po, gpo, full");
    }
}
