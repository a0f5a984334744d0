//! Input generator and in-process layer probe of the repository benchmark.
//!
//! ```text
//! perfbench-probe gen OUTDIR SPEC...        write nets: nsdp:9 asat:8 over:6 rw:12 cyclic:12 comb:200:16
//! perfbench-probe explore NET THREADS       parse + full exploration, prints the state count
//! perfbench-probe probe JOBS TRACE          traced layer run: prints one JSON line of metrics
//! ```
//!
//! `gen` is the benchmark's input generator: `julie` itself only ever
//! receives the files it writes. `explore` exists so `run.py` can read
//! the peak RSS of a bare exploration from the kernel after it exits.
//! `probe` calls each layer's public entry points in-process, records a
//! span around every call, writes the spans once at the end as Chrome
//! trace-event JSON, and prints the per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gpo_core::{analyze_with, ExplicitFamily, GpoOptions, Representation, SetFamily, ZddFamily};
use julie::engine::{self, RunSpec};
use julie::portfolio::{self, PortfolioOptions};
use partial_order::{ReducedOptions, ReducedReachability, SeedStrategy};
use petri::{
    parse_net, reduce_observed, to_text, Budget, CheckpointConfig, ConflictInfo, ExploreOptions,
    NetBuilder, Observed, Outcome, PetriNet, Property, ReachabilityGraph, ReduceOptions,
};
use symbolic::{SymbolicOptions, SymbolicReachability};
use unfolding::{UnfoldOptions, Unfolding};

/// The mutual-exclusion property of neighbouring philosophers 0 and 1,
/// which share a fork: it holds on every NSDP(n).
const MUTEX: &str = "AG !(m(eat0) >= 1 & m(eat1) >= 1)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") if args.len() >= 2 => gen(&args[1], &args[2..]),
        Some("explore") if args.len() == 3 => explore(&args[1], &args[2]),
        Some("probe") if args.len() == 3 => probe(&args[1], &args[2]),
        _ => Err(
            "usage: perfbench-probe gen OUTDIR SPEC... | explore NET THREADS | \
                  probe JOBS TRACE"
                .into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("perfbench-probe: {e}");
        std::process::exit(2);
    }
}

/// A comb: a spine of `depth` steps, each with `width` dead-end branches.
/// It has `1 + depth * (width + 1)` reachable markings and a transition
/// count that makes the O(|T|) enabling scan dominate exploration.
fn comb(depth: usize, width: usize) -> PetriNet {
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
    b.build().expect("comb nets are well formed")
}

/// Builds the net a spec names: `nsdp:9`, `comb:200:16`, ...
fn model(spec: &str) -> Result<PetriNet, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad model spec `{spec}`"))
    };
    Ok(match parts[0] {
        "nsdp" => models::nsdp(num(1)?),
        "asat" => models::asat(num(1)?),
        "over" => models::overtake(num(1)?),
        "rw" => models::readers_writers(num(1)?),
        "cyclic" => models::scheduler(num(1)?),
        "comb" => comb(num(1)?, num(2)?),
        _ => return Err(format!("unknown model in spec `{spec}`")),
    })
}

fn gen(outdir: &str, specs: &[String]) -> Result<(), String> {
    std::fs::create_dir_all(outdir).map_err(|e| format!("cannot create `{outdir}`: {e}"))?;
    for spec in specs {
        let path = format!("{outdir}/{}.net", spec.replace(':', "_"));
        std::fs::write(&path, to_text(&model(spec)?))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

fn read_net(path: &str) -> Result<PetriNet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_net(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn explore(path: &str, threads: &str) -> Result<(), String> {
    let net = read_net(path)?;
    let threads = threads
        .parse()
        .map_err(|_| format!("bad threads `{threads}`"))?;
    let rg = ReachabilityGraph::explore_with(
        &net,
        &ExploreOptions {
            threads,
            ..ExploreOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    println!("{}", rg.state_count());
    Ok(())
}

/// One recorded span: a layer call with its caller and the job it served.
struct Span {
    name: String,
    job: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans nest through an explicit stack, so each
/// span's parent is the span that was open when it began.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in milliseconds.
    fn span<T>(&mut self, name: &str, job: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            job: job.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        self.spans[id].end = end;
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds).
    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                quote(&s.name),
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                quote(&s.job)
            );
        }
        out.push_str("]}");
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One job of the workload, as `run.py` writes it: tab-separated
/// `id net engine threads zdd reduce timeout_secs property`.
struct Job {
    id: String,
    net: String,
    engine: String,
    threads: usize,
    zdd: bool,
    reduce: bool,
    timeout: u64,
    property: String,
}

fn read_jobs(path: &str) -> Result<Vec<Job>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 8 {
                return Err(format!("bad job line `{line}`"));
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number `{s}`"));
            Ok(Job {
                id: f[0].into(),
                net: f[1].into(),
                engine: f[2].into(),
                threads: num(f[3])? as usize,
                zdd: f[4] == "1",
                reduce: f[5] == "1",
                timeout: num(f[6])?,
                property: f[7].into(),
            })
        })
        .collect()
}

/// Collected per-layer metrics, printed in name order.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }
}

fn budget_for(timeout: u64) -> Budget {
    let b = Budget::default().cap_states(10_000_000);
    if timeout > 0 {
        b.with_timeout(Duration::from_secs(timeout))
    } else {
        b
    }
}

fn explore_opts(threads: usize) -> ExploreOptions {
    ExploreOptions {
        threads,
        ..ExploreOptions::default()
    }
}

fn probe(jobs_path: &str, trace_path: &str) -> Result<(), String> {
    let jobs = read_jobs(jobs_path)?;
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let mut job_ms = Vec::new();

    // The workload's own jobs, one `job` span each.
    for job in &jobs {
        let (engine_ms, _) = tr.span("job", &job.id, |tr| run_job(tr, &mut m, job));
        job_ms.push((job.id.clone(), engine_ms?));
    }

    layer_probes(&mut tr, &mut m)?;

    std::fs::write(trace_path, tr.chrome_json())
        .map_err(|e| format!("cannot write `{trace_path}`: {e}"))?;
    let mut out = String::from("{\"metrics\":{");
    for (i, (k, v)) in m.0.iter().enumerate() {
        let _ = write!(out, "{}{}:{v}", if i > 0 { "," } else { "" }, quote(k));
    }
    out.push_str("},\"jobs\":{");
    for (i, (id, ms)) in job_ms.iter().enumerate() {
        let _ = write!(out, "{}{}:{ms}", if i > 0 { "," } else { "" }, quote(id));
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

/// Runs one job as `julie check` does: parse, optional reduction, the
/// engine (or the portfolio), and the JSON rendering. Returns the engine
/// time in milliseconds.
fn run_job(tr: &mut Tracer, m: &mut Metrics, job: &Job) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(&job.net).map_err(|e| format!("cannot read `{}`: {e}", job.net))?;
    let (net, ms) = tr.span("parse_net", &job.id, |_| parse_net(&text));
    let net = net.map_err(|e| format!("`{}`: {e}", job.net))?;
    m.add("parse.ms", ms);
    let property = Property::parse(&job.property)?;
    let reduction = if job.reduce {
        let observed = Observed {
            places: property.observed_places(),
            transitions: property.observed_transitions(),
        };
        let (r, _) = tr.span("reduce_observed", &job.id, |_| {
            reduce_observed(&net, &ReduceOptions::default(), &observed)
        });
        Some(r.map_err(|e| e.to_string())?)
    } else {
        None
    };
    let rules = if job.reduce {
        ReduceOptions::default().rules_string()
    } else {
        String::new()
    };
    let spec = RunSpec {
        engine: job.engine.clone(),
        zdd: job.zdd,
        witnesses: 1,
        threads: job.threads,
        property,
    };
    let budget = budget_for(job.timeout);
    let ckpt = CheckpointConfig::default();
    let (report, engine_ms) = if job.engine == "auto" {
        tr.span("run_portfolio", &job.id, |_| {
            portfolio::run_portfolio(
                &net,
                reduction.as_ref(),
                &rules,
                &spec,
                &budget,
                &ckpt,
                None,
                &PortfolioOptions::default(),
            )
            .map(|o| o.report)
        })
    } else {
        tr.span("run_engine", &job.id, |_| {
            engine::run_engine(
                &net,
                reduction.as_ref(),
                &rules,
                &spec,
                &budget,
                &ckpt,
                None,
            )
        })
    };
    let report = report?;
    m.add("engine.run_ms", engine_ms);
    let (_, ms) = tr.span("CheckReport::to_json().render()", &job.id, |_| {
        report.to_json().render()
    });
    m.add("report.render_ms", ms);
    Ok(engine_ms)
}

/// Calls each layer's public entry points on fixed inputs chosen so the
/// layer does real work, independent of the workload's job list.
fn layer_probes(tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let nsdp8 = models::nsdp(8);
    let nsdp9 = models::nsdp(9);
    let asat8 = models::asat(8);
    let over6 = models::overtake(6);

    // petri::reduce on ASAT(8), where reduction costs more than it saves
    let (red, ms) = tr.span("reduce_observed", "probe:reduce", |_| {
        reduce_observed(&asat8, &ReduceOptions::default(), &Observed::none())
    });
    let red = red.map_err(|e| e.to_string())?;
    m.set("reduce.ms", ms);
    m.set(
        "reduce.transitions_kept_ratio",
        red.net.transition_count() as f64 / asat8.transition_count() as f64,
    );
    let (full, _) = tr.span("ReachabilityGraph::explore_with", "probe:reduce", |_| {
        ReachabilityGraph::explore_with(&asat8, &explore_opts(1))
    });
    let full = full.map_err(|e| e.to_string())?;
    let (reduced, _) = tr.span("ReachabilityGraph::explore_with", "probe:reduce", |_| {
        ReachabilityGraph::explore_with(&red.net, &explore_opts(1))
    });
    let reduced = reduced.map_err(|e| e.to_string())?;
    m.set(
        "reduce.states_kept_ratio",
        reduced.state_count() as f64 / full.state_count() as f64,
    );
    // julie::engine witness lifting: a reduced-net deadlock and its trace
    let dead = *reduced
        .deadlocks()
        .first()
        .ok_or("reduced ASAT(8) must deadlock")?;
    let trace = reduced.path_to(dead);
    let (w, ms) = tr.span("lift_witness", "probe:reduce", |_| {
        engine::lift_witness(&asat8, Some(&red), reduced.marking(dead), trace.as_deref())
    });
    w?;
    m.set("witness.lift_ms", ms);
    drop((full, reduced));

    // petri::conflict and gpo_core::family: r0 of NSDP(8)
    let ((conflicts, groups), ms) = tr.span("ConflictInfo::new", "probe:r0", |_| {
        let c = ConflictInfo::new(&nsdp8);
        let g = c.choice_groups();
        (c, g)
    });
    m.set("conflict.ms", ms);
    m.set(
        "conflict.choice_sets",
        groups.iter().map(Vec::len).sum::<usize>() as f64,
    );
    let (_, ms) = tr.span("conflict_free_set_count", "probe:r0", |_| {
        conflicts.conflict_free_set_count()
    });
    m.set("conflict.count_ms", ms);
    let universe = nsdp8.transition_count();
    let (explicit, ms) = tr.span("ExplicitFamily::from_choice_groups", "probe:r0", |_| {
        ExplicitFamily::from_choice_groups(&(), universe, &groups)
    });
    m.set("r0.explicit_ms", ms);
    let ctx = ZddFamily::new_context(universe);
    let (zdd, ms) = tr.span("ZddFamily::from_choice_groups", "probe:r0", |_| {
        ZddFamily::from_choice_groups(&ctx, universe, &groups)
    });
    m.set("r0.zdd_ms", ms);
    m.set("r0.zdd_nodes", zdd.footprint() as f64);
    if zdd.count() != explicit.count() {
        return Err("explicit and ZDD r0 families disagree on NSDP(8)".into());
    }
    drop((explicit, zdd, ctx));

    // gpo_core::analysis on NSDP(8): the paper's 3 GPN states
    let opts = GpoOptions {
        valid_set_limit: 1 << 24,
        representation: Representation::Zdd,
        threads: 1,
        ..GpoOptions::default()
    };
    let (gpo, ms) = tr.span("analyze_with", "probe:gpo", |_| analyze_with(&nsdp8, &opts));
    let gpo = gpo.map_err(|e| e.to_string())?;
    m.set("gpo.analyze_ms", ms);
    m.set("gpo.states", gpo.state_count as f64);
    let enabling = (gpo.enabling_computed + gpo.enabling_reused).max(1);
    m.set(
        "gpo.enabling_reuse_ratio",
        gpo.enabling_reused as f64 / enabling as f64,
    );
    let mk = (gpo.unique_hits + gpo.zdd_nodes_allocated).max(1);
    m.set("gpo.unique_hit_ratio", gpo.unique_hits as f64 / mk as f64);
    m.set("gpo.op_cache_hits", gpo.op_cache_hits as f64);

    // petri::reachability / petri::parallel on NSDP(9), 1 and 2 threads
    let mut full_states = 0;
    for threads in [1usize, 2] {
        let (rg, ms) = tr.span("ReachabilityGraph::explore_with", "probe:explore", |_| {
            ReachabilityGraph::explore_with(&nsdp9, &explore_opts(threads))
        });
        let rg = rg.map_err(|e| e.to_string())?;
        full_states = rg.state_count();
        m.set(&format!("explore.t{threads}_ms"), ms);
        m.set(
            &format!("explore.states_per_s_t{threads}"),
            full_states as f64 / (ms / 1e3),
        );
    }

    // partial_order with a visible-place property on NSDP(9)
    let mutex = Property::parse(MUTEX)?
        .compile(&nsdp9)
        .map_err(|e| e.to_string())?;
    let visible = mutex
        .visible_transitions(&nsdp9)
        .ok_or("a marking property has a visible set")?;
    let po_opts = ReducedOptions {
        strategy: SeedStrategy::BestOfEnabled,
        max_states: usize::MAX,
        threads: 1,
        visible: Some(visible),
    };
    let (po, ms) = tr.span("ReducedReachability::explore_with", "probe:po", |_| {
        ReducedReachability::explore_with(&nsdp9, &po_opts)
    });
    let po = po.map_err(|e| e.to_string())?;
    m.set("po.ms", ms);
    m.set(
        "po.states_ratio",
        po.state_count() as f64 / full_states as f64,
    );
    drop(po);

    // symbolic on OVER(6); unfolding, with the deadlock check `julie
    // check --engine=unfold` runs on the prefix, on OVER(6) and NSDP(6)
    let (bdd, ms) = tr.span("SymbolicReachability::explore_with", "probe:bdd", |_| {
        SymbolicReachability::explore_with(&over6, &SymbolicOptions::default())
    });
    m.set("bdd.ms", ms);
    m.set("bdd.peak_nodes", bdd.peak_live_nodes() as f64);
    drop(bdd);
    let (mut events, mut cutoffs) = (0, 0);
    for net in [&over6, &models::nsdp(6)] {
        let (unf, ms) = tr.span("Unfolding::build_with", "probe:unfold", |_| {
            Unfolding::build_with(net, &UnfoldOptions::default())
        });
        let unf = unf.map_err(|e| e.to_string())?;
        m.add("unfold.ms", ms);
        let (_, ms) = tr.span("Unfolding::has_deadlock", "probe:unfold", |_| {
            unf.has_deadlock(net)
        });
        m.add("unfold.ms", ms);
        events += unf.prefix().event_count();
        cutoffs += unf.prefix().cutoff_count();
    }
    m.set("unfold.events", events as f64);
    m.set("unfold.cutoff_ratio", cutoffs as f64 / events.max(1) as f64);

    // pdr: a proof on NSDP(9) with its certificate re-validated, and the
    // reduced ASAT(8) deadlock query under a one-second deadline
    let (res, ms) = tr.span("pdr::check_bounded", "probe:pdr", |_| {
        pdr::check_bounded(&nsdp9, &mutex, &Budget::default())
    });
    let res = res?;
    m.set("pdr.ms", ms);
    let mut decided = 0;
    m.add("pdr.sat_calls", res.value().stats.sat_calls as f64);
    m.add("pdr.lemmas", res.value().stats.lemmas as f64);
    if let Outcome::Complete(r) = &res {
        let cert = r
            .certificate
            .as_ref()
            .ok_or("pdr proved the NSDP(9) mutex without a certificate")?;
        let (ok, ms) = tr.span("validate_certificate", "probe:pdr", |_| {
            pdr::validate::validate_certificate(&nsdp9, &mutex, cert)
        });
        ok?;
        m.set("pdr.validate_ms", ms);
        decided += 1;
    } else {
        return Err("pdr left the NSDP(9) mutex undecided without a budget".into());
    }
    let deadlock = Property::deadlock()
        .compile(&red.net)
        .map_err(|e| e.to_string())?;
    let budget = Budget::default().with_timeout(Duration::from_secs(1));
    let (res, _) = tr.span("pdr::check_bounded", "probe:pdr-reduced", |_| {
        pdr::check_bounded(&red.net, &deadlock, &budget)
    });
    let res = res?;
    m.add("pdr.sat_calls", res.value().stats.sat_calls as f64);
    m.add("pdr.lemmas", res.value().stats.lemmas as f64);
    if res.is_complete() {
        decided += 1;
    }
    m.set("pdr.decided_share", decided as f64 / 2.0);

    // julie::portfolio: the default race on NSDP(9)
    let spec = RunSpec {
        engine: "auto".into(),
        zdd: false,
        witnesses: 1,
        threads: petri::parallel::default_threads(),
        property: Property::deadlock(),
    };
    let budget = Budget::default().cap_states(10_000_000);
    let (out, ms) = tr.span("run_portfolio", "probe:portfolio", |_| {
        portfolio::run_portfolio(
            &nsdp9,
            None,
            "",
            &spec,
            &budget,
            &CheckpointConfig::default(),
            None,
            &PortfolioOptions::default(),
        )
    });
    let out = out?;
    let winner = out
        .legs
        .iter()
        .find(|l| l.outcome == "won")
        .ok_or("the NSDP(9) race has no winner")?;
    let winner_ms = winner.wall.as_secs_f64() * 1e3;
    m.set("portfolio.winner_ms", winner_ms);
    m.set("portfolio.cancel_lag_ms", ms - winner_ms);
    m.set(
        "portfolio.legs_launched",
        out.legs
            .iter()
            .filter(|l| l.outcome != "not-launched")
            .count() as f64,
    );
    Ok(())
}
