//! Portfolio correctness (README §`--engine=auto`): the race must be
//! verdict-transparent. Whatever leg wins, the auto verdict equals every
//! solo engine's sound verdict on the same question; an injected leg
//! panic never changes the answer; a fabricated cross-engine
//! disagreement fails closed naming both engines; and when every leg
//! exhausts its budget the portfolio degrades to an inconclusive report
//! instead of guessing.

use std::time::Duration;

use gpo_suite::prelude::*;
use julie::engine::{run_engine, RunSpec};
use julie::portfolio::{raceable, run_portfolio, PortfolioOptions};
use petri::{CheckpointConfig, Property};

fn spec(engine: &str, property: &Property) -> RunSpec {
    RunSpec {
        engine: engine.to_string(),
        zdd: false,
        witnesses: 1,
        threads: 1,
        property: property.clone(),
    }
}

/// Default options with no stage delay, so tests never wait on the
/// escalation timer.
fn fast_opts() -> PortfolioOptions {
    PortfolioOptions {
        stage_delay: Duration::ZERO,
        ..PortfolioOptions::default()
    }
}

/// The test matrix: small nets from the benchmark zoo crossed with the
/// default property, its negated spelling, and a fireability query on
/// each net's first transition.
fn matrix() -> Vec<(PetriNet, Property)> {
    let mut cells = Vec::new();
    for net in [
        models::nsdp(3),
        models::overtake(2),
        models::readers_writers(2),
    ] {
        let t0 = net
            .transition_name(net.transitions().next().expect("zoo nets have transitions"))
            .to_string();
        for prop in [
            Property::deadlock(),
            Property::parse("AG !deadlock").unwrap(),
            Property::parse(&format!("EF fireable({t0})")).unwrap(),
        ] {
            cells.push((net.clone(), prop));
        }
    }
    cells
}

/// With an unlimited budget every solo engine settles the question, so
/// the portfolio's answer must equal each of them — whichever leg won.
#[test]
fn auto_matches_every_solo_sound_verdict() {
    for (net, prop) in matrix() {
        let budget = Budget::default();
        let ckpt = CheckpointConfig::default();
        let outcome = run_portfolio(
            &net,
            None,
            "",
            &spec("auto", &prop),
            &budget,
            &ckpt,
            None,
            &fast_opts(),
        )
        .unwrap_or_else(|e| panic!("{} / {prop}: portfolio failed: {e}", net.name()));
        assert!(
            outcome.report.verdict.is_sound(),
            "{} / {prop}: unlimited budget must settle the question",
            net.name()
        );
        assert_eq!(
            outcome.legs.iter().filter(|l| l.outcome == "won").count(),
            1,
            "{} / {prop}: exactly one winner\n{:?}",
            net.name(),
            outcome.legs
        );
        for engine in raceable() {
            let solo = run_engine(&net, None, "", &spec(engine, &prop), &budget, &ckpt, None)
                .unwrap_or_else(|e| panic!("{} / {prop}: solo {engine} failed: {e}", net.name()));
            assert!(solo.verdict.is_sound());
            assert_eq!(
                outcome.report.verdict,
                solo.verdict,
                "{} / {prop}: auto (won by {}) disagrees with solo {engine}",
                net.name(),
                outcome.report.engine
            );
        }
    }
}

/// Retiring any single leg with an injected panic never changes the
/// race's verdict — the supervisor isolates the crash and another leg
/// answers.
#[test]
fn injected_panic_never_changes_the_verdict() {
    let net = models::nsdp(3);
    let prop = Property::deadlock();
    let budget = Budget::default();
    let ckpt = CheckpointConfig::default();
    let reference = run_engine(&net, None, "", &spec("full", &prop), &budget, &ckpt, None)
        .unwrap()
        .verdict;
    for victim in raceable() {
        let opts = PortfolioOptions {
            inject_panic: Some(victim.to_string()),
            ..fast_opts()
        };
        let outcome = run_portfolio(
            &net,
            None,
            "",
            &spec("auto", &prop),
            &budget,
            &ckpt,
            None,
            &opts,
        )
        .unwrap_or_else(|e| panic!("panic in `{victim}` sank the race: {e}"));
        assert_eq!(
            outcome.report.verdict, reference,
            "panic in `{victim}` changed the verdict"
        );
        assert_ne!(outcome.report.engine, victim, "the panicked leg cannot win");
        let row = outcome
            .legs
            .iter()
            .find(|l| l.engine == victim)
            .expect("victim has a table row");
        assert_eq!(row.outcome, "panicked", "{row:?}");
        // the retry only fires while the race is still open, so a fast
        // winner may beat it — but a third attempt never happens
        assert!((1..=2).contains(&row.attempts), "retry is bounded: {row:?}");
    }
}

/// For a non-default property the gpo engine runs po's stubborn-set
/// search, so a schedule holding both never launches gpo: its row says
/// why, and the verdict is po's. Without po in the schedule gpo races,
/// and under the default property both race.
#[test]
fn gpo_is_not_raced_against_its_own_search() {
    let net = models::nsdp(3);
    let budget = Budget::default();
    let ckpt = CheckpointConfig::default();
    let race = |prop: &Property, opts: &PortfolioOptions| {
        let outcome = run_portfolio(
            &net,
            None,
            "",
            &spec("auto", prop),
            &budget,
            &ckpt,
            None,
            opts,
        )
        .unwrap_or_else(|e| panic!("{prop}: portfolio failed: {e}"));
        let solo = run_engine(&net, None, "", &spec("po", prop), &budget, &ckpt, None).unwrap();
        assert_eq!(outcome.report.verdict, solo.verdict, "{prop}");
        outcome
            .legs
            .into_iter()
            .find(|l| l.engine == "gpo")
            .expect("gpo has a table row")
    };
    let property = Property::parse("AG !deadlock").unwrap();
    let row = race(&property, &fast_opts());
    assert_eq!(row.outcome, "not-launched", "{row:?}");
    assert!(row.why.contains("same search as leg `po`"), "{row:?}");
    assert_eq!(row.attempts, 0, "{row:?}");

    let without_po = PortfolioOptions {
        stages: vec![vec!["gpo".into()], vec!["full".into()]],
        ..fast_opts()
    };
    let row = race(&property, &without_po);
    assert!(row.attempts >= 1, "{row:?}");
    // po in a later stage does not stand in for gpo's earlier start
    let po_later = PortfolioOptions {
        stages: vec![vec!["gpo".into()], vec!["po".into()]],
        ..fast_opts()
    };
    let row = race(&property, &po_later);
    assert!(row.attempts >= 1, "{row:?}");
    assert_ne!(row.outcome, "not-launched", "{row:?}");
    let row = race(&Property::deadlock(), &fast_opts());
    assert!(row.attempts >= 1, "{row:?}");
}

/// A fabricated disagreement (one leg's sound verdict flipped) must fail
/// closed with a diagnostic naming the flipped engine — never silently
/// pick a side.
#[test]
fn fabricated_disagreement_fails_closed() {
    let net = models::nsdp(3);
    let opts = PortfolioOptions {
        inject_flip: Some("po".to_string()),
        ..fast_opts()
    };
    let err = run_portfolio(
        &net,
        None,
        "",
        &spec("auto", &Property::deadlock()),
        &Budget::default(),
        &CheckpointConfig::default(),
        None,
        &opts,
    )
    .expect_err("a flipped verdict must not resolve the race");
    assert!(err.contains("disagreement"), "{err}");
    assert!(err.contains("`po`"), "{err}");
}

/// When every leg exhausts its budget, the portfolio degrades to the
/// best partial result — reported honestly as inconclusive.
#[test]
fn exhausted_portfolio_degrades_to_best_partial() {
    let net = models::nsdp(6);
    let opts = PortfolioOptions {
        // explicit engines only: both provably exhaust a 10-state budget
        stages: vec![vec!["po".into()], vec!["full".into()]],
        ..fast_opts()
    };
    let outcome = run_portfolio(
        &net,
        None,
        "",
        &spec("auto", &Property::parse("AG !deadlock").unwrap()),
        &Budget::default().cap_states(10),
        &CheckpointConfig::default(),
        None,
        &opts,
    )
    .expect("exhaustion degrades, it does not error");
    assert!(
        !outcome.report.verdict.is_sound(),
        "10 states cannot settle nsdp(6): {:?}",
        outcome.report.verdict
    );
    assert!(outcome.report.exhausted.is_some());
    for row in &outcome.legs {
        assert_eq!(row.outcome, "partial", "{row:?}");
    }
}
