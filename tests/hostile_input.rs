//! Hostile-input tests for the four text parsers: `.net`, PNML,
//! properties and the JSON of `julie --json` / `julie serve`.
//!
//! Each test mutates valid inputs with a fixed-seed generator (flipping,
//! deleting, inserting, truncating and duplicating characters) and feeds
//! every mutant to its parser. Whatever the mutant, the parser must return
//! `Ok` or an error; it must never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gpo_suite::prelude::*;
use julie::json::Json;
use petri::{parse_pnml, Property};

/// Mutants generated per valid input.
const MUTANTS: usize = 1_500;

/// Characters a flip or an insertion draws from: the structural
/// characters of all four grammars, some letters and digits, whitespace,
/// and a few multi-byte and control characters.
const ALPHABET: &[char] = &[
    '<', '>', '/', '=', '"', '\'', '&', ';', '!', '?', '-', ':', '*', ',', '#', '(', ')', '[', ']',
    '{', '}', '\\', '.', '+', '|', 'a', 'e', 'p', 't', 'x', 'u', '0', '1', '9', ' ', '\n', '\t',
    '\r', '\0', 'é', '→', '\u{feff}',
];

/// xorshift64*: a tiny deterministic generator, so every run sees the
/// same mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One to four random edits of `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut s: Vec<char> = text.chars().collect();
    for _ in 0..=rng.below(4) {
        let i = rng.below(s.len() + 1);
        match rng.below(5) {
            0 if i < s.len() => s[i] = ALPHABET[rng.below(ALPHABET.len())],
            1 if i < s.len() => {
                let end = (i + 1 + rng.below(8)).min(s.len());
                s.drain(i..end);
            }
            2 => s.insert(i, ALPHABET[rng.below(ALPHABET.len())]),
            3 => s.truncate(i),
            _ => {
                let end = (i + 1 + rng.below(32)).min(s.len());
                let copy: Vec<char> = s[i.min(end)..end].to_vec();
                let at = rng.below(s.len() + 1);
                s.splice(at..at, copy);
            }
        }
    }
    s.into_iter().collect()
}

/// Feeds [`MUTANTS`] mutants of every input to `parse` and fails, naming
/// the first few inputs, if any of them panicked.
fn assert_never_panics(seed: u64, inputs: &[String], parse: impl Fn(&str)) {
    let mut rng = Rng(seed);
    let mut panicked = Vec::new();
    for input in inputs {
        for _ in 0..MUTANTS {
            let mutant = mutate(input, &mut rng);
            if catch_unwind(AssertUnwindSafe(|| parse(&mutant))).is_err() {
                panicked.push(mutant);
                if panicked.len() == 5 {
                    break;
                }
            }
        }
    }
    assert!(panicked.is_empty(), "parser panicked on {panicked:#?}");
}

fn zoo_texts() -> Vec<String> {
    let nets = [
        models::nsdp(3),
        models::asat(4),
        models::overtake(3),
        models::readers_writers(3),
        models::figures::fig2(3),
        models::figures::fig7(),
    ];
    nets.iter().map(to_text).collect()
}

#[test]
fn net_parser_never_panics() {
    assert_never_panics(0x6e65_7431, &zoo_texts(), |text| {
        let _ = parse_net(text);
    });
}

#[test]
fn pnml_parser_never_panics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let fixtures: Vec<String> = ["toggle", "fork-join", "handoff"]
        .iter()
        .map(|name| std::fs::read_to_string(format!("{dir}/{name}.pnml")).unwrap())
        .collect();
    assert_never_panics(0x706e_6d6c, &fixtures, |text| {
        let _ = parse_pnml(text);
    });
}

#[test]
fn property_parser_never_panics() {
    let net = models::nsdp(3);
    let properties = [
        "EF deadlock",
        "AG !deadlock",
        "AG (m(fork0) >= 1 or m(hasL0) = 1) and not fireable(takeLfirst0)",
        "EF m(eat0) = 1 && m(eat1) == 1 || !(m(think2) <= 0)",
        "AG m(hungry1) != 1 | fireable(takeRsecond2) & m(fork2) < 1",
    ]
    .map(String::from);
    assert_never_panics(0x7072_6f70, &properties, |text| {
        // a property that parses is also compiled against a net
        if let Ok(p) = Property::parse(text) {
            let _ = p.compile(&net);
        }
    });
}

#[test]
fn json_parser_never_panics() {
    let documents = [
        r#"{"net":"nsdp_3","engine":"po","property":"EF deadlock","verdict":"deadlock",
            "exit_code":1,"complete":true,"states":38,"budget":null,"details":{},
            "witnesses":[{"marking":"{hasL0, hasL1}","trace":null,"statically_lifted":false}]}"#,
        r#"[1, -2.5e3, 0.125, true, false, null, "esc \"q\" \\ \n é 😀 \u00e9 \ud83d\ude00",
            {"nested": [[], {}, [{"a": [1, 2, {"b": "c"}]}]]}]"#,
    ]
    .map(String::from);
    assert_never_panics(0x6a73_6f6e, &documents, |text| {
        let _ = Json::parse(text);
    });
}
