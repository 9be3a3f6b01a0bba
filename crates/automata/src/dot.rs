//! Graphviz DOT rendering of automata.

use std::fmt::Display;
use std::fmt::Write as _;

use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::Symbol;

/// Renders an NFA in DOT format. Final states are double circles; start
/// states get an incoming arrow from a point node.
pub fn nfa_to_dot<S: Symbol + Display>(nfa: &Nfa<S>) -> String {
    let mut out = String::from("digraph nfa {\n  rankdir=LR;\n  init [shape=point];\n");
    for q in 0..nfa.len() {
        let shape = if nfa.is_final(q) {
            "doublecircle"
        } else {
            "circle"
        };
        let _ = writeln!(out, "  q{q} [shape={shape}];");
    }
    for q in nfa.starts() {
        let _ = writeln!(out, "  init -> q{q};");
    }
    for q in 0..nfa.len() {
        for (s, t) in nfa.transitions_from(q) {
            let _ = writeln!(out, "  q{q} -> q{t} [label=\"{s}\"];");
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a DFA in DOT format.
pub fn dfa_to_dot<S: Symbol + Display>(dfa: &Dfa<S>) -> String {
    let mut out = String::from("digraph dfa {\n  rankdir=LR;\n  init [shape=point];\n");
    for q in 0..dfa.len() {
        let shape = if dfa.is_final(q) {
            "doublecircle"
        } else {
            "circle"
        };
        let _ = writeln!(out, "  q{q} [shape={shape}];");
    }
    if let Some(s) = dfa.start() {
        let _ = writeln!(out, "  init -> q{s};");
    }
    for q in 0..dfa.len() {
        for sym in dfa.alphabet().clone() {
            if let Some(t) = dfa.step(q, &sym) {
                let _ = writeln!(out, "  q{q} -> q{t} [label=\"{sym}\"];");
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfa_dot_structure() {
        let mut n: Nfa<char> = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_start(q0);
        n.set_final(q1);
        n.add_transition(q0, 'a', q1);
        let dot = nfa_to_dot(&n);
        assert!(dot.contains("q0 -> q1 [label=\"a\"]"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("init -> q0"));
    }

    #[test]
    fn dfa_dot_structure() {
        let mut d: Dfa<char> = Dfa::new(['a']);
        let q0 = d.add_state(false);
        let q1 = d.add_state(true);
        d.set_start(q0);
        d.add_transition(q0, 'a', q1);
        let dot = dfa_to_dot(&d);
        assert!(dot.contains("q0 -> q1 [label=\"a\"]"));
    }
}
