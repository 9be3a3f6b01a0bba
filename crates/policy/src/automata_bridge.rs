//! Bridging policy instances to the generic automata substrate: over a
//! *finite ground alphabet* (the events a system can actually fire — a
//! finite set, since services are finite syntax), an instantiated usage
//! automaton denotes an ordinary regular language of forbidden traces.
//!
//! This enables the standard automata toolbox on policies:
//!
//! * [`to_nfa`] / [`to_dfa`] — export the instance's forbidden-trace
//!   language over the given alphabet;
//! * [`subsumes`] — policy implication: `φ₁` subsumes `φ₂` (over an
//!   alphabet) when every trace forbidden by `φ₂` is already forbidden
//!   by `φ₁`, i.e. `L(φ₂) ⊆ L(φ₁)`. A plan verified under a subsuming
//!   (stricter) policy therefore stays valid under the subsumed one;
//! * [`equivalent`] — language equality of two instances.

use crate::instance::PolicyInstance;
use sufs_automata::{Dfa, Nfa};
use sufs_hexpr::{Event, Lts};

/// Exports the forbidden-trace language of a policy instance as an NFA
/// over the given ground alphabet.
///
/// Trap-style completion is preserved: once offending, every extension
/// is offending (matching [`PolicyInstance::forbids`]'s prefix check, a
/// state that offends gains self-loops on the whole alphabet).
pub fn to_nfa(instance: &PolicyInstance, alphabet: &[Event]) -> Nfa<Event> {
    // Subset-construct over the instance's own state sets, which keeps
    // the default self-loop semantics exact. Offending is absorbing for
    // `forbids`: an offending set loops on the whole alphabet.
    let sets = Lts::explore(instance.initial(), usize::MAX, |set| {
        let absorbing = instance.offends(set);
        alphabet
            .iter()
            .map(|e| {
                (
                    e,
                    if absorbing {
                        set.clone()
                    } else {
                        instance.step(set, e)
                    },
                )
            })
            .collect()
    })
    .expect("a finite automaton has finitely many state sets");
    let mut nfa = Nfa::new();
    for id in 0..sets.len() {
        nfa.add_state();
        if instance.offends(sets.state(id)) {
            nfa.set_final(id);
        }
    }
    nfa.set_start(sets.initial());
    for (from, e, to) in sets.iter_edges() {
        nfa.add_transition(from, (*e).clone(), to);
    }
    nfa
}

/// Exports the forbidden-trace language as a DFA (the construction of
/// [`to_nfa`] is already deterministic; this determinises and completes
/// it for the boolean operations).
pub fn to_dfa(instance: &PolicyInstance, alphabet: &[Event]) -> Dfa<Event> {
    to_nfa(instance, alphabet).determinize().complete()
}

/// Policy implication over a ground alphabet: `stricter` subsumes
/// `weaker` iff every trace forbidden by `weaker` is forbidden by
/// `stricter` (`L(weaker) ⊆ L(stricter)`).
pub fn subsumes(stricter: &PolicyInstance, weaker: &PolicyInstance, alphabet: &[Event]) -> bool {
    let s = to_dfa(stricter, alphabet);
    let w = to_dfa(weaker, alphabet);
    // L(w) ⊆ L(s)  ⟺  L(w) ∩ ¬L(s) = ∅
    w.intersect(&s.complement()).language_is_empty()
}

/// Language equality of two instances over a ground alphabet.
pub fn equivalent(a: &PolicyInstance, b: &PolicyInstance, alphabet: &[Event]) -> bool {
    to_dfa(a, alphabet).equivalent(&to_dfa(b, alphabet))
}

/// The ground event alphabet of a whole system: the union of the events
/// syntactically occurring in the given behaviours (e.g. a client plus
/// every published service) — the right alphabet for [`subsumes`] and
/// [`equivalent`] when comparing policies *for that system*.
pub fn system_alphabet<'a, I>(behaviours: I) -> Vec<Event>
where
    I: IntoIterator<Item = &'a sufs_hexpr::Hist>,
{
    let mut out = std::collections::BTreeSet::new();
    for h in behaviours {
        out.extend(h.events());
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::registry::PolicyRegistry;
    use sufs_hexpr::{ParamValue, PolicyRef};

    fn hotel_alphabet() -> Vec<Event> {
        let mut out = Vec::new();
        for id in 1..=4i64 {
            out.push(Event::new("sgn", [id]));
        }
        for p in [45i64, 50, 70, 90] {
            out.push(Event::new("p", [p]));
        }
        for t in [80i64, 90, 100] {
            out.push(Event::new("ta", [t]));
        }
        out
    }

    fn hotel_instance(bl: &[i64], p: i64, t: i64) -> PolicyInstance {
        let mut reg = PolicyRegistry::new();
        reg.register(catalog::hotel_policy());
        reg.instantiate(&PolicyRef::new(
            "hotel",
            [
                ParamValue::set(bl.to_vec()),
                ParamValue::int(p),
                ParamValue::int(t),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn exported_language_matches_forbids() {
        let inst = hotel_instance(&[1], 45, 100);
        let alphabet = hotel_alphabet();
        let dfa = to_dfa(&inst, &alphabet);
        // Exhaustively compare on all traces of length ≤ 2 plus the
        // paper's three-event hotel traces.
        let mut words: Vec<Vec<Event>> = vec![vec![]];
        for a in &alphabet {
            words.push(vec![a.clone()]);
            for b in &alphabet {
                words.push(vec![a.clone(), b.clone()]);
            }
        }
        for (id, p, t) in [
            (1i64, 45i64, 80i64),
            (2, 70, 100),
            (3, 90, 100),
            (4, 50, 90),
        ] {
            words.push(vec![
                Event::new("sgn", [id]),
                Event::new("p", [p]),
                Event::new("ta", [t]),
            ]);
        }
        for w in words {
            assert_eq!(
                dfa.accepts(w.iter().cloned()),
                inst.forbids(w.iter()),
                "disagreement on {w:?}"
            );
        }
    }

    #[test]
    fn larger_blacklist_subsumes_smaller() {
        let alphabet = hotel_alphabet();
        let strict = hotel_instance(&[1, 3], 45, 100);
        let lax = hotel_instance(&[1], 45, 100);
        assert!(subsumes(&strict, &lax, &alphabet));
        assert!(!subsumes(&lax, &strict, &alphabet));
    }

    #[test]
    fn threshold_monotonicity() {
        let alphabet = hotel_alphabet();
        // Lower price cap forbids more.
        let strict = hotel_instance(&[], 40, 100);
        let lax = hotel_instance(&[], 70, 100);
        assert!(subsumes(&strict, &lax, &alphabet));
        assert!(!subsumes(&lax, &strict, &alphabet));
        // Incomparable instantiations subsume in neither direction.
        let a = hotel_instance(&[1], 90, 80);
        let b = hotel_instance(&[2], 45, 100);
        assert!(!subsumes(&a, &b, &alphabet));
        assert!(!subsumes(&b, &a, &alphabet));
    }

    #[test]
    fn equivalence_is_instantiation_sensitive() {
        let alphabet = hotel_alphabet();
        let a = hotel_instance(&[1], 45, 100);
        let b = hotel_instance(&[1], 45, 100);
        assert!(equivalent(&a, &b, &alphabet));
        let c = hotel_instance(&[2], 45, 100);
        assert!(!equivalent(&a, &c, &alphabet));
        // Thresholds that no alphabet event distinguishes collapse: a
        // price cap of 44 and 40 behave identically on {45,50,70,90}.
        let d = hotel_instance(&[1], 44, 100);
        let e = hotel_instance(&[1], 40, 100);
        assert!(equivalent(&d, &e, &alphabet));
    }

    #[test]
    fn system_alphabet_collects_events() {
        use sufs_hexpr::parse_hist;
        let a = parse_hist("#sgn(1); ext[x -> #p(45)]").unwrap();
        let b = parse_hist("#sgn(1); #ta(80)").unwrap();
        let alpha = system_alphabet([&a, &b]);
        let names: Vec<String> = alpha.iter().map(|e| e.to_string()).collect();
        assert_eq!(names, vec!["#p(45)", "#sgn(1)", "#ta(80)"]);
        // Policy comparison over a system alphabet: with the paper's
        // hotel events from S1–S4 the blacklist ordering shows up.
        let strict = hotel_instance(&[1, 3], 45, 100);
        let lax = hotel_instance(&[1], 45, 100);
        let system: Vec<sufs_hexpr::Hist> = (1..=4i64)
            .map(|i| parse_hist(&format!("#sgn({i}); #p(50); #ta(90)")).unwrap())
            .collect();
        let alpha = system_alphabet(system.iter());
        assert!(subsumes(&strict, &lax, &alpha));
    }

    #[test]
    fn offending_is_absorbing_in_export() {
        let inst = hotel_instance(&[1], 45, 100);
        let alphabet = hotel_alphabet();
        let dfa = to_dfa(&inst, &alphabet);
        // Once black-listed, any continuation stays forbidden.
        let mut w = vec![Event::new("sgn", [1i64])];
        assert!(dfa.accepts(w.iter().cloned()));
        w.push(Event::new("p", [45i64]));
        w.push(Event::new("ta", [100i64]));
        assert!(dfa.accepts(w.iter().cloned()));
    }
}
