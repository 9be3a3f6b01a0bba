//! `SUFS003` — policies made redundant by stricter ones.
//!
//! Over the scenario's ground alphabet each instantiated policy denotes
//! a regular language of forbidden traces. If `L(φ_b) ⊆ L(φ_a)`
//! properly, everything `φ_b` forbids is already forbidden by `φ_a`, so
//! enforcing `φ_b` alongside `φ_a` adds nothing; language-equal pairs
//! are reported once. Vacuous instances (empty language, reported by
//! `SUFS002`) are skipped — the empty language is trivially contained
//! in everything.

use sufs_automata::Dfa;
use sufs_hexpr::Event;
use sufs_policy::automata_bridge::to_dfa;

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};
use crate::passes::{Dep, Pass};

/// The `policy-subsumption` pass.
pub struct PolicySubsumption;

impl Pass for PolicySubsumption {
    fn code(&self) -> Code {
        Code::PolicySubsumption
    }

    fn description(&self) -> &'static str {
        "instantiated policies whose forbidden language is contained in another's"
    }

    fn deps(&self) -> &'static [Dep] {
        // Languages are compared over the alphabet; the references
        // (with their origins) resolve against the registry.
        &[Dep::Vocabulary, Dep::Policies]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        // Materialise the DFA of every resolvable, non-vacuous instance.
        let mut dfas: Vec<(&crate::context::PolicyOrigin, Dfa<Event>)> = Vec::new();
        for origin in &ctx.policy_refs {
            let Ok(instance) = ctx.registry().instantiate(&origin.reference) else {
                continue;
            };
            let dfa = to_dfa(&instance, &ctx.alphabet);
            if dfa.language_is_empty() {
                continue;
            }
            dfas.push((origin, dfa));
        }

        let mut out = Vec::new();
        for i in 0..dfas.len() {
            for j in 0..dfas.len() {
                if i == j {
                    continue;
                }
                let (a, dfa_a) = &dfas[i];
                let (b, dfa_b) = &dfas[j];
                // L(b) ⊆ L(a) ⟺ L(b) ∩ ¬L(a) = ∅.
                let b_in_a = dfa_b.intersect(&dfa_a.complement()).language_is_empty();
                if !b_in_a {
                    continue;
                }
                let a_in_b = dfa_a.intersect(&dfa_b.complement()).language_is_empty();
                if a_in_b {
                    // Language-equal: report once, against the later
                    // occurrence so the first-declared instance survives.
                    if i < j {
                        out.push(
                            Diagnostic::new(
                                Code::PolicySubsumption,
                                ctx.policy_pos(b.reference.name(), Some(b.pos)),
                                format!("policy {}", b.reference),
                                format!(
                                    "forbids exactly the same traces as {} over the scenario's \
                                     alphabet",
                                    a.reference
                                ),
                            )
                            .with_note(format!(
                                "instantiated in {}; the two instantiations are interchangeable",
                                b.subject
                            )),
                        );
                    }
                } else {
                    // Proper containment: b is the redundant (weaker) one.
                    let mut d = Diagnostic::new(
                        Code::PolicySubsumption,
                        ctx.policy_pos(b.reference.name(), Some(b.pos)),
                        format!("policy {}", b.reference),
                        format!(
                            "is subsumed by {}: every trace it forbids is already forbidden \
                             by the stricter instantiation",
                            a.reference
                        ),
                    )
                    .with_note(format!(
                        "instantiated in {}; a plan valid under {} is automatically valid \
                         under this policy",
                        b.subject, a.reference
                    ));
                    // A trace the stricter policy forbids on top: shows
                    // the containment is proper.
                    if let Some(extra) = dfa_a.intersect(&dfa_b.complement()).shortest_accepted() {
                        d = d.with_witness(extra.iter().map(|e| e.to_string()).collect());
                    }
                    out.push(d);
                }
            }
        }
        out
    }
}
