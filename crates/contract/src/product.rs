//! The product automaton `H₁! ⊗ H₂!` of Definition 5.
//!
//! States are pairs of contract states; the alphabet is `{τ}` (every
//! transition is a synchronisation); **final states are the stuck
//! configurations**, reached exactly when the two contracts are not
//! compliant. Theorem 1: `H₁ ⊢ H₂` iff the product's language is empty,
//! i.e. no final state is reachable.

use std::fmt;

use crate::contract::Contract;
use sufs_hexpr::{Channel, Dir, Hist, Lts};

/// Why a product state is stuck (final).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StuckReason {
    /// Condition (i) fails: neither party offers an output — both are
    /// waiting on inputs (or the server terminated while the client did
    /// not).
    BothAwaitingInput,
    /// Condition (ii) fails: a party is ready to send an output that the
    /// other cannot receive.
    UnmatchedOutput {
        /// The channels offered as outputs with no matching input.
        channels: Vec<Channel>,
    },
}

impl fmt::Display for StuckReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckReason::BothAwaitingInput => {
                write!(f, "no party can send: all are waiting on inputs")
            }
            StuckReason::UnmatchedOutput { channels } => {
                write!(f, "unmatched output(s):")?;
                for c in channels {
                    write!(f, " {c}!")?;
                }
                Ok(())
            }
        }
    }
}

/// A witness that two contracts are not compliant: a path of
/// synchronisations from the initial pair to a stuck pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckWitness {
    /// The synchronised actions along the path, from the **client's**
    /// perspective (`Dir::Out` = the client sent).
    pub path: Vec<(Channel, Dir)>,
    /// The client's residual contract at the stuck pair.
    pub client: Contract,
    /// The server's residual contract at the stuck pair.
    pub server: Contract,
    /// Why the pair is stuck.
    pub reason: StuckReason,
}

impl fmt::Display for StuckWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "after [")?;
        for (i, (c, d)) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match d {
                Dir::Out => write!(f, "{c}!")?,
                Dir::In => write!(f, "{c}?")?,
            }
        }
        write!(
            f,
            "] client `{}` and server `{}` are stuck: {}",
            self.client, self.server, self.reason
        )
    }
}

/// The product automaton of two contracts (Definition 5), built by the
/// one explorer ([`Lts::explore`]).
#[derive(Debug, Clone)]
pub struct ProductAutomaton {
    /// Pairs of contract states; τ-edges annotated with the synchronised
    /// channel and the direction from the client's perspective.
    lts: Lts<(Hist, Hist), (Channel, Dir)>,
    /// Why each state is stuck, if it is final.
    finals: Vec<Option<StuckReason>>,
}

impl ProductAutomaton {
    /// Builds the reachable part of `client ⊗ server`.
    ///
    /// The product of two finite-state contracts has at most `n·m`
    /// states, so construction always terminates.
    pub fn build(client: &Contract, server: &Contract) -> ProductAutomaton {
        let start = (client.hist().clone(), server.hist().clone());
        let mut finals = Vec::new();
        // The explorer visits states once each in id order, so `finals`
        // is indexed by state id.
        let lts = Lts::explore(start, usize::MAX, |(h1, h2)| {
            let steps1 = Contract::wrap(h1.clone()).steps();
            let steps2 = Contract::wrap(h2.clone()).steps();
            let reason = stuck_reason(h1, &steps1, &steps2);
            let mut out = Vec::new();
            if reason.is_none() {
                // δ is only defined from non-final states.
                for ((chan1, dir1), next1) in &steps1 {
                    for ((chan2, dir2), next2) in &steps2 {
                        if chan1 == chan2 && *dir1 == dir2.co() {
                            let next = (next1.hist().clone(), next2.hist().clone());
                            out.push(((chan1.clone(), *dir1), next));
                        }
                    }
                }
            }
            finals.push(reason);
            out
        })
        .expect("the product of two finite-state contracts is finite");
        ProductAutomaton { lts, finals }
    }

    /// The number of reachable product states.
    pub fn len(&self) -> usize {
        self.lts.len()
    }

    /// Returns `true` if the product has no states (never happens).
    pub fn is_empty(&self) -> bool {
        self.lts.is_empty()
    }

    /// The initial state id (always `0`).
    pub fn initial(&self) -> usize {
        0
    }

    /// The pair of residual contracts at state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: usize) -> (Contract, Contract) {
        let (h1, h2) = self.lts.state(id);
        (Contract::wrap(h1.clone()), Contract::wrap(h2.clone()))
    }

    /// Returns `true` if state `id` is final (stuck).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_final(&self, id: usize) -> bool {
        self.finals[id].is_some()
    }

    /// The τ-edges out of `id`, annotated with the synchronised channel.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edges(&self, id: usize) -> &[((Channel, Dir), usize)] {
        self.lts.edges(id)
    }

    /// The ids of all final (stuck) states.
    pub fn final_states(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.is_final(i)).collect()
    }

    /// Theorem 1's check: the language is empty iff no final state is
    /// reachable (all states here are reachable by construction).
    pub fn language_is_empty(&self) -> bool {
        self.finals.iter().all(Option::is_none)
    }

    /// A shortest path to a stuck state, or `None` if the contracts are
    /// compliant: the first final state in breadth-first order, with its
    /// recorded path.
    pub fn stuck_witness(&self) -> Option<StuckWitness> {
        let (id, reason) = (self.finals.iter().enumerate())
            .find_map(|(id, reason)| Some((id, reason.as_ref()?)))?;
        let (client, server) = self.state(id);
        Some(StuckWitness {
            path: self.lts.path_to(id),
            client,
            server,
            reason: reason.clone(),
        })
    }

    /// Renders the product in Graphviz DOT format; stuck states are
    /// double circles.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph product {\n  rankdir=LR;\n");
        for i in 0..self.len() {
            let shape = if self.is_final(i) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(s, "  q{i} [shape={shape}];");
        }
        for (i, (c, d), t) in self.lts.iter_edges() {
            let arrow = match d {
                Dir::Out => "!",
                Dir::In => "?",
            };
            let _ = writeln!(s, "  q{i} -> q{t} [label=\"τ({c}{arrow})\"];");
        }
        s.push_str("}\n");
        s
    }
}

/// Classifies a pair of contract states, given by the client state
/// and both parties' steps, per Definition 5's final-state conditions;
/// `None` means not stuck.
fn stuck_reason(
    h1: &Hist,
    steps1: &[((Channel, Dir), Contract)],
    steps2: &[((Channel, Dir), Contract)],
) -> Option<StuckReason> {
    if h1.is_eps() {
        return None; // the client terminated: success, never final
    }
    let outs1: Vec<&Channel> = steps1
        .iter()
        .filter(|((_, d), _)| *d == Dir::Out)
        .map(|((c, _), _)| c)
        .collect();
    let outs2: Vec<&Channel> = steps2
        .iter()
        .filter(|((_, d), _)| *d == Dir::Out)
        .map(|((c, _), _)| c)
        .collect();
    // Condition (i): some party offers an output.
    if outs1.is_empty() && outs2.is_empty() {
        return Some(StuckReason::BothAwaitingInput);
    }
    // Condition (ii): every offered output has a matching input.
    let ins1: Vec<&Channel> = steps1
        .iter()
        .filter(|((_, d), _)| *d == Dir::In)
        .map(|((c, _), _)| c)
        .collect();
    let ins2: Vec<&Channel> = steps2
        .iter()
        .filter(|((_, d), _)| *d == Dir::In)
        .map(|((c, _), _)| c)
        .collect();
    let mut unmatched: Vec<Channel> = Vec::new();
    for o in outs1 {
        if !ins2.contains(&o) {
            unmatched.push(o.clone());
        }
    }
    for o in outs2 {
        if !ins1.contains(&o) {
            unmatched.push(o.clone());
        }
    }
    if unmatched.is_empty() {
        None
    } else {
        unmatched.sort_unstable();
        unmatched.dedup();
        Some(StuckReason::UnmatchedOutput {
            channels: unmatched,
        })
    }
}

impl Contract {
    /// Internal: wraps a contract state reached by stepping a validated
    /// contract, skipping re-validation (the fragment is closed under
    /// transitions).
    pub(crate) fn wrap(h: Hist) -> Contract {
        // SAFETY of the invariant: only called on states produced by
        // stepping validated contracts.
        Contract::new_unchecked(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::parse_hist;

    fn c(src: &str) -> Contract {
        Contract::new(parse_hist(src).unwrap()).unwrap()
    }

    #[test]
    fn matching_send_receive_is_compliant() {
        let client = c("int[req -> ext[ok -> eps]]");
        let server = c("ext[req -> int[ok -> eps]]");
        let p = ProductAutomaton::build(&client, &server);
        assert!(p.language_is_empty());
        assert!(p.stuck_witness().is_none());
        assert_eq!(p.len(), 3); // (start, after req, after ok)
        assert!(!p.is_empty());
    }

    #[test]
    fn unmatched_output_is_stuck() {
        // Server may send `del`, client cannot receive it — the paper's
        // S2-vs-broker scenario in miniature.
        let client = c("int[req -> ext[ok -> eps | no -> eps]]");
        let server = c("ext[req -> int[ok -> eps | no -> eps | del -> eps]]");
        let p = ProductAutomaton::build(&client, &server);
        assert!(!p.language_is_empty());
        let w = p.stuck_witness().unwrap();
        assert_eq!(w.path, vec![(Channel::new("req"), Dir::Out)]);
        assert_eq!(
            w.reason,
            StuckReason::UnmatchedOutput {
                channels: vec![Channel::new("del")]
            }
        );
        assert!(w.to_string().contains("del!"));
    }

    #[test]
    fn both_waiting_is_stuck() {
        let client = c("ext[a -> eps]");
        let server = c("ext[b -> eps]");
        let p = ProductAutomaton::build(&client, &server);
        let w = p.stuck_witness().unwrap();
        assert_eq!(w.reason, StuckReason::BothAwaitingInput);
        assert!(w.path.is_empty());
    }

    #[test]
    fn client_termination_is_success() {
        // Client finishes while the server still waits: fine.
        let client = c("int[msg -> eps]");
        let server = c("ext[msg -> ext[more -> eps]]");
        let p = ProductAutomaton::build(&client, &server);
        assert!(p.language_is_empty());
    }

    #[test]
    fn server_unmatched_output_after_client_done_is_fine() {
        // ⟨ε, ā⟩ is not final per Definition 5 (H1 = ε).
        let client = c("int[msg -> eps]");
        let server = c("ext[msg -> int[bye -> eps]]");
        let p = ProductAutomaton::build(&client, &server);
        assert!(p.language_is_empty());
    }

    #[test]
    fn recursion_loops_forever_compliantly() {
        let client = c("mu h. int[ping -> ext[pong -> h]]");
        let server = c("mu k. ext[ping -> int[pong -> k]]");
        let p = ProductAutomaton::build(&client, &server);
        assert!(p.language_is_empty());
        assert_eq!(p.len(), 2);
        // The product cycles: every state has an outgoing edge.
        for i in 0..p.len() {
            assert!(!p.edges(i).is_empty());
        }
    }

    #[test]
    fn deep_stuck_state_found_with_shortest_path() {
        // Compliant for two rounds, then the server wants `del`.
        let client = c("int[a -> ext[b -> int[a -> ext[b -> eps]]]]");
        let server = c("ext[a -> int[b -> ext[a -> int[del -> eps]]]]");
        let p = ProductAutomaton::build(&client, &server);
        let w = p.stuck_witness().unwrap();
        assert_eq!(w.path.len(), 3);
        assert!(matches!(w.reason, StuckReason::UnmatchedOutput { .. }));
    }

    #[test]
    fn internal_choice_requires_all_branches_received() {
        // Server picks freely between ok/no; client handles both: fine.
        let client = c("ext[ok -> eps | no -> eps]");
        let server = c("int[ok -> eps | no -> eps]");
        assert!(ProductAutomaton::build(&client, &server).language_is_empty());
        // Client handles only ok: the `no` branch has no receiver.
        let client2 = c("ext[ok -> eps]");
        let p = ProductAutomaton::build(&client2, &server);
        let w = p.stuck_witness().unwrap();
        assert_eq!(
            w.reason,
            StuckReason::UnmatchedOutput {
                channels: vec![Channel::new("no")]
            }
        );
    }

    #[test]
    fn external_choice_needs_only_one_branch_served() {
        // Client offers a+b, server sends b̄ only: fine (external choice
        // is driven by the message received).
        let client = c("ext[a -> eps | b -> eps]");
        let server = c("int[b -> eps]");
        assert!(ProductAutomaton::build(&client, &server).language_is_empty());
    }

    #[test]
    fn dot_rendering_marks_stuck_states() {
        let p = ProductAutomaton::build(&c("ext[a -> eps]"), &c("ext[b -> eps]"));
        let dot = p.to_dot();
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn final_states_listed() {
        let p = ProductAutomaton::build(&c("ext[a -> eps]"), &c("ext[b -> eps]"));
        assert_eq!(p.final_states(), vec![0]);
        assert!(p.is_final(0));
        let (cl, sv) = p.state(0);
        assert!(!cl.is_eps());
        assert!(!sv.is_eps());
    }
}
