//! Generic finite automata.
//!
//! The static analyses of *Secure and Unfailing Services* reduce security
//! (§3.1) to emptiness and inclusion questions on finite automata over
//! events. This crate provides that machinery, used by the policy
//! automata (`sufs-policy`'s automata bridge) and lint's policy
//! subsumption:
//!
//! * [`nfa::Nfa`] — nondeterministic finite automata over an arbitrary
//!   symbol type, with subset construction;
//! * [`dfa::Dfa`] — deterministic automata with product, complement,
//!   emptiness (with witness words), Hopcroft minimisation and language
//!   equivalence;
//! * [`dot`] — Graphviz rendering for debugging and documentation.
//!
//! Transition systems given by a successor function — the LTS of a
//! history expression, the contract product of Definition 5 and the
//! symbolic state space of a plan — are not built here but by the one
//! bounded explorer `sufs_hexpr::lts::Lts::search`, which every crate
//! that builds them already depends on. Searches that stop at their
//! first find (the security product walk, the joint-deadlock search)
//! break out of the same loop; only the independent oracles
//! `find_stuck` and `compliant_coinductive` keep loops of their own.
//!
//! # Example
//!
//! ```
//! use sufs_automata::nfa::Nfa;
//!
//! // An NFA accepting words containing "ab".
//! let mut n = Nfa::new();
//! let q0 = n.add_state();
//! let q1 = n.add_state();
//! let q2 = n.add_state();
//! n.set_start(q0);
//! n.set_final(q2);
//! n.add_transition(q0, 'a', q0);
//! n.add_transition(q0, 'b', q0);
//! n.add_transition(q0, 'a', q1);
//! n.add_transition(q1, 'b', q2);
//! n.add_transition(q2, 'a', q2);
//! n.add_transition(q2, 'b', q2);
//! assert!(n.accepts("xaby".chars().filter(|c| *c == 'a' || *c == 'b')));
//! let d = n.determinize();
//! assert!(d.accepts("aab".chars()));
//! assert!(!d.accepts("ba".chars()));
//! ```

#![warn(missing_docs)]

pub mod dfa;
pub mod dot;
pub mod nfa;

pub use dfa::Dfa;
pub use nfa::Nfa;

/// The trait bound every automaton symbol must satisfy.
///
/// This is a blanket-implemented alias; never implement it manually.
pub trait Symbol: Clone + Eq + std::hash::Hash + Ord {}

impl<T: Clone + Eq + std::hash::Hash + Ord> Symbol for T {}
