//! Parametric usage automata (Bartoletti \[3\], used by the paper as the
//! policy language, e.g. the automaton `φ(bl, p, t)` of Fig. 1).
//!
//! A usage automaton is a finite automaton whose transitions are labelled
//! by an event name and a [`Guard`] over the event's arguments and the
//! automaton's formal parameters. Following the *default-accept*
//! discipline, its final states accept exactly the **forbidden** traces:
//! a history respects the policy iff the automaton never reaches a final
//! state on it. Events with no matching transition leave the state
//! unchanged (the implicit self-loops drawn as `*` in Fig. 1).

use std::fmt;
use std::ops::ControlFlow;

use crate::guard::Guard;
use sufs_hexpr::{EventName, Lts};

/// A named state of a usage automaton.
pub type StateId = usize;

/// One guarded transition of a usage automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageTransition {
    /// Source state.
    pub from: StateId,
    /// The event name the transition reacts to; `None` is a wildcard
    /// matching every event (the explicit `*` edges).
    pub event: Option<EventName>,
    /// The guard on the event's arguments.
    pub guard: Guard,
    /// Target state.
    pub to: StateId,
}

/// A parametric usage automaton: the policy `φ(params…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageAutomaton {
    name: String,
    params: Vec<String>,
    num_states: usize,
    start: StateId,
    finals: Vec<StateId>,
    transitions: Vec<UsageTransition>,
}

/// An error raised when assembling an ill-formed usage automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// A transition or marker refers to a state that was never added.
    UnknownState(StateId),
    /// A guard mentions a parameter not declared by the automaton.
    UndeclaredParam(String),
    /// The automaton has no states.
    NoStates,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownState(q) => write!(f, "unknown state q{q}"),
            UsageError::UndeclaredParam(p) => write!(f, "undeclared parameter {p}"),
            UsageError::NoStates => write!(f, "usage automaton has no states"),
        }
    }
}

impl std::error::Error for UsageError {}

/// A builder for [`UsageAutomaton`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct UsageBuilder {
    name: String,
    params: Vec<String>,
    num_states: usize,
    start: StateId,
    finals: Vec<StateId>,
    transitions: Vec<UsageTransition>,
}

impl UsageBuilder {
    /// Starts building an automaton called `name` with the given formal
    /// parameters.
    pub fn new<I, P>(name: impl Into<String>, params: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: Into<String>,
    {
        UsageBuilder {
            name: name.into(),
            params: params.into_iter().map(Into::into).collect(),
            num_states: 0,
            start: 0,
            finals: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds a state; the first state added is the start state by default.
    pub fn state(&mut self) -> StateId {
        let id = self.num_states;
        self.num_states += 1;
        id
    }

    /// Overrides the start state.
    pub fn start(&mut self, q: StateId) -> &mut Self {
        self.start = q;
        self
    }

    /// Marks a state as final ("offending": reached only by forbidden
    /// traces).
    pub fn offending(&mut self, q: StateId) -> &mut Self {
        self.finals.push(q);
        self
    }

    /// Adds a guarded transition on events named `event`.
    pub fn on(
        &mut self,
        from: StateId,
        event: impl Into<EventName>,
        guard: Guard,
        to: StateId,
    ) -> &mut Self {
        self.transitions.push(UsageTransition {
            from,
            event: Some(event.into()),
            guard,
            to,
        });
        self
    }

    /// Adds a wildcard transition firing on any event satisfying `guard`.
    pub fn on_any(&mut self, from: StateId, guard: Guard, to: StateId) -> &mut Self {
        self.transitions.push(UsageTransition {
            from,
            event: None,
            guard,
            to,
        });
        self
    }

    /// Finishes the automaton, validating state references and parameter
    /// usage.
    ///
    /// # Errors
    ///
    /// Returns a [`UsageError`] if the automaton is ill-formed.
    pub fn build(&self) -> Result<UsageAutomaton, UsageError> {
        if self.num_states == 0 {
            return Err(UsageError::NoStates);
        }
        if self.start >= self.num_states {
            return Err(UsageError::UnknownState(self.start));
        }
        for &q in &self.finals {
            if q >= self.num_states {
                return Err(UsageError::UnknownState(q));
            }
        }
        for t in &self.transitions {
            if t.from >= self.num_states {
                return Err(UsageError::UnknownState(t.from));
            }
            if t.to >= self.num_states {
                return Err(UsageError::UnknownState(t.to));
            }
            for p in t.guard.params() {
                if !self.params.iter().any(|q| q == p) {
                    return Err(UsageError::UndeclaredParam(p.to_owned()));
                }
            }
        }
        Ok(UsageAutomaton {
            name: self.name.clone(),
            params: self.params.clone(),
            num_states: self.num_states,
            start: self.start,
            finals: self.finals.clone(),
            transitions: self.transitions.clone(),
        })
    }
}

impl UsageAutomaton {
    /// The policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The formal parameter names, in declaration order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The number of states.
    pub fn len(&self) -> usize {
        self.num_states
    }

    /// Returns `true` if the automaton has no states (never: `build`
    /// rejects that).
    pub fn is_empty(&self) -> bool {
        self.num_states == 0
    }

    /// The start state.
    pub fn start_state(&self) -> StateId {
        self.start
    }

    /// Returns `true` if `q` is an offending (final) state.
    pub fn is_offending(&self, q: StateId) -> bool {
        self.finals.contains(&q)
    }

    /// All transitions.
    pub fn transitions(&self) -> &[UsageTransition] {
        &self.transitions
    }

    /// A shortest *structural* path from the start state to an offending
    /// state, ignoring guard satisfiability: the sequence of transitions a
    /// forbidden trace would have to fire. `None` if no offending state is
    /// even graph-reachable — the policy cannot forbid anything.
    ///
    /// Used by diagnostics to explain *how* a policy would trip; whether
    /// the path is actually realisable by some system is a separate
    /// (language-level) question.
    pub fn structural_offending_path(&self) -> Option<Vec<&UsageTransition>> {
        let (graph, found) = Lts::search(self.start, self.num_states, |&q, out| {
            if self.is_offending(q) {
                return ControlFlow::Break(());
            }
            let from_q = self.transitions.iter().enumerate();
            out.extend(from_q.filter(|(_, t)| t.from == q).map(|(i, t)| (i, t.to)));
            ControlFlow::Continue(())
        })
        .expect("an automaton has `num_states` states");
        let (at, ()) = found?;
        Some(
            graph
                .path_to(at)
                .into_iter()
                .map(|i| &self.transitions[i])
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{CmpOp, Guard, Operand};

    #[test]
    fn builder_produces_valid_automaton() {
        let mut b = UsageBuilder::new("phi", ["bl", "p", "t"]);
        let q1 = b.state();
        let q2 = b.state();
        let q6 = b.state();
        b.on(q1, "sgn", Guard::NotInSet(0, "bl".into()), q2);
        b.on(q1, "sgn", Guard::InSet(0, "bl".into()), q6);
        b.offending(q6);
        let ua = b.build().unwrap();
        assert_eq!(ua.name(), "phi");
        assert_eq!(ua.params(), &["bl", "p", "t"]);
        assert_eq!(ua.len(), 3);
        assert_eq!(ua.start_state(), q1);
        assert!(ua.is_offending(q6));
        assert!(!ua.is_offending(q2));
        assert_eq!(ua.transitions().len(), 2);
        assert!(!ua.is_empty());
    }

    #[test]
    fn undeclared_param_rejected() {
        let mut b = UsageBuilder::new("phi", ["p"]);
        let q = b.state();
        b.on(q, "e", Guard::Cmp(0, CmpOp::Le, Operand::param("q")), q);
        assert_eq!(b.build(), Err(UsageError::UndeclaredParam("q".into())));
    }

    #[test]
    fn unknown_state_rejected() {
        let mut b = UsageBuilder::new("phi", Vec::<String>::new());
        let q = b.state();
        b.on(q, "e", Guard::True, 7);
        assert_eq!(b.build(), Err(UsageError::UnknownState(7)));
        let mut b2 = UsageBuilder::new("phi", Vec::<String>::new());
        b2.state();
        b2.offending(3);
        assert_eq!(b2.build(), Err(UsageError::UnknownState(3)));
    }

    #[test]
    fn no_states_rejected() {
        let b = UsageBuilder::new("phi", Vec::<String>::new());
        assert_eq!(b.build(), Err(UsageError::NoStates));
        assert_eq!(
            UsageError::NoStates.to_string(),
            "usage automaton has no states"
        );
    }

    #[test]
    fn wildcard_transitions() {
        let mut b = UsageBuilder::new("any", Vec::<String>::new());
        let q0 = b.state();
        let q1 = b.state();
        b.on_any(q0, Guard::True, q1);
        let ua = b.build().unwrap();
        assert_eq!(ua.transitions()[0].event, None);
    }
}
