//! The policy registry: resolves policy references `φ(v̄)` to runnable
//! instances.

use std::collections::BTreeMap;
use std::fmt;

use crate::instance::{InstantiationError, PolicyInstance};
use crate::usage::UsageAutomaton;
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::PolicyRef;

/// An error raised when resolving a [`PolicyRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// No automaton registered under the referenced name.
    Unknown(String),
    /// The automaton exists but the actual parameters do not fit.
    Instantiation(InstantiationError),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Unknown(name) => write!(f, "unknown policy {name}"),
            PolicyError::Instantiation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<InstantiationError> for PolicyError {
    fn from(e: InstantiationError) -> Self {
        PolicyError::Instantiation(e)
    }
}

/// A registry of named parametric usage automata.
///
/// # Examples
///
/// ```
/// use sufs_policy::{catalog, registry::PolicyRegistry};
/// use sufs_hexpr::{ParamValue, PolicyRef};
///
/// let mut reg = PolicyRegistry::new();
/// reg.register(catalog::hotel_policy());
/// let phi = PolicyRef::new("hotel", [
///     ParamValue::set([1i64]), ParamValue::int(45), ParamValue::int(100),
/// ]);
/// let inst = reg.instantiate(&phi)?;
/// assert_eq!(inst.reference(), &phi);
/// # Ok::<(), sufs_policy::registry::PolicyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PolicyRegistry {
    /// Each automaton under its name, with its fingerprint
    /// ([`PolicyRegistry::fingerprint_of`]), computed when it is
    /// registered.
    automata: BTreeMap<String, (UsageAutomaton, u64)>,
}

impl PolicyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry preloaded with every [`crate::catalog`] policy
    /// (the hotel policy plus `no_after("read","write")` under their
    /// catalogue names).
    pub fn with_catalog() -> Self {
        let mut reg = Self::new();
        reg.register(crate::catalog::hotel_policy());
        reg.register(crate::catalog::no_after("read", "write"));
        reg
    }

    /// Registers an automaton under its own name, replacing any previous
    /// automaton with that name (the old one is returned).
    pub fn register(&mut self, automaton: UsageAutomaton) -> Option<UsageAutomaton> {
        let fingerprint = Self::fingerprint_of(&automaton);
        self.automata
            .insert(automaton.name().to_owned(), (automaton, fingerprint))
            .map(|(old, _)| old)
    }

    /// The fingerprint of one automaton: the stable hash of its `Debug`
    /// rendering. `UsageAutomaton` has no `Hash`, but that rendering is
    /// a pure function of its fields.
    pub fn fingerprint_of(automaton: &UsageAutomaton) -> u64 {
        stable_hash_of(&format!("{automaton:?}"))
    }

    /// Looks up an automaton by name.
    pub fn get(&self, name: &str) -> Option<&UsageAutomaton> {
        self.automata.get(name).map(|(a, _)| a)
    }

    /// Unregisters the automaton with `name`, returning it if it was
    /// registered. Histories referencing a removed policy fail to
    /// resolve from then on, exactly like any other unknown policy.
    pub fn remove(&mut self, name: &str) -> Option<UsageAutomaton> {
        self.automata.remove(name).map(|(a, _)| a)
    }

    /// The number of registered automata.
    pub fn len(&self) -> usize {
        self.automata.len()
    }

    /// Returns `true` if no automata are registered.
    pub fn is_empty(&self) -> bool {
        self.automata.is_empty()
    }

    /// Resolves a policy reference to a runnable instance.
    ///
    /// # Errors
    ///
    /// [`PolicyError::Unknown`] if the name is unregistered,
    /// [`PolicyError::Instantiation`] on arity mismatch.
    pub fn instantiate(&self, reference: &PolicyRef) -> Result<PolicyInstance, PolicyError> {
        let ua = self
            .get(reference.name())
            .ok_or_else(|| PolicyError::Unknown(reference.name().to_owned()))?;
        Ok(PolicyInstance::new(ua.clone(), reference.clone())?)
    }

    /// Iterates over the registered automata in name order.
    pub fn iter(&self) -> impl Iterator<Item = &UsageAutomaton> {
        self.automata.values().map(|(a, _)| a)
    }

    /// The fingerprint of every registered automaton, in name order:
    /// [`PolicyRegistry::fingerprint_of`] of each, kept since it was
    /// registered, so reading them formats nothing.
    pub fn fingerprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.automata.values().map(|(_, fp)| *fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::guard::Guard;
    use crate::usage::UsageBuilder;
    use sufs_hexpr::ParamValue;

    #[test]
    fn register_and_lookup() {
        let mut reg = PolicyRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.register(catalog::hotel_policy()).is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.get("hotel").is_some());
        assert!(reg.get("nope").is_none());
        // Re-registering returns the old automaton.
        assert!(reg.register(catalog::hotel_policy()).is_some());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.iter().count(), 1);
    }

    #[test]
    fn unknown_policy_error() {
        let reg = PolicyRegistry::new();
        let err = reg.instantiate(&PolicyRef::nullary("ghost")).unwrap_err();
        assert_eq!(err, PolicyError::Unknown("ghost".into()));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn arity_error_is_propagated() {
        let mut reg = PolicyRegistry::new();
        reg.register(catalog::hotel_policy());
        let bad = PolicyRef::new("hotel", [ParamValue::int(45)]);
        let err = reg.instantiate(&bad).unwrap_err();
        assert!(matches!(err, PolicyError::Instantiation(_)));
    }

    /// The fingerprints kept at mutation time equal freshly computed ones.
    fn assert_fingerprints_fresh(reg: &PolicyRegistry) {
        let fresh: Vec<u64> = reg
            .iter()
            .map(|a| stable_hash_of(&format!("{a:?}")))
            .collect();
        assert_eq!(reg.fingerprints().collect::<Vec<_>>(), fresh);
    }

    #[test]
    fn fingerprints_are_kept_current_by_every_mutation() {
        let mut reg = PolicyRegistry::new();
        assert_fingerprints_fresh(&reg);
        reg.register(catalog::hotel_policy());
        reg.register(catalog::blacklist("access"));
        assert_fingerprints_fresh(&reg);
        // Replacing an automaton under the same name re-fingerprints it.
        let before: Vec<u64> = reg.fingerprints().collect();
        let tiny = |event: &str| {
            let mut b = UsageBuilder::new("hotel", Vec::<String>::new());
            let (q0, bad) = (b.state(), b.state());
            b.on(q0, event, Guard::True, bad).offending(bad);
            b.build().unwrap()
        };
        assert!(reg.register(tiny("read")).is_some());
        assert_fingerprints_fresh(&reg);
        assert_ne!(reg.fingerprints().collect::<Vec<_>>(), before);
        let replaced: Vec<u64> = reg.fingerprints().collect();
        assert!(reg.register(tiny("write")).is_some());
        assert_fingerprints_fresh(&reg);
        assert_ne!(reg.fingerprints().collect::<Vec<_>>(), replaced);
        assert!(reg.remove("hotel").is_some());
        assert_fingerprints_fresh(&reg);
        assert!(reg.remove("hotel").is_none());
        assert_fingerprints_fresh(&reg);
        assert_eq!(reg.fingerprints().count(), 1);
    }

    #[test]
    fn with_catalog_is_preloaded() {
        let reg = PolicyRegistry::with_catalog();
        assert!(reg.get("hotel").is_some());
        assert!(reg.get("no_write_after_read").is_some());
    }
}
