//! The global trusted repository `R = {ℓⱼ : Hⱼ | j ∈ J}` of published
//! services.
//!
//! Services in the repository are always available for joining sessions
//! and may replicate at will: every session opening instantiates a fresh
//! copy of the published behaviour.

use std::collections::BTreeMap;
use std::fmt;

use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::wf::{self, WfError};
use sufs_hexpr::{Hist, Location};

/// An error raised when publishing an ill-formed service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishError {
    /// The location the service was being published at.
    pub location: Location,
    /// The underlying well-formedness violation.
    pub error: WfError,
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot publish at {}: {}", self.location, self.error)
    }
}

impl std::error::Error for PublishError {}

/// One published service: its behaviour, its replication capacity and
/// the behaviour's fingerprint, hashed once when it is published.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Published {
    service: Hist,
    capacity: Option<usize>,
    /// `stable_hash_of(&service)`.
    fingerprint: u64,
}

/// A repository mutation, as observed by callers that need to react to
/// the repository changing under them (the broker's mutation replies
/// and journal, most prominently). Every mutating [`Repository`]
/// method returns the event it caused, so a host can forward it to
/// whatever bookkeeping depends on the touched location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoEvent {
    /// A service appeared at a previously empty location.
    Published(Location),
    /// The service at a location was replaced (behaviour or capacity).
    Updated(Location),
    /// The service at a location was withdrawn.
    Retracted(Location),
    /// A retract of a location that published nothing: a no-op.
    Absent(Location),
}

impl RepoEvent {
    /// Returns `true` when the event changed the repository at all.
    pub fn changed(&self) -> bool {
        !matches!(self, RepoEvent::Absent(_))
    }
}

impl fmt::Display for RepoEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoEvent::Published(l) => write!(f, "published {l}"),
            RepoEvent::Updated(l) => write!(f, "updated {l}"),
            RepoEvent::Retracted(l) => write!(f, "retracted {l}"),
            RepoEvent::Absent(l) => write!(f, "no service at {l}"),
        }
    }
}

/// The repository of published services.
///
/// By default services "replicate their code at will" (§2): every
/// session opening gets a fresh copy. The paper's §5 lists *bounded
/// availability* as an extension; [`Repository::publish_bounded`]
/// implements it — a service with capacity `n` joins at most `n`
/// concurrent sessions, and further openings wait until one closes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Repository {
    services: BTreeMap<Location, Published>,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a service at a location, replacing any previous one.
    /// The service may replicate without bound.
    ///
    /// The service is checked for well-formedness first.
    ///
    /// # Panics
    ///
    /// Panics if the service is ill-formed; use
    /// [`Repository::try_publish`] to handle the error.
    pub fn publish(&mut self, loc: impl Into<Location>, service: Hist) -> &mut Self {
        let loc = loc.into();
        self.try_publish(loc, service)
            .unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Publishes a service with a replication bound: at most `capacity`
    /// concurrent sessions (§5's bounded-availability extension).
    ///
    /// # Panics
    ///
    /// Panics if the service is ill-formed.
    pub fn publish_bounded(
        &mut self,
        loc: impl Into<Location>,
        service: Hist,
        capacity: usize,
    ) -> &mut Self {
        self.try_publish_bounded(loc, service, capacity)
            .unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Publishes a service, validating it. Returns the mutation event:
    /// [`RepoEvent::Published`] for a fresh location,
    /// [`RepoEvent::Updated`] when replacing an existing service.
    ///
    /// # Errors
    ///
    /// Returns a [`PublishError`] if the service is not well-formed; the
    /// repository is left untouched.
    pub fn try_publish(
        &mut self,
        loc: impl Into<Location>,
        service: Hist,
    ) -> Result<RepoEvent, PublishError> {
        self.insert_checked(loc.into(), service, None)
    }

    /// Fallible [`Repository::publish_bounded`]: publishes with a
    /// replication bound, returning the mutation event.
    ///
    /// # Errors
    ///
    /// Returns a [`PublishError`] if the service is not well-formed; the
    /// repository is left untouched.
    pub fn try_publish_bounded(
        &mut self,
        loc: impl Into<Location>,
        service: Hist,
        capacity: usize,
    ) -> Result<RepoEvent, PublishError> {
        self.insert_checked(loc.into(), service, Some(capacity))
    }

    fn insert_checked(
        &mut self,
        location: Location,
        service: Hist,
        capacity: Option<usize>,
    ) -> Result<RepoEvent, PublishError> {
        wf::check(&service).map_err(|error| PublishError {
            location: location.clone(),
            error,
        })?;
        let fingerprint = stable_hash_of(&service);
        let previous = self.services.insert(
            location.clone(),
            Published {
                service,
                capacity,
                fingerprint,
            },
        );
        Ok(match previous {
            Some(_) => RepoEvent::Updated(location),
            None => RepoEvent::Published(location),
        })
    }

    /// Withdraws the service at `loc`, if any. Sessions already joined
    /// with it are unaffected (they run on their own replicated copy);
    /// the location just stops being available for *new* openings.
    pub fn retract(&mut self, loc: &Location) -> RepoEvent {
        match self.services.remove(loc) {
            Some(_) => RepoEvent::Retracted(loc.clone()),
            None => RepoEvent::Absent(loc.clone()),
        }
    }

    /// Looks up the service published at `loc`.
    pub fn get(&self, loc: &Location) -> Option<&Hist> {
        self.services.get(loc).map(|p| &p.service)
    }

    /// The replication capacity of the service at `loc`: `Some(None)`
    /// for an unbounded published service, `Some(Some(n))` for a bounded
    /// one, `None` if nothing is published there.
    pub fn capacity(&self, loc: &Location) -> Option<Option<usize>> {
        self.services.get(loc).map(|p| p.capacity)
    }

    /// The published locations, in order.
    pub fn locations(&self) -> impl Iterator<Item = &Location> {
        self.services.keys()
    }

    /// Iterates over `(location, service)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Location, &Hist)> {
        self.services.iter().map(|(l, p)| (l, &p.service))
    }

    /// Iterates over the complete published state — `(location,
    /// service, capacity)` triples — for serialisation (the broker's
    /// durability snapshot, most prominently). Unlike
    /// [`Repository::iter`], this exposes the replication capacity so
    /// a restored repository is indistinguishable from the original.
    pub fn export(&self) -> impl Iterator<Item = (&Location, &Hist, Option<usize>)> {
        self.services
            .iter()
            .map(|(l, p)| (l, &p.service, p.capacity))
    }

    /// Iterates over `(location, behaviour fingerprint, capacity)`
    /// triples in location order. The fingerprint is the stable
    /// structural hash of the published service (`stable_hash_of`),
    /// computed once when the service is published, so reading it costs
    /// no walk of the service.
    pub fn fingerprints(&self) -> impl Iterator<Item = (&Location, u64, Option<usize>)> {
        self.services
            .iter()
            .map(|(l, p)| (l, p.fingerprint, p.capacity))
    }

    /// Restores one exported entry: publishes `service` at `loc` with
    /// the given optional capacity, running the same well-formedness
    /// check as any publish. The inverse of [`Repository::export`].
    ///
    /// # Errors
    ///
    /// Returns a [`PublishError`] if the service is not well-formed;
    /// the repository is left untouched.
    pub fn restore(
        &mut self,
        loc: impl Into<Location>,
        service: Hist,
        capacity: Option<usize>,
    ) -> Result<RepoEvent, PublishError> {
        self.insert_checked(loc.into(), service, capacity)
    }

    /// The number of published services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Returns `true` if nothing is published.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

impl fmt::Display for Repository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "repository ({} services):", self.len())?;
        for (loc, p) in &self.services {
            match p.capacity {
                Some(cap) => writeln!(f, "  {loc} (×{cap}): {}", p.service)?,
                None => writeln!(f, "  {loc}: {}", p.service)?,
            }
        }
        Ok(())
    }
}

impl FromIterator<(Location, Hist)> for Repository {
    fn from_iter<T: IntoIterator<Item = (Location, Hist)>>(iter: T) -> Self {
        let mut repo = Repository::new();
        for (loc, h) in iter {
            repo.publish(loc, h);
        }
        repo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::parse_hist;

    #[test]
    fn publish_and_get() {
        let mut repo = Repository::new();
        assert!(repo.is_empty());
        repo.publish("s1", parse_hist("ext[a -> eps]").unwrap());
        assert_eq!(repo.len(), 1);
        assert!(repo.get(&Location::new("s1")).is_some());
        assert!(repo.get(&Location::new("nope")).is_none());
        assert_eq!(repo.locations().count(), 1);
    }

    #[test]
    fn ill_formed_service_rejected() {
        let mut repo = Repository::new();
        let err = repo
            .try_publish("bad", parse_hist("mu h. h").unwrap())
            .unwrap_err();
        assert_eq!(err.location, Location::new("bad"));
        assert!(err.to_string().contains("bad"));
        assert!(repo.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot publish")]
    fn publish_panics_on_ill_formed() {
        Repository::new().publish("bad", parse_hist("mu h. h").unwrap());
    }

    #[test]
    fn mutation_events_track_publish_update_retract() {
        let mut repo = Repository::new();
        let ev = repo.try_publish("s", parse_hist("eps").unwrap()).unwrap();
        assert_eq!(ev, RepoEvent::Published(Location::new("s")));
        assert!(ev.changed());
        let ev = repo
            .try_publish("s", parse_hist("ext[a -> eps]").unwrap())
            .unwrap();
        assert_eq!(ev, RepoEvent::Updated(Location::new("s")));
        let ev = repo.retract(&Location::new("s"));
        assert_eq!(ev, RepoEvent::Retracted(Location::new("s")));
        assert!(repo.is_empty());
        let ev = repo.retract(&Location::new("s"));
        assert_eq!(ev, RepoEvent::Absent(Location::new("s")));
        assert!(!ev.changed());
        assert!(ev.to_string().contains("no service"));
    }

    #[test]
    fn try_publish_bounded_validates_and_records_capacity() {
        let mut repo = Repository::new();
        let ev = repo
            .try_publish_bounded("s", parse_hist("eps").unwrap(), 2)
            .unwrap();
        assert_eq!(ev, RepoEvent::Published(Location::new("s")));
        assert_eq!(repo.capacity(&Location::new("s")), Some(Some(2)));
        let err = repo
            .try_publish_bounded("bad", parse_hist("mu h. h").unwrap(), 1)
            .unwrap_err();
        assert_eq!(err.location, Location::new("bad"));
        // The failed publish left the repository untouched.
        assert_eq!(repo.len(), 1);
    }

    /// The fingerprints kept at mutation time equal freshly hashed ones.
    fn assert_fingerprints_fresh(repo: &Repository) {
        let kept: Vec<_> = repo
            .fingerprints()
            .map(|(l, fp, cap)| (l.clone(), fp, cap))
            .collect();
        let fresh: Vec<_> = repo
            .export()
            .map(|(l, service, cap)| (l.clone(), stable_hash_of(service), cap))
            .collect();
        assert_eq!(kept, fresh);
    }

    #[test]
    fn fingerprints_are_kept_current_by_every_mutation() {
        let h = |s: &str| parse_hist(s).unwrap();
        let mut repo = Repository::new();
        repo.publish("a", h("ext[a -> eps]"));
        assert_fingerprints_fresh(&repo);
        repo.publish("a", h("ext[b -> eps]"));
        assert_fingerprints_fresh(&repo);
        repo.publish_bounded("b", h("int[c -> eps]"), 2);
        assert_fingerprints_fresh(&repo);
        // A capacity-only republish keeps the behaviour fingerprint.
        let before = repo.fingerprints().nth(1).map(|(_, fp, _)| fp);
        repo.publish_bounded("b", h("int[c -> eps]"), 3);
        assert_fingerprints_fresh(&repo);
        assert_eq!(repo.fingerprints().nth(1).map(|(_, fp, _)| fp), before);
        repo.restore("c", h("#x; ext[a -> eps]"), Some(1)).unwrap();
        assert_fingerprints_fresh(&repo);
        repo.restore("c", h("ext[a -> eps]"), None).unwrap();
        assert_fingerprints_fresh(&repo);
        // A failed publish over an existing location leaves it as it was.
        let kept: Vec<_> = repo.fingerprints().map(|(_, fp, _)| fp).collect();
        assert!(repo.try_publish("a", h("mu h. h")).is_err());
        assert_eq!(
            repo.fingerprints().map(|(_, fp, _)| fp).collect::<Vec<_>>(),
            kept
        );
        assert_fingerprints_fresh(&repo);
        repo.retract(&Location::new("a"));
        assert_fingerprints_fresh(&repo);
        assert_eq!(repo.fingerprints().count(), 2);
    }

    #[test]
    fn from_iterator_and_display() {
        let repo: Repository = [
            (Location::new("a"), parse_hist("eps").unwrap()),
            (Location::new("b"), parse_hist("ext[x -> eps]").unwrap()),
        ]
        .into_iter()
        .collect();
        assert_eq!(repo.len(), 2);
        let s = repo.to_string();
        assert!(s.contains("a: eps"));
        assert!(s.contains("b: ext[x -> eps]"));
        assert_eq!(repo.iter().count(), 2);
    }
}
