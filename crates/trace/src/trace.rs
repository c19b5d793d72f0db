//! An in-memory reference trace.

use std::fmt;

use crate::{Access, AccessKind, PackedAccess};

/// An in-memory sequence of memory references, stored packed (4 bytes per
/// reference).
///
/// `Trace` is the container every simulator in the workspace consumes: the
/// paper's experiments run each benchmark's reference stream through many
/// cache configurations, so traces are generated once and replayed cheaply
/// via [`Trace::iter`].
///
/// # Examples
///
/// ```
/// use dynex_trace::{Access, Trace};
///
/// let mut trace = Trace::new();
/// trace.push(Access::fetch(0x100));
/// trace.push(Access::read(0x8000));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.iter().filter(|a| a.is_data()).count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<PackedAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty trace with room for `capacity` references.
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            accesses: Vec::with_capacity(capacity),
        }
    }

    /// Appends a reference.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(PackedAccess::pack(access));
    }

    /// Number of references in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns `true` if the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The reference at position `index`, if any.
    pub fn get(&self, index: usize) -> Option<Access> {
        self.accesses.get(index).map(|p| p.unpack())
    }

    /// Iterates over the references in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.accesses.iter(),
        }
    }

    /// The packed representation, for bulk IO.
    pub fn as_packed(&self) -> &[PackedAccess] {
        &self.accesses
    }

    /// Truncates the trace to at most `len` references.
    ///
    /// This is how experiments honour the paper's "first 10 million
    /// references" budget.
    pub fn truncate(&mut self, len: usize) {
        self.accesses.truncate(len);
    }

    /// Counts references of the given kind.
    pub fn count_kind(&self, kind: AccessKind) -> usize {
        self.iter().filter(|a| a.kind() == kind).count()
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Trace {
        Trace {
            accesses: iter.into_iter().map(PackedAccess::pack).collect(),
        }
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        self.accesses
            .extend(iter.into_iter().map(PackedAccess::pack));
    }
}

impl Extend<PackedAccess> for Trace {
    fn extend<I: IntoIterator<Item = PackedAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl FromIterator<PackedAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = PackedAccess>>(iter: I) -> Trace {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = Access;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace of {} references", self.len())
    }
}

/// Iterator over the references of a [`Trace`], unpacking on the fly.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: std::slice::Iter<'a, PackedAccess>,
}

impl Iterator for Iter<'_> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        self.inner.next().map(|p| p.unpack())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Access> {
        self.inner.next_back().map(|p| p.unpack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        [
            Access::fetch(0x1000),
            Access::fetch(0x1004),
            Access::read(0x8000),
            Access::write(0x8004),
            Access::fetch(0x1000),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn push_and_len() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(Access::fetch(4));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn iteration_preserves_order_and_content() {
        let t = sample();
        let v: Vec<Access> = t.iter().collect();
        assert_eq!(v.len(), 5);
        assert_eq!(v[0], Access::fetch(0x1000));
        assert_eq!(v[3], Access::write(0x8004));
        assert_eq!(v[4], Access::fetch(0x1000));
    }

    #[test]
    fn get_and_out_of_range() {
        let t = sample();
        assert_eq!(t.get(2), Some(Access::read(0x8000)));
        assert_eq!(t.get(99), None);
    }

    #[test]
    fn count_kind_matches_filter() {
        let t = sample();
        assert_eq!(t.count_kind(AccessKind::Fetch), 3);
        assert_eq!(t.count_kind(AccessKind::Read), 1);
        assert_eq!(t.count_kind(AccessKind::Write), 1);
    }

    #[test]
    fn truncate_limits_length() {
        let mut t = sample();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        t.truncate(100); // no-op beyond len
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut t = sample();
        t.extend([Access::read(0x20)]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.get(5), Some(Access::read(0x20)));
    }

    #[test]
    fn double_ended_iteration() {
        let t = sample();
        let mut it = t.iter();
        assert_eq!(it.next_back(), Some(Access::fetch(0x1000)));
        assert_eq!(it.next(), Some(Access::fetch(0x1000)));
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn display_mentions_len() {
        assert_eq!(sample().to_string(), "trace of 5 references");
    }
}
