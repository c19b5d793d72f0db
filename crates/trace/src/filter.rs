//! Stream adapters for selecting parts of a trace.
//!
//! The paper's experiments run the same benchmark stream through an
//! instruction cache (fetches only, Figures 3–13), a data cache (reads and
//! writes only, Figure 14), or a combined cache (everything, Figure 15).
//! These free functions express those selections over any access iterator.

use crate::Access;

/// Keeps only instruction fetches.
///
/// # Examples
///
/// ```
/// use dynex_trace::{filter, Access};
///
/// let refs = [Access::fetch(0), Access::read(4), Access::fetch(8)];
/// let instrs: Vec<_> = filter::instructions(refs.into_iter()).collect();
/// assert_eq!(instrs.len(), 2);
/// ```
pub fn instructions<I>(accesses: I) -> impl Iterator<Item = Access>
where
    I: Iterator<Item = Access>,
{
    accesses.filter(|a| a.is_instruction())
}

/// Keeps only data reads and writes.
pub fn data<I>(accesses: I) -> impl Iterator<Item = Access>
where
    I: Iterator<Item = Access>,
{
    accesses.filter(|a| a.is_data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    fn mixed() -> Vec<Access> {
        vec![
            Access::fetch(0),
            Access::read(0x100),
            Access::fetch(4),
            Access::write(0x104),
            Access::fetch(8),
        ]
    }

    #[test]
    fn instructions_only() {
        let v: Vec<_> = instructions(mixed().into_iter()).collect();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|a| a.kind() == AccessKind::Fetch));
    }

    #[test]
    fn data_only() {
        let v: Vec<_> = data(mixed().into_iter()).collect();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|a| a.is_data()));
    }

    #[test]
    fn partition_is_complete() {
        let total = mixed().len();
        let i = instructions(mixed().into_iter()).count();
        let d = data(mixed().into_iter()).count();
        assert_eq!(i + d, total);
    }
}
