//! A sparse per-line `u32` table: the storage behind the whole-trace
//! oracles (OPT's next-use chain and EHC's windowed-use counts).
//!
//! Line addresses span up to 30 bits (a byte address shifted right by at
//! least the 4-byte word offset), but a trace touches only a few dense
//! regions of that space: code, heap and a stack near the top. A flat array
//! over `[0, max_line]` pays for the gap between them (a memset of up to
//! 4 GiB), and a hash map pays a hash per reference. The table pays for
//! neither: it stores one `u32` per line in pages of [`PAGE_LEN`] lines,
//! allocated on first touch into one contiguous store, and finds a page
//! through a directory indexed by `line >> PAGE_BITS`. A lookup is two
//! dependent loads (directory, then slot), both of them cache-resident for
//! the footprints the paper's workloads have.

/// Lines per page, as a power of two.
const PAGE_BITS: u32 = 12;

/// Lines per page.
pub(crate) const PAGE_LEN: usize = 1 << PAGE_BITS;

/// One `u32` per line address, every slot starting at the table's fill
/// value; pages are allocated when a line in them is first touched.
#[derive(Debug, Clone)]
pub(crate) struct LineTable {
    /// `dir[line >> PAGE_BITS]` is 1 + the page's index in `store`, or 0
    /// when no line of that page has been touched. Grows on demand.
    dir: Vec<u32>,
    /// The allocated pages, back to back in allocation order.
    store: Vec<u32>,
    /// The value every slot holds until it is first written.
    fill: u32,
}

impl LineTable {
    /// An empty table whose slots all read as `fill`.
    pub(crate) fn new(fill: u32) -> LineTable {
        LineTable {
            dir: Vec::new(),
            store: Vec::new(),
            fill,
        }
    }

    /// The slot of `line`, allocating its page on first touch.
    #[inline]
    pub(crate) fn slot(&mut self, line: u32) -> &mut u32 {
        let page = (line >> PAGE_BITS) as usize;
        let base = match self.dir.get(page) {
            Some(&entry) if entry != 0 => entry as usize - 1,
            _ => self.alloc(page),
        };
        &mut self.store[(base << PAGE_BITS) | (line as usize & (PAGE_LEN - 1))]
    }

    /// Allocates the page for directory slot `page`, returning its index in
    /// the store.
    #[cold]
    #[inline(never)]
    fn alloc(&mut self, page: usize) -> usize {
        if page >= self.dir.len() {
            self.dir.resize(page + 1, 0);
        }
        let base = self.store.len() >> PAGE_BITS;
        self.store.resize(self.store.len() + PAGE_LEN, self.fill);
        // At most 2^32 >> PAGE_BITS pages exist, so the index fits.
        self.dir[page] = base as u32 + 1;
        base
    }

    /// Pages allocated so far.
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.store.len() >> PAGE_BITS
    }
}

/// A seeded line stream for the oracle tests: mostly a small dense region,
/// mixed with line 0, both sides of a page boundary, a stack-like line and
/// the two largest 4-byte-line addresses (`0x3fff_ffff` is the top).
#[cfg(test)]
pub(crate) fn sparse_lines(seed: u64, len: usize) -> Vec<u32> {
    const EDGES: [u32; 7] = [
        0,
        PAGE_LEN as u32 - 1,
        PAGE_LEN as u32,
        5 * PAGE_LEN as u32 + 3,
        0x1fff_fbff,
        0x3fff_fffe,
        0x3fff_ffff,
    ];
    let mut rng = crate::SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            if rng.below(3) == 0 {
                EDGES[rng.below(EDGES.len() as u64) as usize]
            } else {
                rng.below(24) as u32
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_start_at_the_fill_value_and_keep_writes() {
        let mut table = LineTable::new(u32::MAX);
        assert_eq!(*table.slot(0), u32::MAX);
        *table.slot(0) = 7;
        *table.slot(1) = 8;
        assert_eq!((*table.slot(0), *table.slot(1)), (7, 8));
        assert_eq!(*table.slot(2), u32::MAX, "neighbours untouched");
        assert_eq!(table.pages(), 1);
    }

    #[test]
    fn pages_are_allocated_on_first_touch_only() {
        let mut table = LineTable::new(0);
        let last = PAGE_LEN as u32 - 1;
        // Both sides of a page boundary, then the top of the 30-bit line
        // space: three pages, however far apart.
        *table.slot(last) = 1;
        *table.slot(last + 1) = 2;
        *table.slot(0x3fff_ffff) = 3;
        assert_eq!(table.pages(), 3);
        assert_eq!(*table.slot(last), 1);
        assert_eq!(*table.slot(last + 1), 2);
        assert_eq!(*table.slot(0x3fff_ffff), 3);
        assert_eq!(*table.slot(0x3fff_fffe), 0);
        assert_eq!(table.pages(), 3, "rereads allocate nothing");
        // The full u32 range is addressable.
        *table.slot(u32::MAX) = 4;
        assert_eq!(*table.slot(u32::MAX), 4);
        assert_eq!(table.pages(), 4);
    }

    #[test]
    fn pages_touched_out_of_order_do_not_alias() {
        let mut table = LineTable::new(0);
        let lines: Vec<u32> = (0..8u32).rev().map(|p| (p << PAGE_BITS) | p).collect();
        for &line in &lines {
            *table.slot(line) = line;
        }
        for &line in &lines {
            assert_eq!(*table.slot(line), line);
        }
        assert_eq!(table.pages(), 8);
    }
}
