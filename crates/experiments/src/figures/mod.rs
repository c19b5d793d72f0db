//! One function per paper artifact.
//!
//! | function | paper artifact |
//! |----------|----------------|
//! | [`patterns`] | Section 3 analytic pattern table |
//! | [`fig2`] | Figure 2 benchmark characterization |
//! | [`fig3`] | Figure 3 per-benchmark I-cache miss rates (32KB, 4B) |
//! | [`fig4`] | Figure 4 average I-cache miss rate vs size (4B lines) |
//! | [`fig5`] | Figure 5 % miss reduction vs size (4B lines) |
//! | [`fig7`] | Figure 7 DE L1 miss rate vs relative L2 size |
//! | [`fig8`] | Figure 8 L2 miss rate vs L2 size, per hit-last strategy |
//! | [`fig9`] | Figure 9 L2 miss reduction vs L2 size |
//! | [`fig11`] | Figure 11 I-cache DE performance vs line size (32KB) |
//! | [`fig12`] | Figure 12 DE improvement vs cache size (16B lines) |
//! | [`fig13`] | Figure 13 efficiency: DE bits vs doubling capacity |
//! | [`fig14`] | Figure 14 data-cache DE vs size (4B lines) |
//! | [`fig15`] | Figure 15 combined I+D cache DE vs size (4B lines) |
//! | [`ablate_sticky`] | Section 4 / \[McF91a\] multi-sticky discussion |
//! | [`ablate_hashwidth`] | Section 5 hashed hit-last width ("4 bits suffice") |
//! | [`victim`] | Section 2 victim-cache comparison \[Jou90\] |
//! | [`streambuf`] | Section 2 stream-buffer complementarity \[Jou90\] |
//! | [`ablate_linebuf`] | Section 6's three line-buffer structures |
//! | [`conflicts`] | 3C miss anatomy (extension) |
//! | [`ehc`] | Expected-Hit-Count headline comparison (arXiv 1808.05024) |
//! | [`bwcost`] | bandwidth-cost headline comparison (arXiv 1907.02167) |
//! | [`assoc`] | DE vs set-associativity (extension) |
//! | [`coldstart`] | DE training-cost split (extension) |
//!
//! Every column with a [`dynex_engine::PolicyKind`] is a
//! [`dynex_engine::run_jobs`] job under the session kernel. The rest are
//! reference-only, with the same simulator under every kernel:
//!
//! | figure | reference-only column | simulator |
//! |--------|-----------------------|-----------|
//! | [`conflicts`] | DM miss % and its 3C split | `classify_direct_mapped` |
//! | [`ablate_sticky`] | every column | `MultiStickyDeCache` |
//! | [`ablate_hashwidth`] | the 1-8 bit rows | `DeCache` over a `HashedStore` |
//! | [`fig13`] | 8KB DE (4 hashed bits) | `LastLineDeCache` over a `HashedStore` |
//! | [`ablate_linebuf`] | DE+stream(4) | `DeStreamBuffer` |
//! | [`streambuf`] | DM+stream(4) % and stream hits (no engine counter) | `StreamBuffer` |

mod ablations;
mod data;
mod extensions;
mod hierarchy;
mod instr;
mod lines;
mod patterns;
mod zoo;

pub use ablations::{ablate_hashwidth, ablate_sticky, streambuf, victim};
pub use data::{fig14, fig15};
pub use extensions::{ablate_linebuf, assoc, coldstart, conflicts};
pub use hierarchy::{fig7, fig8, fig9, l2_sweep};
pub use instr::{fig3, fig4, fig5};
pub use lines::{fig11, fig12, fig13};
pub use patterns::{fig2, patterns};
#[cfg(test)]
pub(crate) use zoo::ZOO_SIZES_KB;
pub use zoo::{bwcost, ehc};

use crate::{Table, Workloads};

/// Renders one experiment's table.
type Figure = fn(&Workloads) -> Table;

/// Every experiment, in run order: its id and the function that renders it.
const FIGURES: [(&str, Figure); 23] = [
    ("patterns", |_| patterns()),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("ablate-sticky", ablate_sticky),
    ("ablate-hashwidth", ablate_hashwidth),
    ("ablate-linebuf", ablate_linebuf),
    ("victim", victim),
    ("streambuf", streambuf),
    ("conflicts", conflicts),
    ("assoc", assoc),
    ("coldstart", coldstart),
    ("ehc", ehc),
    ("bwcost", bwcost),
];

/// Every experiment id accepted by the `experiments` binary, in run order.
pub const ALL_IDS: [&str; 23] = {
    let mut ids = [""; 23];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = FIGURES[i].0;
        i += 1;
    }
    ids
};

/// Runs one experiment by id.
///
/// Returns `None` for unknown ids.
pub fn run(id: &str, workloads: &Workloads) -> Option<Table> {
    let (_, figure) = FIGURES.iter().find(|(name, _)| *name == id)?;
    Some(figure(workloads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        let w = crate::Workloads::generate(200);
        assert!(run("fig99", &w).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        // Tiny budget: exercises routing, not numbers.
        let w = crate::Workloads::generate(500);
        for id in ALL_IDS {
            assert!(run(id, &w).is_some(), "{id}");
        }
    }
}
