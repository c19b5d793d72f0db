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
pub use zoo::{bwcost, ehc};

/// Every experiment id accepted by the `experiments` binary, in run order.
pub const ALL_IDS: [&str; 23] = [
    "patterns",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablate-sticky",
    "ablate-hashwidth",
    "ablate-linebuf",
    "victim",
    "streambuf",
    "conflicts",
    "assoc",
    "coldstart",
    "ehc",
    "bwcost",
];

/// Runs one experiment by id.
///
/// Returns `None` for unknown ids.
pub fn run(id: &str, workloads: &crate::Workloads) -> Option<crate::Table> {
    Some(match id {
        "patterns" => patterns(),
        "fig2" => fig2(workloads),
        "fig3" => fig3(workloads),
        "fig4" => fig4(workloads),
        "fig5" => fig5(workloads),
        "fig7" => fig7(workloads),
        "fig8" => fig8(workloads),
        "fig9" => fig9(workloads),
        "fig11" => fig11(workloads),
        "fig12" => fig12(workloads),
        "fig13" => fig13(workloads),
        "fig14" => fig14(workloads),
        "fig15" => fig15(workloads),
        "ablate-sticky" => ablate_sticky(workloads),
        "ablate-hashwidth" => ablate_hashwidth(workloads),
        "ablate-linebuf" => ablate_linebuf(workloads),
        "conflicts" => conflicts(workloads),
        "assoc" => assoc(workloads),
        "coldstart" => coldstart(workloads),
        "ehc" => ehc(workloads),
        "bwcost" => bwcost(workloads),
        "victim" => victim(workloads),
        "streambuf" => streambuf(workloads),
        _ => return None,
    })
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
