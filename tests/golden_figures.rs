//! Golden-file regression tests: reduced-budget figure sweeps against
//! committed CSVs in `results/golden/`, plus a second pin of `conflicts`,
//! `assoc`, `ehc`, `bwcost`, `fig8` and `fig9` at a larger budget in
//! `results/golden/50k/`.
//!
//! The batch kernel (PR 4) made the simulation path swappable, and the
//! sweep kernel (PR 9) made whole figure plans ride one traversal; these
//! goldens pin the *numbers* so a kernel change can never silently move the
//! paper's figures. Each test renders a figure at a fixed small reference
//! budget under **all three** kernels (reference, batch, sweep) and
//! compares the CSV bytes to the committed golden — a regression in any
//! kernel, the workload generator, or the table renderer fails loudly.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! DYNEX_BLESS=1 cargo test -p dynex-experiments --test golden_figures
//! ```
//!
//! and commit the updated files under `results/golden/`.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use dynex_cache::Kernel;
use dynex_engine::{set_default_jobs, set_default_kernel};
use dynex_experiments::{figures, Workloads};

/// Reference budget for the goldens: small enough to run in seconds, large
/// enough that every workload's loop structure shows up in the numbers.
const GOLDEN_REFS: usize = 12_000;

/// Budget of the second pin of `conflicts`, `assoc`, `ehc`, `bwcost`,
/// `fig8` and `fig9`. At [`GOLDEN_REFS`] their 16 KB to 64 KB rows are all
/// compulsory misses, and every fig8 cell reads the same cold L2 miss
/// rate; at this budget capacity and conflict misses appear there
/// (doduc's 32 KB conflict share is 38.4%, and fig8's 32 KB L2 row splits
/// the exclusive strategies apart), so the pin covers the LRU shadows, the
/// associative columns, writebacks beyond the cold fills, the EHC window
/// sliding at every size, and the L2 strategies.
const DEEP_REFS: usize = 50_000;

fn workloads() -> &'static Workloads {
    static WORKLOADS: OnceLock<Workloads> = OnceLock::new();
    WORKLOADS.get_or_init(|| Workloads::generate(GOLDEN_REFS))
}

fn deep_workloads() -> &'static Workloads {
    static WORKLOADS: OnceLock<Workloads> = OnceLock::new();
    WORKLOADS.get_or_init(|| Workloads::generate(DEEP_REFS))
}

/// Serializes the kernel/jobs global flips within this binary.
fn lock_globals() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

fn render(id: &str, workloads: &Workloads, kernel: Kernel) -> Vec<u8> {
    set_default_kernel(kernel);
    // Goldens are worker-count-independent by the engine's determinism
    // contract; pin jobs=1 anyway so a determinism bug cannot masquerade as
    // a numeric change.
    set_default_jobs(1);
    let table = figures::run(id, workloads).expect("known figure id");
    set_default_kernel(Kernel::default());
    set_default_jobs(0);
    let mut bytes = Vec::new();
    table.write_csv(&mut bytes).expect("in-memory CSV render");
    bytes
}

fn check_golden(id: &str) {
    check_golden_at(id, workloads(), golden_dir().join(format!("{id}.csv")));
}

/// The [`DEEP_REFS`] pin of `id`, kept under `results/golden/50k/` beside
/// (not instead of) its [`GOLDEN_REFS`] golden.
fn check_deep_golden(id: &str) {
    check_golden_at(
        id,
        deep_workloads(),
        golden_dir().join("50k").join(format!("{id}.csv")),
    );
}

fn check_golden_at(id: &str, workloads: &Workloads, path: PathBuf) {
    let _guard = lock_globals();
    let batch = render(id, workloads, Kernel::Batch);
    let reference = render(id, workloads, Kernel::Reference);
    assert_eq!(
        batch, reference,
        "{id}: kernels disagree at the golden budget"
    );
    let sweep = render(id, workloads, Kernel::Sweep);
    assert_eq!(
        batch, sweep,
        "{id}: sweep kernel disagrees at the golden budget"
    );

    if std::env::var_os("DYNEX_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent")).unwrap();
        std::fs::write(&path, &batch).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{id}: cannot read golden {} ({e}); regenerate with \
             `DYNEX_BLESS=1 cargo test -p dynex-experiments --test golden_figures` \
             and commit the result",
            path.display()
        )
    });
    assert_eq!(
        batch,
        golden,
        "{id}: figure output moved from the committed golden {}; if the change \
         is intentional, regenerate with `DYNEX_BLESS=1 cargo test -p \
         dynex-experiments --test golden_figures` and commit it",
        path.display()
    );
}

#[test]
fn fig2_matches_golden() {
    check_golden("fig2");
}

#[test]
fn fig7_matches_golden() {
    check_golden("fig7");
}

#[test]
fn fig8_matches_golden() {
    // The global L2 miss rates of the Section 5 hierarchy sweep: pins the
    // L1-to-L2 copy-back traffic of the exclusive strategies.
    check_golden("fig8");
}

#[test]
fn fig9_matches_golden() {
    check_golden("fig9");
}

#[test]
fn fig8_matches_deep_golden() {
    // At 32 KB the L2 sees capacity misses: DM and assume-hit read 7.050%,
    // assume-miss and hashed 4.498%.
    check_deep_golden("fig8");
}

#[test]
fn fig9_matches_deep_golden() {
    check_deep_golden("fig9");
}

#[test]
fn fig12_matches_golden() {
    check_golden("fig12");
}

#[test]
fn fig5_matches_golden() {
    // The headline multi-size sweep — the sweep kernel's primary target.
    check_golden("fig5");
}

#[test]
fn ablate_sticky_matches_golden() {
    check_golden("ablate-sticky");
}

#[test]
fn ehc_matches_golden() {
    // Policy zoo: the Expected-Hit-Count headline comparison. Under batch
    // and sweep every column rides one walk per benchmark; under reference
    // EHC runs `simulate_policy`, pinned to the same bytes.
    check_golden("ehc");
}

#[test]
fn bwcost_matches_golden() {
    // PR 10 policy zoo: the bandwidth-cost comparison, pinning the
    // fills/writebacks/probes accounting across kernels.
    check_golden("bwcost");
}

#[test]
fn assoc_matches_golden() {
    // Direct-mapped, DE and 2-/4-way LRU per size: pins `SetAssociative`.
    check_golden("assoc");
}

#[test]
fn conflicts_matches_golden() {
    // Hill's 3C split at 32 KB: pins the fully-associative LRU shadow of
    // `classify_direct_mapped`.
    check_golden("conflicts");
}

#[test]
fn conflicts_matches_deep_golden() {
    check_deep_golden("conflicts");
}

#[test]
fn assoc_matches_deep_golden() {
    check_deep_golden("assoc");
}

#[test]
fn victim_matches_golden() {
    // Direct-mapped, a 4-entry victim buffer and DE at 32 KB.
    check_golden("victim");
}

#[test]
fn streambuf_matches_golden() {
    // Pins DE's bypass count beside the stream buffer's hits.
    check_golden("streambuf");
}

#[test]
fn coldstart_matches_golden() {
    // The DE - DM miss delta over the first tenth and over the rest.
    check_golden("coldstart");
}

#[test]
fn ablate_linebuf_matches_golden() {
    check_golden("ablate-linebuf");
}

#[test]
fn ablate_hashwidth_matches_golden() {
    // Hashed hit-last stores of 1-8 bits per line beside the perfect store.
    check_golden("ablate-hashwidth");
}

#[test]
fn fig13_matches_golden() {
    check_golden("fig13");
}

#[test]
fn patterns_matches_golden() {
    // The Section 3 analytic patterns under dm, de and opt.
    check_golden("patterns");
}

#[test]
fn fig3_matches_golden() {
    // Per-benchmark dm/de/opt miss rates at 32 KB.
    check_golden("fig3");
}

#[test]
fn fig4_matches_golden() {
    // The averaged dm/de/opt miss rates whose reductions fig5 reports.
    check_golden("fig4");
}

#[test]
fn fig11_matches_golden() {
    // The last-line triple across line sizes at 32 KB.
    check_golden("fig11");
}

#[test]
fn fig14_matches_golden() {
    // The data-stream triple.
    check_golden("fig14");
}

#[test]
fn fig15_matches_golden() {
    // The combined instruction and data triple.
    check_golden("fig15");
}

#[test]
fn ehc_matches_deep_golden() {
    // At the 12k budget the 16 and 32 KB rows hold only cold misses, and
    // their EHC horizons (32,768 and 65,536 references) outrun the trace;
    // here the window slides at every size.
    check_deep_golden("ehc");
}

#[test]
fn bwcost_matches_deep_golden() {
    // Writebacks at 16 and 32 KB, which the 12k budget leaves at zero.
    check_deep_golden("bwcost");
}
