//! Golden-file regression tests: reduced-budget figure sweeps against
//! committed CSVs in `results/golden/`.
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

fn workloads() -> &'static Workloads {
    static WORKLOADS: OnceLock<Workloads> = OnceLock::new();
    WORKLOADS.get_or_init(|| Workloads::generate(GOLDEN_REFS))
}

/// Serializes the kernel/jobs global flips within this binary.
fn lock_globals() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(format!("{id}.csv"))
}

fn render(id: &str, kernel: Kernel) -> Vec<u8> {
    set_default_kernel(kernel);
    // Goldens are worker-count-independent by the engine's determinism
    // contract; pin jobs=1 anyway so a determinism bug cannot masquerade as
    // a numeric change.
    set_default_jobs(1);
    let table = figures::run(id, workloads()).expect("known figure id");
    set_default_kernel(Kernel::default());
    set_default_jobs(0);
    let mut bytes = Vec::new();
    table.write_csv(&mut bytes).expect("in-memory CSV render");
    bytes
}

fn check_golden(id: &str) {
    let _guard = lock_globals();
    let path = golden_path(id);
    let batch = render(id, Kernel::Batch);
    let reference = render(id, Kernel::Reference);
    assert_eq!(
        batch, reference,
        "{id}: kernels disagree at the golden budget"
    );
    let sweep = render(id, Kernel::Sweep);
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
    // PR 10 policy zoo: the Expected-Hit-Count headline comparison. The
    // sweep kernel has no EHC fast path, so this also pins the declared
    // reference fallback to the same bytes.
    check_golden("ehc");
}

#[test]
fn bwcost_matches_golden() {
    // PR 10 policy zoo: the bandwidth-cost comparison, pinning the
    // fills/writebacks/probes accounting across kernels.
    check_golden("bwcost");
}
