//! Fault-isolation and checkpoint/resume integration tests.
//!
//! Three layers are exercised end to end:
//!
//! * the engine's resilient pool over *real* simulation jobs (panic + hang
//!   in one sweep, every other slot bit-identical at any worker count);
//! * `experiments --resume`: a journaled sweep interrupted mid-flight (by
//!   truncating its journal, and by killing the process) reproduces
//!   byte-identical CSV output when resumed;
//! * the `simcache` CLI: `--resume` replay (including across `--kernel`
//!   values — journal keys are kernel-agnostic), `--lenient` trace
//!   ingestion, and the malformed-flag/environment hardening.
//!
//! Spawned CLIs run with every `DYNEX_*` variable scrubbed, so the suite is
//! hermetic under any `--test-threads` value and any runner environment.

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use dynex_cache::CacheConfig;
use dynex_engine::{execute_resilient, JobFailure, PolicyKind, Resilience};
use dynex_trace::io::write_binary;
use dynex_trace::{Access, Trace};

/// A unique scratch directory per test (the suite runs tests concurrently).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dynex-resilience-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every environment variable any dynex binary reads. Spawned CLIs get all
/// of them scrubbed so a stray variable in the *test runner's* environment
/// (or one set by a concurrently-running test via `Command::env`, which is
/// per-child and cannot leak — fault injection relies on that) can never
/// change a subprocess's behaviour. Keeping one authoritative list means a
/// newly added knob only needs to be registered here once.
const DYNEX_ENV_VARS: [&str; 3] = ["DYNEX_JOBS", "DYNEX_REFS", "DYNEX_BLESS"];

/// `experiments` invocation with a hermetic environment (no stray DYNEX_*).
fn experiments_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for var in DYNEX_ENV_VARS {
        cmd.env_remove(var);
    }
    cmd
}

/// `simcache` invocation with a hermetic environment.
fn simcache_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simcache"));
    for var in DYNEX_ENV_VARS {
        cmd.env_remove(var);
    }
    cmd
}

#[test]
fn resilient_sweep_isolates_panic_and_hang_over_real_simulation_jobs() {
    // The acceptance scenario over real jobs: a sweep of cache sizes where
    // one point panics and one hangs. The sweep must complete with exactly
    // those two cells failed, and every other cell bit-identical to a clean
    // serial run — at every worker count.
    let addrs: Vec<u32> = (0..4000u32).map(|i| (i % 700) * 4).collect();
    let sizes: Vec<u32> = (0..10).map(|i| 64 << (i % 5)).collect();
    let serial: Vec<_> = sizes
        .iter()
        .map(|&s| {
            let config = CacheConfig::direct_mapped(s, 4).unwrap();
            PolicyKind::DynamicExclusion.simulate(config, &addrs)
        })
        .collect();

    for jobs in [1, 2, 4, 8] {
        let items: Arc<Vec<(u32, Vec<u32>)>> =
            Arc::new(sizes.iter().map(|&s| (s, addrs.clone())).collect());
        let outcome = execute_resilient(
            items,
            jobs,
            Resilience::default().deadline(Duration::from_millis(250)),
            |(size, addrs)| {
                let config = CacheConfig::direct_mapped(*size, 4).unwrap();
                PolicyKind::DynamicExclusion.simulate(config, addrs)
            },
        );
        // No faults injected here: a clean resilient sweep must equal serial.
        assert_eq!(outcome.results().len(), serial.len(), "jobs={jobs}");
        for (slot, expected) in outcome.results().iter().zip(&serial) {
            assert_eq!(slot.as_ref().unwrap(), expected, "jobs={jobs}");
        }

        // Same sweep with plan points 3 (panic) and 7 (hang) sabotaged.
        let items: Arc<Vec<(usize, u32, Vec<u32>)>> = Arc::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| (i, s, addrs.clone()))
                .collect(),
        );
        let outcome = execute_resilient(
            items,
            jobs,
            Resilience::default().deadline(Duration::from_millis(250)),
            |(plan_index, size, addrs)| {
                if *plan_index == 3 {
                    panic!("sabotaged point");
                }
                if *plan_index == 7 {
                    std::thread::sleep(Duration::from_secs(600));
                }
                let config = CacheConfig::direct_mapped(*size, 4).unwrap();
                PolicyKind::DynamicExclusion.simulate(config, addrs)
            },
        );
        assert_eq!(outcome.results().len(), sizes.len(), "jobs={jobs}");
        for (i, slot) in outcome.results().iter().enumerate() {
            match i {
                3 => assert!(matches!(
                    slot.as_ref().unwrap_err().failure,
                    JobFailure::Panicked { .. }
                )),
                7 => assert!(matches!(
                    slot.as_ref().unwrap_err().failure,
                    JobFailure::TimedOut { .. }
                )),
                _ => assert_eq!(slot.as_ref().unwrap(), &serial[i], "jobs={jobs} slot={i}"),
            }
        }
    }
}

#[test]
fn experiments_resume_after_journal_truncation_is_byte_identical() {
    let dir = scratch("truncate");
    let journal = dir.join("sweep.journal");
    let out_a = dir.join("a");
    let out_b = dir.join("b");
    let out_plain = dir.join("plain");

    let run = |out: &std::path::Path, resume: bool| {
        let mut cmd = experiments_cmd();
        cmd.args(["--refs", "20000", "--out"]).arg(out);
        if resume {
            cmd.arg("--resume").arg(&journal);
        }
        cmd.arg("fig5");
        let output = cmd.output().expect("experiments runs");
        assert!(
            output.status.success(),
            "experiments failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stderr).into_owned()
    };

    // Full journaled run, then an identical run without any journal.
    run(&out_a, true);
    run(&out_plain, false);
    let csv_a = std::fs::read(out_a.join("fig5.csv")).unwrap();
    let csv_plain = std::fs::read(out_plain.join("fig5.csv")).unwrap();
    assert_eq!(csv_a, csv_plain, "journaling must not change results");

    // Simulate an interrupted sweep: keep only half the journal and leave a
    // torn partial record at the tail (what kill -9 mid-append produces).
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected several checkpointed points, got {}",
        lines.len()
    );
    let mut half: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    half.push_str("{\"key\":\"torn-rec"); // no closing brace, no newline
    std::fs::write(&journal, half).unwrap();

    // Resume: replays the surviving half, re-simulates the rest, and the
    // final CSV is byte-identical.
    let stderr = run(&out_b, true);
    assert!(
        stderr.contains("point(s) replayed"),
        "stderr should report replays:\n{stderr}"
    );
    assert!(
        stderr.contains("torn line(s) dropped"),
        "stderr should report the torn record:\n{stderr}"
    );
    let csv_b = std::fs::read(out_b.join("fig5.csv")).unwrap();
    assert_eq!(csv_a, csv_b, "resumed output must be byte-identical");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiments_killed_midway_resumes_to_identical_output() {
    let dir = scratch("kill");
    let journal = dir.join("sweep.journal");
    let out_resumed = dir.join("resumed");
    let out_clean = dir.join("clean");

    // Start a journaled run and kill it shortly after. Depending on machine
    // speed the kill lands before, during, or after the sweep — resume must
    // produce identical output in every case.
    let mut child = experiments_cmd()
        .args(["--refs", "20000"])
        .arg("--resume")
        .arg(&journal)
        .arg("--out")
        .arg(dir.join("first"))
        .arg("fig5")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("experiments spawns");
    std::thread::sleep(Duration::from_millis(400));
    let _ = child.kill();
    let _ = child.wait();

    let run = |out: &std::path::Path, resume: bool| {
        let mut cmd = experiments_cmd();
        cmd.args(["--refs", "20000", "--out"]).arg(out);
        if resume {
            cmd.arg("--resume").arg(&journal);
        }
        cmd.arg("fig5");
        let output = cmd.output().expect("experiments runs");
        assert!(
            output.status.success(),
            "experiments failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run(&out_resumed, true);
    run(&out_clean, false);
    let resumed = std::fs::read(out_resumed.join("fig5.csv")).unwrap();
    let clean = std::fs::read(out_clean.join("fig5.csv")).unwrap();
    assert_eq!(resumed, clean, "post-kill resume must be byte-identical");

    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a small text trace and returns its path.
fn write_text_trace(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("trace.txt");
    let mut text = String::new();
    for i in 0..4000u32 {
        text.push_str(&format!("F {:#x}\n", (i % 700) * 4));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn simcache_resume_replays_byte_identical_output() {
    let dir = scratch("simcache-resume");
    let trace = write_text_trace(&dir);
    let journal = dir.join("run.journal");

    let run = || {
        let output = simcache_cmd()
            .arg(&trace)
            .args(["--size", "1K", "--line", "4", "--org", "de"])
            .arg("--resume")
            .arg(&journal)
            .output()
            .expect("simcache runs");
        assert!(
            output.status.success(),
            "simcache failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        (
            output.stdout,
            String::from_utf8_lossy(&output.stderr).into_owned(),
        )
    };
    let (stdout_first, stderr_first) = run();
    assert!(!stderr_first.contains("replayed from journal"));
    let (stdout_second, stderr_second) = run();
    assert!(
        stderr_second.contains("replayed from journal"),
        "second run should replay:\n{stderr_second}"
    );
    assert_eq!(
        stdout_first, stdout_second,
        "replayed output must be byte-identical"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The resume journal's keys deliberately do not encode the kernel: both
/// kernels are bit-identical, so a journal written under `--kernel batch`
/// must replay under `--kernel reference` (and vice versa) with
/// byte-identical output. This is also the regression guard for the journal
/// format itself — if a kernel ever stopped being bit-identical, the fresh
/// reference run below would diverge from the replayed one.
#[test]
fn simcache_resume_is_kernel_agnostic() {
    let dir = scratch("kernel-resume");
    let trace = write_text_trace(&dir);
    let journal = dir.join("run.journal");

    let run = |kernel: &str, resume: bool| {
        let mut cmd = simcache_cmd();
        cmd.arg(&trace).args([
            "--size", "1K", "--line", "4", "--org", "de", "--kernel", kernel,
        ]);
        if resume {
            cmd.arg("--resume").arg(&journal);
        }
        let output = cmd.output().expect("simcache runs");
        assert!(
            output.status.success(),
            "simcache --kernel {kernel} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        (
            output.stdout,
            String::from_utf8_lossy(&output.stderr).into_owned(),
        )
    };

    // Journal written by the batch kernel...
    let (stdout_batch, stderr_batch) = run("batch", true);
    assert!(!stderr_batch.contains("replayed from journal"));

    // ...replays under the reference kernel without re-simulating.
    let (stdout_replayed, stderr_replayed) = run("reference", true);
    assert!(
        stderr_replayed.contains("replayed from journal"),
        "cross-kernel resume should replay, not re-simulate:\n{stderr_replayed}"
    );
    assert_eq!(
        stdout_batch, stdout_replayed,
        "cross-kernel replay must be byte-identical"
    );

    // And a fresh reference-kernel run (no journal) agrees byte for byte,
    // so the replayed numbers are the numbers reference would have produced.
    let (stdout_fresh, _) = run("reference", false);
    assert_eq!(
        stdout_batch, stdout_fresh,
        "kernels must produce byte-identical simcache output"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simcache_lenient_tolerates_exactly_the_budgeted_corruption() {
    let dir = scratch("lenient");
    let path = dir.join("corrupt.dxt");
    let trace: Trace = (0..100u32).map(|i| Access::fetch((i % 40) * 4)).collect();
    let mut bytes = Vec::new();
    write_binary(&mut bytes, &trace).unwrap();
    // Corrupt three packed words (reserved kind bits) at references 5, 17, 60.
    for index in [5usize, 17, 60] {
        let at = 12 + 4 * index;
        bytes[at..at + 4].copy_from_slice(&(3u32 << 30).to_le_bytes());
    }
    std::fs::write(&path, &bytes).unwrap();

    let run = |extra: &[&str]| {
        simcache_cmd()
            .arg(&path)
            .args(["--size", "256", "--line", "4"])
            .args(extra)
            .output()
            .expect("simcache runs")
    };

    // Strict (default): hard failure naming the first corrupt reference.
    let strict = run(&[]);
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(
        stderr.contains("corrupt packed access at reference 5"),
        "strict failure should name reference 5:\n{stderr}"
    );

    // Lenient with a sufficient budget: succeeds, reports exactly 3 skips.
    let lenient = run(&["--lenient", "3"]);
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(lenient.status.success(), "lenient run failed:\n{stderr}");
    assert!(
        stderr.contains("3 corrupt record(s) skipped"),
        "lenient run should count 3 skips:\n{stderr}"
    );
    assert!(
        stderr.contains("3 skipped"),
        "trace stats should carry the skip tally:\n{stderr}"
    );
    assert!(
        stderr.contains("97 references selected"),
        "97 of 100 references should survive:\n{stderr}"
    );

    // Lenient with a too-small budget: fails fast once the budget breaks.
    let broke = run(&["--lenient", "2"]);
    assert!(!broke.status.success());
    let stderr = String::from_utf8_lossy(&broke.stderr);
    assert!(
        stderr.contains("lenient read gave up at offset 60"),
        "budget failure should name the breaking record:\n{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `--sweep` takes its sizes from its list, so it needs no `--size`: the
/// run exits 0 and prints the rows of the run with `--size 64K` added,
/// while a plain run without `--size` still fails.
#[test]
fn simcache_sweep_needs_no_size() {
    let dir = scratch("sweep-no-size");
    let path = dir.join("t.dxt");
    let trace: Trace = (0..3000u32)
        .map(|i| Access::fetch((i % 700) * 4 + (i / 300 % 3) * 4096))
        .collect();
    let mut bytes = Vec::new();
    write_binary(&mut bytes, &trace).unwrap();
    std::fs::write(&path, &bytes).unwrap();

    let run = |extra: &[&str]| {
        simcache_cmd()
            .arg(&path)
            .args(["--line", "4"])
            .args(extra)
            .output()
            .expect("simcache runs")
    };
    let bare = run(&["--sweep", "1K,2K"]);
    assert!(
        bare.status.success(),
        "--sweep without --size failed:\n{}",
        String::from_utf8_lossy(&bare.stderr)
    );
    let sized = run(&["--size", "64K", "--sweep", "1K,2K"]);
    assert!(sized.status.success());
    assert_eq!(bare.stdout, sized.stdout);
    let rows = String::from_utf8(bare.stdout).unwrap();
    assert_eq!(rows.lines().count(), 2, "{rows}");
    assert!(rows.starts_with("1KB direct-mapped, 4B lines: "), "{rows}");

    let plain = run(&[]);
    assert!(!plain.status.success());
    assert!(String::from_utf8_lossy(&plain.stderr).contains("--size is required"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clis_reject_malformed_flags_and_environment() {
    let dir = scratch("hardening");
    let trace = write_text_trace(&dir);

    // experiments: malformed DYNEX_REFS / DYNEX_JOBS fail loudly (they were
    // previously silently ignored), and zero budgets are rejected.
    let cases = [
        (vec!["list"], Some(("DYNEX_REFS", "abc")), "DYNEX_REFS"),
        (vec!["list"], Some(("DYNEX_REFS", "0")), "DYNEX_REFS"),
        (vec!["list"], Some(("DYNEX_JOBS", "eight")), "DYNEX_JOBS"),
        (vec!["list"], Some(("DYNEX_JOBS", "0")), "DYNEX_JOBS"),
        (vec!["--refs", "0", "list"], None, "--refs"),
        (vec!["--refs", "many", "list"], None, "--refs"),
        (vec!["--jobs", "0", "list"], None, "--jobs"),
    ];
    for (args, env, needle) in cases {
        let mut cmd = experiments_cmd();
        cmd.args(&args);
        if let Some((k, v)) = env {
            cmd.env(k, v);
        }
        let output = cmd.output().expect("experiments runs");
        assert!(!output.status.success(), "args={args:?} env={env:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(needle),
            "args={args:?} env={env:?}: error should mention {needle}:\n{stderr}"
        );
    }

    // simcache: malformed --size values are rejected (previously a bad value
    // silently degraded into "--size is required").
    for bad_size in ["0", "12Q", "lots", "0K"] {
        let output = simcache_cmd()
            .arg(&trace)
            .args(["--size", bad_size])
            .output()
            .expect("simcache runs");
        assert!(!output.status.success(), "--size {bad_size}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("bad --size value"),
            "--size {bad_size}:\n{stderr}"
        );
    }

    // simcache: malformed DYNEX_JOBS fails before doing any work.
    let output = simcache_cmd()
        .arg(&trace)
        .args(["--size", "1K"])
        .env("DYNEX_JOBS", "many")
        .output()
        .expect("simcache runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("DYNEX_JOBS"));

    // simcache: --resume does not compose with observability.
    let journal = dir.join("j.jsonl");
    let output = simcache_cmd()
        .arg(&trace)
        .args(["--size", "1K", "--events-out", "/dev/null"])
        .arg("--resume")
        .arg(&journal)
        .output()
        .expect("simcache runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--resume"));

    // simcache: any unrecognised `--` argument fails as an unknown flag that
    // names itself — the retired set-sharding flags, and a bogus flag placed
    // before the trace path, where it would otherwise be taken as the path.
    for name in ["shard-sets", "job-retries", "job-timeout-ms"] {
        let flag = format!("--{name}");
        let output = simcache_cmd()
            .arg(&trace)
            .args(["--size", "1K", &flag])
            .output()
            .expect("simcache runs");
        assert!(!output.status.success(), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&flag), "{flag}:\n{stderr}");
    }
    let output = simcache_cmd()
        .arg("--bogus")
        .arg(&trace)
        .args(["--size", "1K"])
        .output()
        .expect("simcache runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag \"--bogus\""), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
