//! Policy-zoo compatibility wall (PR 10): the `PolicyKind` redesign must
//! not move a single byte of the existing dm/de/opt surface.
//!
//! * Journals recorded *before* the redesign (when the wire field was
//!   spelled `org` and `CacheStats` had no traffic counters) replay
//!   byte-identically: same content keys, same labels, same statistics.
//! * The `ehc` content key is pinned to an exact string, so a request
//!   journaled today replays in every future session.
//! * Unknown policies fail with a loud structured error that names the
//!   supported set — never a panic, never a silent fallback.
//! * Every policy runs on every kernel: `ehc` and `bwcost` on the sweep
//!   kernel answer exactly as on the reference kernel.
//! * The wire format round-trips through the new `policy` field and still
//!   accepts the legacy `org` spelling.
//! * Every `PolicyKind` member is requestable, `opt-lastline` included.

use dynex_engine::PolicyKind;
use dynex_experiments::api::{self, verify_key_schema, ApiError, SimulationRequest};

/// Journal lines captured from a pre-PR-10 build (wire field `org`, no
/// traffic counters) for `--profile gcc --refs 20000 --size 1K --line 4`
/// under each of the original three policies. The keys, labels, counters,
/// and checksums are the exact bytes that build wrote.
const PRE_PR10_JOURNAL: &str = concat!(
    r#"{"key":"4411b20ebbcf04f8","value":{"label":"1KB direct-mapped, 4B lines (conventional)","accesses":20000,"misses":14703},"sum":"d50ef1f7c32799cc"}"#,
    "\n",
    r#"{"key":"0ee12acd2bb26530","value":{"label":"1KB direct-mapped, 4B lines (dynamic exclusion)","accesses":20000,"misses":7946,"loads":759,"bypasses":7187},"sum":"50ed054357467236"}"#,
    "\n",
);

fn fixture_request(policy: &str, journal: &std::path::Path) -> SimulationRequest {
    let mut b = SimulationRequest::builder();
    b.policy(policy)
        .size("1K")
        .line(4)
        .profile("gcc")
        .refs(20_000)
        .jobs(1)
        .resume(journal);
    b.build().expect("valid request")
}

#[test]
fn pre_pr10_journal_replays_byte_identically() {
    let dir = std::env::temp_dir().join(format!("dynex-policy-zoo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("pre_pr10.jsonl");
    std::fs::write(&journal, PRE_PR10_JOURNAL).unwrap();

    let expected = [
        (
            "dm",
            "4411b20ebbcf04f8",
            "1KB direct-mapped, 4B lines (conventional)",
            14_703u64,
        ),
        (
            "de",
            "0ee12acd2bb26530",
            "1KB direct-mapped, 4B lines (dynamic exclusion)",
            7_946,
        ),
        ("opt", "b3f2f6892bb817c0", "optimal direct-mapped", 7_715),
    ];
    for (policy, key, label, misses) in expected {
        let request = fixture_request(policy, &journal);
        api::install_session(&request).unwrap();
        let response = api::run(&request).unwrap();
        dynex_engine::set_global_journal(None);
        // dm and de were journaled by the old build; opt's fixture line is
        // deliberately absent above so it simulates fresh — either way the
        // content key and payload must be exactly what that build produced.
        assert_eq!(response.key, key, "{policy}: content key moved");
        assert_eq!(response.label, label, "{policy}");
        assert_eq!(response.stats.accesses(), 20_000, "{policy}");
        assert_eq!(response.stats.misses(), misses, "{policy}");
        if policy == "dm" || policy == "de" {
            assert!(
                response.cached,
                "{policy}: pre-PR journal entry must replay"
            );
        }
        // Replayed legacy entries carry no traffic counters.
        assert_eq!(response.stats.fills(), 0, "{policy}");
        assert_eq!(response.stats.probes(), 0, "{policy}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ehc_content_key_is_stable_across_sessions() {
    let request = {
        let mut b = SimulationRequest::builder();
        b.policy("ehc")
            .size("1K")
            .line(4)
            .profile("gcc")
            .refs(20_000)
            .jobs(1);
        b.build().unwrap()
    };
    let trace = api::load(&request).unwrap();
    let key = request.content_key(&trace.addrs).unwrap();
    // Golden key: journaled EHC results must replay in every future
    // session. If this assertion fires, the key schema broke compatibility.
    assert_eq!(key, "d64d548858b68721");
}

#[test]
fn unknown_policy_is_a_loud_structured_error() {
    let mut b = SimulationRequest::builder();
    b.policy("lru");
    let err = b.build().expect_err("unknown policy must not build");
    match &err {
        ApiError::Invalid { field, message } => {
            assert_eq!(*field, "--policy");
            assert!(message.contains("lru"), "{message}");
            for kind in PolicyKind::ALL {
                assert!(message.contains(kind.name()), "{message}");
            }
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("--policy"), "{rendered}");
}

#[test]
fn ehc_and_bwcost_on_sweep_match_reference() {
    // The sweep kernel is the fast path, which runs ehc and bwcost through
    // their chunked kernels: through the full request API the response
    // (label, statistics, content key) equals the reference kernel's.
    for policy in ["ehc", "bwcost"] {
        let request = |kernel: &str| {
            let mut b = SimulationRequest::builder();
            b.policy(policy)
                .size("1K")
                .line(4)
                .profile("gcc")
                .refs(5_000)
                .jobs(1)
                .kernel(kernel);
            b.build().unwrap()
        };
        let swept = api::run(&request("sweep")).expect("sweep runs every policy");
        let reference = api::run(&request("reference")).expect("reference runs every policy");
        assert!(!swept.cached, "{policy}: simulated, not replayed");
        assert_eq!(swept, reference, "{policy}");
        assert_eq!(swept.to_json(), reference.to_json(), "{policy}");
        assert_eq!(swept.stats.probes(), 5_000, "{policy}");
    }
}

#[test]
fn zoo_policies_run_end_to_end_and_kernels_agree() {
    // The full request path (SimulationRequest -> execute -> kernel) for
    // the two new zoo members, under every supporting kernel: identical
    // statistics and content keys.
    for policy in ["ehc", "bwcost"] {
        let mut responses = Vec::new();
        for kernel in ["reference", "batch"] {
            let mut b = SimulationRequest::builder();
            b.policy(policy)
                .size("1K")
                .line(4)
                .profile("gcc")
                .refs(20_000)
                .jobs(1)
                .kernel(kernel);
            let request = b.build().unwrap();
            let trace = api::load(&request).unwrap();
            responses.push(api::execute(&request, &trace).unwrap());
        }
        assert_eq!(responses[0].stats, responses[1].stats, "{policy}");
        assert_eq!(responses[0].key, responses[1].key, "{policy}");
        assert_eq!(responses[0].label, responses[1].label, "{policy}");
        // The zoo driver accounts traffic: one probe per access.
        assert_eq!(responses[0].stats.probes(), 20_000, "{policy}");
    }
}

#[test]
fn wire_format_prefers_policy_and_accepts_legacy_org() {
    let mut b = SimulationRequest::builder();
    b.policy("ehc")
        .size("2K")
        .line(4)
        .profile("gcc")
        .refs(5_000)
        .jobs(1);
    let request = b.build().unwrap();

    // The new wire format spells the field `policy`.
    let json = request.to_json();
    assert!(json.contains(r#""policy":"ehc""#), "{json}");
    assert!(!json.contains(r#""org":"#), "{json}");
    let round = SimulationRequest::from_json(&json).unwrap();
    assert_eq!(round, request);
    verify_key_schema(&round).expect("key schema covers the policy field");

    // A pre-PR-10 client sending `org` still parses to the same request.
    let legacy = json.replace(r#""policy":"ehc""#, r#""org":"ehc""#);
    let from_legacy = SimulationRequest::from_json(&legacy).unwrap();
    assert_eq!(from_legacy, request);

    // When both are present, the new spelling wins.
    let both = json.replace(r#""policy":"ehc""#, r#""policy":"ehc","org":"dm""#);
    let from_both = SimulationRequest::from_json(&both).unwrap();
    assert_eq!(from_both, request);
}

#[test]
fn opt_lastline_is_requestable_on_every_kernel() {
    let build = |policy: &str, kernel: &str| {
        let mut b = SimulationRequest::builder();
        b.policy(policy)
            .size("4K")
            .line(16)
            .profile("gcc")
            .refs(20_000)
            .jobs(1)
            .kernel(kernel);
        b.build().expect("opt-lastline builds")
    };
    let trace = api::load(&build("opt-lastline", "batch")).unwrap();
    let responses: Vec<_> = ["reference", "batch", "sweep"]
        .map(|kernel| api::execute(&build("opt-lastline", kernel), &trace).unwrap())
        .into();
    assert_eq!(responses[0].label, "optimal direct-mapped + last-line");
    assert_eq!(responses[0], responses[1], "batch");
    assert_eq!(responses[0], responses[2], "sweep");
    assert!(responses[0].de.is_none());
    let opt = api::execute(&build("opt", "batch"), &trace).unwrap();
    assert_ne!(
        responses[0].key, opt.key,
        "opt-lastline has its own content key"
    );
}
