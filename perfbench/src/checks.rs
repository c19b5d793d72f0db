//! Output checks. Each compares what the program produced with what it
//! must produce and explains the first difference; every failure counts
//! against the run's `failed` total.

use dynex_experiments::api::SimulationResponse;

/// Byte-for-byte equality of two rendered outputs, naming the first line
/// that differs.
pub fn same_bytes(what: &str, actual: &[u8], expected: &[u8]) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let actual = String::from_utf8_lossy(actual);
    let expected = String::from_utf8_lossy(expected);
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    Err(format!(
        "{what}: output differs from the expected bytes at line {} \
         (got {:?}, expected {:?})",
        line + 1,
        actual.lines().nth(line).unwrap_or("<end>"),
        expected.lines().nth(line).unwrap_or("<end>"),
    ))
}

/// A served `/simulate` body with its `cached` flag cleared, so a cache
/// hit compares equal to a fresh simulation. `None` if the body is not a
/// simulation response.
pub fn normalize_served(body: &str) -> Option<String> {
    let mut response = SimulationResponse::from_json(body)?;
    response.cached = false;
    Some(response.to_json())
}

/// Checks a served body against the in-process response for the same
/// request (`expected`, rendered with `cached: false`).
pub fn served_matches(what: &str, body: &str, expected: &str) -> Result<(), String> {
    let normalized = normalize_served(body)
        .ok_or_else(|| format!("{what}: body is not a simulation response: {body:?}"))?;
    same_bytes(what, normalized.as_bytes(), expected.as_bytes())
}

/// Checks two simulation responses for the same request agree exactly
/// (label, statistics, exclusion counters and content key).
pub fn same_response(
    what: &str,
    actual: &SimulationResponse,
    expected: &SimulationResponse,
) -> Result<(), String> {
    same_bytes(
        what,
        actual.to_json().as_bytes(),
        expected.to_json().as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_experiments::api::{self, SimulationRequest};
    use dynex_experiments::{figures, Workloads};

    /// A real response for a small profile request.
    fn response(kernel: &str) -> SimulationResponse {
        let request = SimulationRequest::builder()
            .policy("de")
            .size("4K")
            .profile("gcc")
            .refs(5_000)
            .kernel(kernel)
            .jobs(1)
            .build()
            .expect("valid request");
        api::execute(&request, &api::load(&request).expect("profile loads")).expect("simulates")
    }

    #[test]
    fn a_corrupted_golden_table_is_caught() {
        let golden = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results/golden/fig2.csv"
        ))
        .expect("golden fig2 exists");
        let table = figures::run("fig2", &Workloads::generate(crate::figures::GOLDEN_REFS))
            .expect("fig2 is a figure id");
        let mut rendered = Vec::new();
        table.write_csv(&mut rendered).expect("in-memory CSV");
        assert_eq!(same_bytes("fig2", &rendered, &golden), Ok(()));

        let mut corrupted = golden.clone();
        let digit = corrupted
            .iter()
            .rposition(u8::is_ascii_digit)
            .expect("the table has numbers");
        corrupted[digit] = if corrupted[digit] == b'9' { b'0' } else { b'9' };
        let error = same_bytes("fig2", &rendered, &corrupted).unwrap_err();
        assert!(error.contains("fig2"), "{error}");
    }

    #[test]
    fn a_corrupted_served_body_is_caught_and_cached_is_normalized() {
        let fresh = response("batch");
        let expected = fresh.to_json();
        let mut hit = fresh.clone();
        hit.cached = true;
        assert_eq!(served_matches("hit", &hit.to_json(), &expected), Ok(()));

        let mut wrong = fresh.clone();
        wrong.stats =
            dynex_cache::CacheStats::from_counts(fresh.stats.accesses(), fresh.stats.misses() + 1);
        assert!(served_matches("wrong", &wrong.to_json(), &expected).is_err());
        assert!(served_matches("error", r#"{"error":"boom"}"#, &expected).is_err());
    }

    #[test]
    fn a_fast_kernel_disagreeing_with_the_reference_is_caught() {
        let reference = response("reference");
        assert_eq!(same_response("de", &response("batch"), &reference), Ok(()));
        let mut wrong = reference.clone();
        wrong.de = wrong.de.map(|mut de| {
            de.bypasses += 1;
            de
        });
        assert!(same_response("de", &wrong, &reference).is_err());
    }
}
