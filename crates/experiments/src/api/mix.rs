//! Seeded request-mix generation for load testing.
//!
//! A [`RequestMix`] turns a [`MixConfig`] into a deterministic stream of
//! validated [`SimulationRequest`]s: a fixed pool of distinct
//! configurations (the geometry spread: profile × size × line × org),
//! revisited with a configurable duplicate ratio so the server's result
//! cache sees a controllable hit rate, and with an optional deadline
//! attached to a configurable fraction of requests. The same seed always
//! produces the same request sequence — a load run is reproducible down to
//! the individual request.
//!
//! The duplicate ratio is the load model's first-class knob: serving
//! traffic from "millions of users" is duplicate-heavy (most requests
//! repeat a configuration someone already asked for), and the cache-hit
//! ratio it induces dominates both throughput and tail latency.

use dynex_cache::SplitMix64;

use super::{ApiError, SimulationRequest};

/// Configuration for a [`RequestMix`].
#[derive(Debug, Clone, PartialEq)]
pub struct MixConfig {
    /// PRNG seed; equal seeds generate equal request sequences.
    pub seed: u64,
    /// Probability in `[0, 1]` that a request repeats one already issued
    /// (a server-side cache hit once that shard has seen it).
    pub duplicate_ratio: f64,
    /// Number of distinct configurations to draw from. Clamped to the size
    /// of the geometry spread (`orgs × sizes × lines × profiles`).
    pub pool: usize,
    /// Reference budget per generated request.
    pub refs: usize,
    /// Probability in `[0, 1]` that a request carries a deadline.
    pub deadline_fraction: f64,
    /// The deadline attached to that fraction, in milliseconds.
    pub deadline_ms: u64,
    /// Policies to spread over (`--policy` strings).
    pub orgs: Vec<String>,
    /// Cache sizes to spread over (`--size` strings such as `"8K"`).
    pub sizes: Vec<String>,
    /// Line sizes in bytes to spread over.
    pub lines: Vec<u32>,
    /// Synthetic workload profiles to spread over.
    pub profiles: Vec<String>,
}

impl Default for MixConfig {
    /// A duplicate-heavy mix over a moderate geometry spread: three
    /// organizations, five sizes, two line sizes, and all ten SPEC'89
    /// profiles, revisited at a 50% duplicate ratio with no deadlines.
    fn default() -> MixConfig {
        MixConfig {
            seed: 42,
            duplicate_ratio: 0.5,
            pool: 64,
            refs: 100_000,
            deadline_fraction: 0.0,
            deadline_ms: 2_000,
            orgs: vec!["dm".to_owned(), "de".to_owned(), "opt".to_owned()],
            sizes: ["2K", "4K", "8K", "16K", "32K"].map(str::to_owned).to_vec(),
            lines: vec![4, 16],
            profiles: dynex_workload::spec::NAMES.map(str::to_owned).to_vec(),
        }
    }
}

/// A deterministic stream of [`SimulationRequest`]s drawn from a
/// [`MixConfig`].
///
/// # Examples
///
/// ```
/// use dynex_experiments::api::mix::{MixConfig, RequestMix};
///
/// let mut mix = RequestMix::new(MixConfig::default()).unwrap();
/// let first = mix.next_request();
/// let again = RequestMix::new(MixConfig::default()).unwrap().next_request();
/// assert_eq!(first, again); // same seed, same sequence
/// ```
#[derive(Debug, Clone)]
pub struct RequestMix {
    config: MixConfig,
    rng: SplitMix64,
    pool: Vec<SimulationRequest>,
    /// How many distinct pool entries have been issued at least once;
    /// duplicates are only drawn from this prefix so every duplicate is a
    /// request some earlier client actually sent.
    issued: usize,
}

impl RequestMix {
    /// Validates the config, builds the distinct request pool, and seeds
    /// the generator.
    ///
    /// The pool is a seeded shuffle of the full geometry spread truncated
    /// to `pool` entries, so its members are distinct by construction.
    /// Every pool entry passes the [`SimulationRequest`] builder's full
    /// validation here, before any load is generated.
    pub fn new(config: MixConfig) -> Result<RequestMix, ApiError> {
        let invalid = |field: &'static str, message: String| ApiError::Invalid { field, message };
        if config.orgs.is_empty()
            || config.sizes.is_empty()
            || config.lines.is_empty()
            || config.profiles.is_empty()
        {
            return Err(invalid(
                "mix",
                "orgs, sizes, lines, and profiles must each be non-empty".to_owned(),
            ));
        }
        if config.pool == 0 {
            return Err(invalid("mix.pool", "pool must be at least 1".to_owned()));
        }
        for (name, value) in [
            ("duplicate_ratio", config.duplicate_ratio),
            ("deadline_fraction", config.deadline_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(invalid(
                    "mix.ratio",
                    format!("{name} must be within [0, 1], got {value}"),
                ));
            }
        }

        // Enumerate the full spread in a fixed order, then shuffle with the
        // seed so which configurations make a small pool is itself seeded.
        let mut spread = Vec::new();
        for profile in &config.profiles {
            for size in &config.sizes {
                for &line in &config.lines {
                    for policy in &config.orgs {
                        let request = SimulationRequest::builder()
                            .policy(policy)
                            .size(size)
                            .line(line)
                            .profile(profile)
                            .refs(config.refs)
                            .jobs(1)
                            .build()?;
                        spread.push(request);
                    }
                }
            }
        }
        let mut rng = SplitMix64::new(config.seed);
        // Fisher–Yates with the mix's own PRNG.
        for i in (1..spread.len()).rev() {
            spread.swap(i, rng.below_usize(i + 1));
        }
        spread.truncate(config.pool);

        Ok(RequestMix {
            config,
            rng,
            pool: spread,
            issued: 0,
        })
    }

    /// The distinct request pool (without per-request deadlines).
    pub fn pool(&self) -> &[SimulationRequest] {
        &self.pool
    }

    /// Draws the next request.
    ///
    /// With probability `duplicate_ratio` the request repeats a
    /// configuration already issued; otherwise it issues the next unissued
    /// pool entry (cycling through the pool once it is exhausted). The
    /// deadline mix is applied independently, so a duplicate can carry a
    /// different deadline — deadlines are excluded from the content key, so
    /// it still hits the same server-side cache entry.
    pub fn next_request(&mut self) -> SimulationRequest {
        let fresh_available = self.issued < self.pool.len();
        let duplicate =
            self.issued > 0 && (self.rng.chance(self.config.duplicate_ratio) || !fresh_available);
        let index = if duplicate {
            self.rng.below_usize(self.issued)
        } else {
            self.issued += 1;
            self.issued - 1
        };
        let mut request = self.pool[index].clone();
        if self.rng.chance(self.config.deadline_fraction) {
            request.deadline_ms = Some(self.config.deadline_ms);
        }
        request
    }

    /// The configuration this mix was built from.
    pub fn config(&self) -> &MixConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RequestMix::new(MixConfig::default()).unwrap();
        let mut b = RequestMix::new(MixConfig::default()).unwrap();
        for _ in 0..200 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RequestMix::new(MixConfig::default()).unwrap();
        let mut b = RequestMix::new(MixConfig {
            seed: 43,
            ..MixConfig::default()
        })
        .unwrap();
        let differs = (0..50).any(|_| a.next_request() != b.next_request());
        assert!(differs, "seeds 42 and 43 generated identical streams");
    }

    #[test]
    fn pool_members_are_distinct_and_validated() {
        let mix = RequestMix::new(MixConfig::default()).unwrap();
        assert_eq!(mix.pool().len(), 64);
        let keys: HashSet<String> = mix
            .pool()
            .iter()
            .map(|r| r.routing_key().unwrap())
            .collect();
        assert_eq!(keys.len(), 64, "pool entries must be distinct");
    }

    #[test]
    fn pool_clamps_to_spread_size() {
        let config = MixConfig {
            pool: 10_000,
            orgs: vec!["dm".to_owned()],
            sizes: vec!["8K".to_owned()],
            lines: vec![4],
            profiles: vec!["gcc".to_owned(), "li".to_owned()],
            ..MixConfig::default()
        };
        assert_eq!(RequestMix::new(config).unwrap().pool().len(), 2);
    }

    #[test]
    fn duplicate_ratio_zero_issues_the_whole_pool_before_repeating() {
        let config = MixConfig {
            duplicate_ratio: 0.0,
            pool: 16,
            ..MixConfig::default()
        };
        let mut mix = RequestMix::new(config).unwrap();
        let mut seen = HashSet::new();
        for _ in 0..16 {
            assert!(
                seen.insert(mix.next_request().routing_key().unwrap()),
                "repeat before the pool was exhausted"
            );
        }
        // Pool exhausted: the stream keeps serving (now necessarily
        // duplicate) requests instead of panicking.
        assert!(!seen.insert(mix.next_request().routing_key().unwrap()));
    }

    #[test]
    fn duplicate_ratio_one_issues_a_single_configuration() {
        let config = MixConfig {
            duplicate_ratio: 1.0,
            ..MixConfig::default()
        };
        let mut mix = RequestMix::new(config).unwrap();
        let keys: HashSet<String> = (0..50)
            .map(|_| mix.next_request().routing_key().unwrap())
            .collect();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn deadline_fraction_controls_deadline_presence() {
        let mut never = RequestMix::new(MixConfig {
            deadline_fraction: 0.0,
            ..MixConfig::default()
        })
        .unwrap();
        assert!((0..100).all(|_| never.next_request().deadline_ms.is_none()));

        let mut always = RequestMix::new(MixConfig {
            deadline_fraction: 1.0,
            deadline_ms: 750,
            ..MixConfig::default()
        })
        .unwrap();
        assert!((0..100).all(|_| always.next_request().deadline_ms == Some(750)));
    }

    #[test]
    fn bad_configs_fail_loudly() {
        for config in [
            MixConfig {
                pool: 0,
                ..MixConfig::default()
            },
            MixConfig {
                duplicate_ratio: 1.5,
                ..MixConfig::default()
            },
            MixConfig {
                deadline_fraction: -0.1,
                ..MixConfig::default()
            },
            MixConfig {
                orgs: Vec::new(),
                ..MixConfig::default()
            },
            MixConfig {
                profiles: vec!["no-such-profile".to_owned()],
                ..MixConfig::default()
            },
        ] {
            assert!(RequestMix::new(config.clone()).is_err(), "{config:?}");
        }
    }
}
