//! Seeded open-loop arrival process for the serving harness.
//!
//! `p2b-serve` drives the closed loop (pool → select → shuffle → ingest →
//! join) with traffic from this module. Two properties matter more than
//! realism:
//!
//! 1. **Pure indexing.** Event `i` is a pure function of `(seed, i)` — no
//!    shared RNG stream, no state carried between events. This is what makes
//!    the harness's deterministic summary byte-identical at *any* worker
//!    count: an event and every draw derived from it depend on its index
//!    alone, never on which thread computes it or in what order.
//! 2. **Skew.** Real code popularity is heavy-tailed. We model the
//!    paper-relevant shape with a two-tier Zipf-like split: a *hot head*
//!    (`hot_code_fraction` of codes) receives `hot_traffic_share` of the
//!    traffic (the classic 80/20 at the defaults), the cold tail splits the
//!    rest uniformly.
//!
//! Timestamps are open-loop: event `i` arrives at
//! `i * mean_interarrival_nanos + jitter(i)` with `jitter < mean`, so the
//! stream is strictly monotone and the offered load never adapts to the
//! system's response time (queueing delay is visible, not hidden).
//!
//! Beyond the event fields, [`ArrivalProcess::noise`] exposes the raw
//! counter-based noise lanes so consumers (the serve harness) can derive
//! *additional* per-event randomness — reward coin flips, join delays,
//! per-decision RNG seeds — from the same pure source. Lanes `0..8` are
//! reserved for the fields of [`ArrivalEvent`]; consumers should use lanes
//! `>= 8`.

use crate::error::SimError;
use p2b_shuffler::splitmix64;
use serde::{Deserialize, Serialize};

/// Noise lane for the user id draw.
const LANE_USER: u64 = 0;
/// Noise lane for the hot/cold tier coin.
const LANE_TIER: u64 = 1;
/// Noise lane for the code pick within the tier.
const LANE_CODE: u64 = 2;
/// Noise lane for the inter-arrival jitter.
const LANE_JITTER: u64 = 3;

/// First noise lane free for consumers of the process (the serve harness
/// derives reward presence, join delay and per-decision RNG seeds from
/// these).
pub const LANE_CONSUMER_BASE: u64 = 8;

/// Configuration for an [`ArrivalProcess`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Number of distinct simulated users.
    pub num_users: u64,
    /// Number of distinct context codes.
    pub num_codes: u64,
    /// Fraction of codes forming the hot head (`0 < f <= 1`).
    pub hot_code_fraction: f64,
    /// Share of traffic landing on the hot head (`0 <= s <= 1`).
    pub hot_traffic_share: f64,
    /// Mean inter-arrival gap in nanoseconds (`>= 1`).
    pub mean_interarrival_nanos: u64,
    /// Seed for all noise lanes.
    pub seed: u64,
}

impl ArrivalConfig {
    /// A Zipf-like 80/20 default: 20% of codes carry 80% of traffic.
    pub fn new(num_users: u64, num_codes: u64, seed: u64) -> Self {
        Self {
            num_users,
            num_codes,
            hot_code_fraction: 0.2,
            hot_traffic_share: 0.8,
            mean_interarrival_nanos: 1_000,
            seed,
        }
    }

    /// Overrides the hot head size (fraction of codes).
    pub fn with_hot_code_fraction(mut self, fraction: f64) -> Self {
        self.hot_code_fraction = fraction;
        self
    }

    /// Overrides the share of traffic landing on the hot head.
    pub fn with_hot_traffic_share(mut self, share: f64) -> Self {
        self.hot_traffic_share = share;
        self
    }

    /// Overrides the mean inter-arrival gap in nanoseconds.
    pub fn with_mean_interarrival_nanos(mut self, nanos: u64) -> Self {
        self.mean_interarrival_nanos = nanos;
        self
    }
}

/// One arrival: user `user` presents context code `code` at
/// `timestamp_nanos` on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Position in the stream (the pure-function argument).
    pub index: u64,
    /// Simulated user id in `0..num_users`.
    pub user: u64,
    /// Context code in `0..num_codes`.
    pub code: u64,
    /// Open-loop arrival time in nanoseconds; strictly increasing in
    /// `index`.
    pub timestamp_nanos: u64,
}

/// Seeded open-loop arrival stream with two-tier Zipf-like code skew.
///
/// Every event is a pure function of `(config.seed, index)`; see the module
/// docs for why.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    config: ArrivalConfig,
    hot_codes: u64,
}

impl ArrivalProcess {
    /// Validates `config` and builds the process.
    pub fn new(config: ArrivalConfig) -> Result<Self, SimError> {
        if config.num_users == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_users",
                message: "must be at least 1".to_owned(),
            });
        }
        if config.num_codes == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_codes",
                message: "must be at least 1".to_owned(),
            });
        }
        if !(config.hot_code_fraction > 0.0 && config.hot_code_fraction <= 1.0) {
            return Err(SimError::InvalidConfig {
                parameter: "hot_code_fraction",
                message: format!("must be in (0, 1], got {}", config.hot_code_fraction),
            });
        }
        if !(0.0..=1.0).contains(&config.hot_traffic_share) {
            return Err(SimError::InvalidConfig {
                parameter: "hot_traffic_share",
                message: format!("must be in [0, 1], got {}", config.hot_traffic_share),
            });
        }
        if config.mean_interarrival_nanos == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "mean_interarrival_nanos",
                message: "must be at least 1 (timestamps must strictly increase)".to_owned(),
            });
        }
        let hot_codes = ((config.num_codes as f64 * config.hot_code_fraction).round() as u64)
            .clamp(1, config.num_codes);
        Ok(Self { config, hot_codes })
    }

    /// The configuration the process was built from.
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// Number of codes in the hot head; the hot set is `0..hot_codes()`.
    pub fn hot_codes(&self) -> u64 {
        self.hot_codes
    }

    /// Whether `code` belongs to the hot head.
    pub fn is_hot(&self, code: u64) -> bool {
        code < self.hot_codes
    }

    /// Counter-based noise: a uniform `u64` that is a pure function of
    /// `(seed, index, lane)`.
    ///
    /// Distinct lanes of the same index are independent draws, which lets
    /// consumers attach as many per-event random variables as they need
    /// without perturbing the stream itself. Lanes below
    /// [`LANE_CONSUMER_BASE`] are reserved for [`ArrivalEvent`] fields.
    pub fn noise(&self, index: u64, lane: u64) -> u64 {
        let base = splitmix64(self.config.seed ^ splitmix64(index.wrapping_add(0x51ED_270B)));
        splitmix64(base ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Materializes event `index` of the stream.
    pub fn event(&self, index: u64) -> ArrivalEvent {
        let user = bounded(self.noise(index, LANE_USER), self.config.num_users);
        let code = self.pick_code(index);
        let mean = self.config.mean_interarrival_nanos;
        // jitter < mean keeps consecutive timestamps strictly increasing:
        // t(i+1) - t(i) = mean + j(i+1) - j(i) > mean - mean = 0.
        let jitter = bounded(self.noise(index, LANE_JITTER), mean);
        ArrivalEvent {
            index,
            user,
            code,
            timestamp_nanos: index.saturating_mul(mean).saturating_add(jitter),
        }
    }

    fn pick_code(&self, index: u64) -> u64 {
        let cold_codes = self.config.num_codes - self.hot_codes;
        let hot =
            cold_codes == 0 || unit(self.noise(index, LANE_TIER)) < self.config.hot_traffic_share;
        if hot {
            bounded(self.noise(index, LANE_CODE), self.hot_codes)
        } else {
            self.hot_codes + bounded(self.noise(index, LANE_CODE), cold_codes)
        }
    }

    /// Materializes events `start..end` sequentially.
    pub fn events(&self, start: u64, end: u64) -> Vec<ArrivalEvent> {
        (start..end).map(|i| self.event(i)).collect()
    }
}

/// Maps a uniform `u64` onto `0..n` without modulo bias (fixed-point
/// multiply).
fn bounded(noise: u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((u128::from(noise) * u128::from(n)) >> 64) as u64
}

/// Maps a uniform `u64` onto `[0, 1)` with 53 bits of precision.
fn unit(noise: u64) -> f64 {
    (noise >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(seed: u64) -> ArrivalProcess {
        ArrivalProcess::new(ArrivalConfig::new(10_000, 50, seed)).unwrap()
    }

    #[test]
    fn validates_configuration() {
        assert!(ArrivalProcess::new(ArrivalConfig::new(0, 10, 1)).is_err());
        assert!(ArrivalProcess::new(ArrivalConfig::new(10, 0, 1)).is_err());
        assert!(
            ArrivalProcess::new(ArrivalConfig::new(10, 10, 1).with_hot_code_fraction(0.0)).is_err()
        );
        assert!(
            ArrivalProcess::new(ArrivalConfig::new(10, 10, 1).with_hot_traffic_share(1.5)).is_err()
        );
        assert!(
            ArrivalProcess::new(ArrivalConfig::new(10, 10, 1).with_mean_interarrival_nanos(0))
                .is_err()
        );
    }

    #[test]
    fn events_stay_in_range_and_timestamps_increase() {
        let p = process(7);
        let events = p.events(0, 2_000);
        for pair in events.windows(2) {
            assert!(pair[0].timestamp_nanos < pair[1].timestamp_nanos);
        }
        for e in &events {
            assert!(e.user < 10_000);
            assert!(e.code < 50);
        }
    }

    #[test]
    fn hot_head_size_is_rounded_and_clamped() {
        let p = process(1);
        assert_eq!(p.hot_codes(), 10); // 20% of 50
        let tiny =
            ArrivalProcess::new(ArrivalConfig::new(10, 3, 1).with_hot_code_fraction(0.01)).unwrap();
        assert_eq!(tiny.hot_codes(), 1);
        let all =
            ArrivalProcess::new(ArrivalConfig::new(10, 4, 1).with_hot_code_fraction(1.0)).unwrap();
        assert_eq!(all.hot_codes(), 4);
    }

    #[test]
    fn different_seeds_differ() {
        let a = process(1).events(0, 64);
        let b = process(2).events(0, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn noise_lanes_are_independent() {
        let p = process(3);
        let a = p.noise(42, LANE_CONSUMER_BASE);
        let b = p.noise(42, LANE_CONSUMER_BASE + 1);
        let c = p.noise(43, LANE_CONSUMER_BASE);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And stable: same (index, lane) always yields the same draw.
        assert_eq!(a, p.noise(42, LANE_CONSUMER_BASE));
    }
}
