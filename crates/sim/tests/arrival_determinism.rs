//! Property suite for the seeded open-loop arrival process.
//!
//! The serve harness's worker-count-invariant deterministic summary rests on
//! two claims checked here: (1) the stream is a pure function of the index,
//! so materializing it again yields the same events; (2) the two-tier skew
//! knob actually delivers its nominal head/tail traffic split.

use p2b_sim::{ArrivalConfig, ArrivalProcess};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = ArrivalConfig> {
    (
        1u64..50_000, // num_users
        1u64..200,    // num_codes
        any::<u64>(), // seed
        1u64..=4,     // hot fraction in 1/8 steps: 1..=4 -> 0.125..=0.5
        0u64..=10,    // hot share in tenths
        1u64..5_000,  // mean inter-arrival nanos
    )
        .prop_map(|(users, codes, seed, frac, share, mean)| {
            ArrivalConfig::new(users, codes, seed)
                .with_hot_code_fraction(frac as f64 / 8.0)
                .with_hot_traffic_share(share as f64 / 10.0)
                .with_mean_interarrival_nanos(mean)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two materializations of the same range agree event-by-event — the
    /// stream carries no hidden state between calls.
    #[test]
    fn rematerialization_is_stable(config in arb_config(), len in 1u64..400) {
        let process = ArrivalProcess::new(config).expect("valid config");
        let first = process.events(0, len);
        let second = process.events(0, len);
        prop_assert_eq!(first, second);
    }

    /// Timestamps are strictly monotone (open-loop clock) and every field
    /// stays in range.
    #[test]
    fn events_are_well_formed(config in arb_config(), len in 2u64..600) {
        let process = ArrivalProcess::new(config.clone()).expect("valid config");
        let events = process.events(0, len);
        for pair in events.windows(2) {
            prop_assert!(pair[0].timestamp_nanos < pair[1].timestamp_nanos);
        }
        for event in &events {
            prop_assert!(event.user < config.num_users);
            prop_assert!(event.code < config.num_codes);
        }
    }

    /// The hot head receives its nominal traffic share within sampling
    /// tolerance: over n draws the observed head mass is a Binomial(n, s)
    /// proportion, so 5 standard deviations plus a small absolute floor
    /// bounds it except with negligible probability.
    #[test]
    fn skew_knob_matches_nominal_head_mass(
        seed in any::<u64>(),
        share in 0u64..=10,
        frac in 1u64..=4,
    ) {
        let share = share as f64 / 10.0;
        let config = ArrivalConfig::new(100_000, 80, seed)
            .with_hot_code_fraction(frac as f64 / 8.0)
            .with_hot_traffic_share(share);
        let process = ArrivalProcess::new(config).expect("valid config");
        let n = 4_096u64;
        let hot_hits = process
            .events(0, n)
            .iter()
            .filter(|e| process.is_hot(e.code))
            .count() as f64;
        let observed = hot_hits / n as f64;
        let sigma = (share * (1.0 - share) / n as f64).sqrt();
        let tolerance = 5.0 * sigma + 0.01;
        prop_assert!(
            (observed - share).abs() <= tolerance,
            "observed head mass {} vs nominal {} (tolerance {})",
            observed, share, tolerance
        );
    }
}

/// The canonical 80/20 default: 20% of codes carry 80% of the traffic, and
/// the cold tail spreads the remainder across every cold code.
#[test]
fn default_is_eighty_twenty() {
    let process = ArrivalProcess::new(ArrivalConfig::new(1_000_000, 100, 9)).expect("valid");
    assert_eq!(process.hot_codes(), 20);
    let events = process.events(0, 20_000);
    let hot = events.iter().filter(|e| process.is_hot(e.code)).count() as f64;
    let mass = hot / events.len() as f64;
    assert!((mass - 0.8).abs() < 0.02, "head mass {mass}");
    // Cold codes are not starved: the tail's 20% lands across many codes.
    let distinct_cold: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| !process.is_hot(e.code))
        .map(|e| e.code)
        .collect();
    assert!(
        distinct_cold.len() > 60,
        "cold codes seen: {}",
        distinct_cold.len()
    );
}
