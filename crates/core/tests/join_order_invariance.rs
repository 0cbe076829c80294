//! Property suite for the delayed-reward join buffer: the order (and the
//! round, within the window) in which rewards arrive must not change what
//! the buffer releases — and therefore must not change the model trained on
//! the released decisions.
//!
//! The argument: [`RewardJoinBuffer`] finalizes a decision exactly when the
//! buffer advances past `decided_round + max_delay`, always in ticket
//! order, so the released sequence depends only on *which* decisions got a
//! reward inside their window, never on when or in what order the rewards
//! showed up. Feeding the released stream into LinUCB then produces
//! parameters that agree far below the 1e-12 bar (they are bit-identical).

use p2b_bandit::{Action, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_core::{DecisionTicket, RewardJoinBuffer};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMENSION: usize = 4;
const NUM_ACTIONS: usize = 3;
const DECISIONS_PER_ROUND: usize = 4;

/// One decision: a model context (picked by cluster), an action, the reward
/// that will eventually arrive and its delivery delay in rounds.
#[derive(Debug, Clone, Copy)]
struct Decision {
    cluster: usize,
    action: usize,
    reward: f64,
    delay: u64,
}

fn decisions(max_delay: u64) -> impl Strategy<Value = Vec<Decision>> {
    const REWARDS: [f64; 4] = [0.0, 0.25, 0.75, 1.0];
    prop::collection::vec(
        (
            0..DIMENSION,
            0..NUM_ACTIONS,
            0..REWARDS.len(),
            0..=max_delay,
        )
            .prop_map(|(cluster, action, reward, delay)| Decision {
                cluster,
                action,
                reward: REWARDS[reward],
                delay,
            }),
        1..48,
    )
}

fn context(cluster: usize) -> Vector {
    let mut raw = vec![0.05; DIMENSION];
    raw[cluster % DIMENSION] = 1.0;
    Vector::from(raw).normalized_l1().expect("non-empty")
}

/// Replays the decision stream through a join buffer. Decisions are made in
/// fixed rounds (`DECISIONS_PER_ROUND` per round); each decision's reward is
/// delivered `delay` rounds later. `shuffle_seed` permutes the join-call
/// order *within* each delivery round (`None` keeps ticket order), and
/// `stretch_delays` re-times deliveries to the end of each window — both
/// perturbations the buffer must be invariant to. The released stream is
/// folded into a LinUCB model in release order.
fn run(
    decisions: &[Decision],
    max_delay: u64,
    shuffle_seed: Option<u64>,
    stretch_delays: bool,
) -> (LinUcb, u64, u64) {
    let mut buffer: RewardJoinBuffer<(usize, usize)> = RewardJoinBuffer::new(max_delay);
    let mut model = LinUcb::new(LinUcbConfig::new(DIMENSION, NUM_ACTIONS)).expect("valid config");
    // arrivals[r] = rewards to deliver while the buffer is in round r.
    let rounds = decisions.len().div_ceil(DECISIONS_PER_ROUND) as u64;
    // Delivery rounds must cover the largest *scheduled* delay, which the
    // strategies bound by 4 — even when it exceeds this run's join window
    // (that is how out-of-window expiry gets exercised).
    let max_scheduled_delay = decisions.iter().map(|d| d.delay).max().unwrap_or(0);
    let horizon = (rounds + max_scheduled_delay.max(max_delay) + 2) as usize;
    let mut arrivals: Vec<Vec<(DecisionTicket, f64)>> = vec![Vec::new(); horizon];
    let mut shuffle_rng = shuffle_seed.map(StdRng::seed_from_u64);

    let mut released = 0u64;
    let mut pending = decisions.iter();
    for round in 0..rounds {
        for decision in pending.by_ref().take(DECISIONS_PER_ROUND) {
            let ticket = buffer.record((decision.cluster, decision.action));
            let delay = if stretch_delays {
                max_delay
            } else {
                decision.delay
            };
            arrivals[(round + delay) as usize].push((ticket, decision.reward));
        }
        deliver(&mut buffer, &mut arrivals[round as usize], &mut shuffle_rng);
        released += fold(&mut model, buffer.advance_round().joined);
    }
    // Trailing delivery rounds after the last decision round.
    for round in rounds..horizon as u64 {
        deliver(&mut buffer, &mut arrivals[round as usize], &mut shuffle_rng);
        released += fold(&mut model, buffer.advance_round().joined);
    }
    released += fold(&mut model, buffer.finish().joined);
    (model, released, buffer.stats().expired)
}

fn deliver(
    buffer: &mut RewardJoinBuffer<(usize, usize)>,
    due: &mut Vec<(DecisionTicket, f64)>,
    shuffle_rng: &mut Option<StdRng>,
) {
    if let Some(rng) = shuffle_rng {
        // Fisher–Yates: arrival order within the round is adversarial.
        for i in (1..due.len()).rev() {
            let j = rng.gen_range(0..=i);
            due.swap(i, j);
        }
    }
    for (ticket, reward) in due.drain(..) {
        buffer
            .join(ticket, reward)
            .expect("join in window succeeds");
    }
}

fn fold(model: &mut LinUcb, joined: Vec<p2b_core::JoinedDecision<(usize, usize)>>) -> u64 {
    let count = joined.len() as u64;
    for decision in joined {
        let (cluster, action) = decision.payload;
        model
            .update(&context(cluster), Action::new(action), decision.reward)
            .expect("released decisions are well-formed");
    }
    count
}

fn assert_models_match(a: &LinUcb, b: &LinUcb, label: &str) {
    assert_eq!(a.observations(), b.observations(), "{label}: observations");
    for action in 0..NUM_ACTIONS {
        let action = Action::new(action);
        // The designs the two factors stand for.
        let design_diff = (a.factor(action).unwrap().reconstruct())
            .max_abs_diff(&b.factor(action).unwrap().reconstruct())
            .unwrap();
        assert!(
            design_diff <= 1e-12,
            "{label}: design({action:?}) differs by {design_diff}"
        );
        let ta = a.theta(action).unwrap();
        let tb = b.theta(action).unwrap();
        for i in 0..DIMENSION {
            assert!(
                (ta[i] - tb[i]).abs() <= 1e-12,
                "{label}: theta({action:?})[{i}] {} vs {}",
                ta[i],
                tb[i]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shuffling the reward arrival order within each round — and even
    /// re-timing every delivery to the last round of its window — yields a
    /// final model identical (≤ 1e-12) to in-order, on-time arrival.
    #[test]
    fn join_release_is_arrival_order_invariant(
        max_delay in 0u64..4,
        decisions in decisions(3),
        shuffle_seed in any::<u64>(),
    ) {
        // Clamp per-decision delays into this case's window.
        let decisions: Vec<Decision> = decisions
            .into_iter()
            .map(|mut d| { d.delay = d.delay.min(max_delay); d })
            .collect();
        let (in_order, released_a, expired_a) = run(&decisions, max_delay, None, false);
        let (shuffled, released_b, expired_b) =
            run(&decisions, max_delay, Some(shuffle_seed), false);
        prop_assert_eq!(released_a, released_b, "released counts");
        prop_assert_eq!(expired_a, expired_b, "expired counts");
        assert_models_match(&in_order, &shuffled, "shuffled arrival");

        let (stretched, released_c, _) = run(&decisions, max_delay, Some(shuffle_seed), true);
        prop_assert_eq!(released_a, released_c, "released counts (stretched)");
        assert_models_match(&in_order, &stretched, "window-edge arrival");
    }

    /// Every recorded decision is accounted for exactly once: released when
    /// its reward arrived in the window, expired otherwise.
    #[test]
    fn decisions_are_conserved(
        max_delay in 0u64..3,
        decisions in decisions(4),
    ) {
        let (_, released, expired) = run(&decisions, max_delay, None, false);
        let in_window = decisions.iter().filter(|d| d.delay <= max_delay).count() as u64;
        let lost = decisions.len() as u64 - in_window;
        prop_assert_eq!(released, in_window, "in-window rewards all release");
        prop_assert_eq!(expired, lost, "out-of-window decisions all expire");
    }
}
