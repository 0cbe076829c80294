//! Privacy analysis walkthrough: Equation 3's ε(p) curve, the δ bound, the
//! effect of repeated reporting, and a comparison with a RAPPOR-style local
//! randomized-response baseline.
//!
//! ```bash
//! cargo run --example privacy_analysis
//! ```

use p2b::privacy::{
    amplified_delta, amplified_epsilon, epsilon_sweep, participation_for_epsilon, Participation,
    PrivacyGuarantee, RandomizedResponse,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 3: epsilon as a function of the participation probability.
    println!("epsilon as a function of participation probability p (Equation 3):");
    for point in epsilon_sweep(0.1, 0.9, 9)? {
        println!("  p = {:.1}  ->  epsilon = {:.4}", point.p, point.epsilon);
    }

    // The headline operating point and its delta.
    let p = Participation::new(0.5)?;
    let epsilon = amplified_epsilon(p, 0.0)?;
    println!("\nheadline operating point: p = 0.5, epsilon = {epsilon:.6} (ln 2)");
    for l in [5u64, 10, 20, 50] {
        println!(
            "  shuffler threshold l = {l:>2}: delta = {:.3e}",
            amplified_delta(p, l, 0.1)?
        );
    }

    // Inverse question: what participation achieves a target budget?
    for target in [0.25, 0.5, 1.0] {
        let p = participation_for_epsilon(target)?;
        println!(
            "  to get epsilon = {target:.2}, participate with p = {:.3}",
            p.value()
        );
    }

    // Sequential composition: an agent reporting r tuples spends r * epsilon.
    let per_report = PrivacyGuarantee::pure(epsilon)?;
    let budget = PrivacyGuarantee::pure(3.0)?;
    let mut spent = PrivacyGuarantee::zero();
    let mut reports = 0;
    while spent.compose(&per_report).is_at_least_as_strong_as(&budget) {
        spent = spent.compose(&per_report);
        reports += 1;
    }
    println!(
        "\nwith a total budget of epsilon = 3.0 an agent can afford {reports} reports \
         (spent {:.3})",
        spent.epsilon()
    );

    // RAPPOR-style local baseline: same epsilon, but the report itself is noisy.
    let rr = RandomizedResponse::new(40, epsilon)?;
    println!(
        "\nlocal randomized response over 40 categories at the same epsilon keeps the \
         true value only {:.1}% of the time,",
        rr.truth_probability() * 100.0
    );
    let mut rng = StdRng::seed_from_u64(1);
    let reports: Vec<usize> = (0..20_000)
        .map(|i| {
            rr.randomize(if i % 5 == 0 { 7 } else { 3 }, &mut rng)
                .unwrap()
        })
        .collect();
    let estimate = rr.estimate_frequencies(&reports);
    println!(
        "which is only useful for aggregate statistics (estimated frequency of category 3: \
         {:.3}, true value 0.8) — the motivation for P2B's shuffler-based design.",
        estimate[3]
    );
    Ok(())
}
