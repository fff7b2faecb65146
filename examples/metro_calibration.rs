//! Metropolitan-scale deployment: entanglement swapping + calibration.
//!
//! Two datacenters 40 km apart want CHSH-coordinated load balancing. A
//! single 40 km fiber loses ~84% of photons, so a midpoint repeater node
//! swaps two 20 km pairs into one end-to-end pair (§3 cites exactly this
//! architecture [62, 63]). Before enabling the quantum strategy, the
//! operators run **state tomography** on a sample of delivered pairs to
//! estimate the visibility and check it clears the CHSH threshold 1/√2.
//!
//! Run with: `cargo run --release --example metro_calibration`

use qnlg::games::chsh::QuantumChshStrategy;
use qnlg::games::game::empirical_win_rate;
use qnlg::games::{chsh_werner_value, XorGame};
use qnlg::qnet::swap::{entanglement_swap, max_useful_hops};
use qnlg::qsim::noise::{werner, WERNER_CHSH_THRESHOLD};
use qnlg::qsim::{tomography, SharedPair};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    // Each 20 km segment delivers Werner pairs at v = 0.92 (source
    // imperfection + transmission dephasing).
    let segment_visibility = 0.92;
    println!("Per-segment pair visibility: {segment_visibility}");

    // The midpoint swaps two segment pairs into one end-to-end pair.
    let seg = werner(segment_visibility).expect("valid visibility");
    let sample = entanglement_swap(&seg, &seg, &mut rng).expect("2-qubit pairs");
    let v_expected = segment_visibility * segment_visibility;
    println!("After one swap, expected end-to-end visibility: {v_expected:.4} (v₁·v₂)");

    // Calibration: tomography on 9 × 2000 sampled pairs.
    println!("\nRunning Pauli tomography on 18,000 delivered pairs…");
    let swapped_state = sample.pair.clone();
    let data = tomography::collect(
        || SharedPair::from_density(swapped_state.clone()).expect("two qubits"),
        2_000,
        &mut rng,
    )
    .expect("valid pairs");
    let rho = data.reconstruct().expect("physical reconstruction");
    let v_measured = tomography::werner_visibility(&rho).expect("two qubits");
    println!("  measured visibility: {v_measured:.4}");
    println!("  CHSH threshold     : {WERNER_CHSH_THRESHOLD:.4} (1/√2)");

    let usable = v_measured > WERNER_CHSH_THRESHOLD;
    println!(
        "  verdict            : {}",
        if usable {
            "ENABLE quantum strategy"
        } else {
            "fall back to classical"
        }
    );
    assert!(usable, "0.92² ≈ 0.846 clears the threshold");

    // Confirm end-to-end: play CHSH over the swapped pairs.
    let pair_state = sample.pair.clone();
    let mut strategy = QuantumChshStrategy::with_source(move || {
        SharedPair::from_density(pair_state.clone()).expect("two qubits")
    });
    let rate = empirical_win_rate(&XorGame::chsh(), &mut strategy, 100_000, &mut rng);
    let theory = chsh_werner_value(v_expected);
    println!("\nCHSH over swapped pairs: win rate {rate:.4} (theory {theory:.4})");
    assert!(rate > 0.75, "swapped pairs must still beat classical");

    // Capacity planning: how far can this architecture reach?
    println!(
        "\nHop budget at v = {segment_visibility} per link: {} swaps before \
         the advantage dies",
        max_useful_hops(segment_visibility)
    );
    println!("\n✓ repeater-extended coordination verified and calibrated");
}
