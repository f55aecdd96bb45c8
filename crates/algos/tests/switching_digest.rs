//! Golden schedule digest of the §7 day/night combination.
//!
//! The paper combination (SMART-FFIA + EASY by weekday daytime, Garey &
//! Graham otherwise) runs a fixed CTC-like trace long enough to cross
//! many regime boundaries, and the FNV-1a digest of its placements is
//! compared with the committed value. A deliberate behaviour change
//! regenerates it from the failure message.

use jobsched_algos::ListScheduler;
use jobsched_sim::simulate;
use jobsched_workload::ctc::prepared_ctc_workload;

const JOBS: usize = 4_000;
const SEED: u64 = 1999;
const EXPECTED: u64 = 0x0e09_e07b_cd56_cb8a;

#[test]
fn paper_combination_placements_are_pinned() {
    let workload = prepared_ctc_workload(JOBS, SEED);
    let outcome = simulate(&workload, &mut ListScheduler::paper_combination());
    assert!(outcome.schedule.validate(&workload).is_empty());
    // FNV-1a 64 over `(start, completion)` of every job in id order.
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for job in workload.jobs() {
        let p = outcome.schedule.placement(job.id).expect("job placed");
        for word in [p.start, p.completion] {
            for byte in word.to_le_bytes() {
                state ^= byte as u64;
                state = state.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        state, EXPECTED,
        "paper combination digest changed: {state:#018x}"
    );
}
