//! The SMART shelf algorithm of Turek et al. \[21\] with the two packing
//! variants of Schwiegelshohn et al. \[14\] (§5.4).
//!
//! SMART builds a shelf schedule in three steps:
//!
//! 1. **Binning.** Jobs are assigned to bins by execution time; bin upper
//!    bounds form the geometric sequence `(0,1], (1,γ], (γ,γ²], …`.
//! 2. **Shelving.** Jobs within a bin are packed onto shelves (sub-
//!    schedules started concurrently), by one of:
//!    * *FFIA* — First Fit Increasing Area: sort by `time × nodes`
//!      ascending, place each job on the first shelf of its bin with room;
//!    * *NFIW* — Next Fit Increasing Width-to-Weight: sort by
//!      `nodes / weight` ascending, place on the current shelf or open a
//!      new one.
//! 3. **Ordering.** All shelves are ordered by Smith's rule \[19\]: the sum
//!    of job weights on the shelf divided by the longest execution time on
//!    the shelf; largest ratio first.
//!
//! Online (§5.4 modifications) SMART only produces a *job order* — the
//! concatenation of shelves in Smith order — which then feeds a greedy
//! list schedule with optional backfilling. That order is what
//! [`smart_order`] returns. Future availability enters downstream: the
//! shelf packer reasons only over the machine width, while the selection
//! pass consumes the machine's incremental availability calendar
//! ([`jobsched_sim::LiveProfile`]) through the backfilling scans — so the
//! profile rework leaves SMART's placements bit-identical.

use crate::view::JobView;
use jobsched_workload::{JobId, Time};

/// Shelf-packing variant (§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmartVariant {
    /// First Fit Increasing Area.
    Ffia,
    /// Next Fit Increasing Width-to-Weight.
    Nfiw,
}

impl SmartVariant {
    /// Label used in algorithm names ("SMART-FFIA" / "SMART-NFIW").
    pub fn label(&self) -> &'static str {
        match self {
            SmartVariant::Ffia => "FFIA",
            SmartVariant::Nfiw => "NFIW",
        }
    }
}

/// One shelf: jobs started concurrently.
#[derive(Clone, Debug)]
struct Shelf {
    jobs: Vec<JobView>,
    used_nodes: u32,
    max_time: Time,
    weight_sum: f64,
}

impl Shelf {
    fn new() -> Self {
        Shelf {
            jobs: Vec::new(),
            used_nodes: 0,
            max_time: 0,
            weight_sum: 0.0,
        }
    }

    fn push(&mut self, job: JobView) {
        self.used_nodes += job.nodes;
        self.max_time = self.max_time.max(job.time);
        self.weight_sum += job.weight;
        self.jobs.push(job);
    }

    fn fits(&self, job: &JobView, machine_nodes: u32) -> bool {
        self.used_nodes + job.nodes <= machine_nodes
    }

    /// Smith ratio of the shelf: Σ weights / max execution time.
    fn smith_ratio(&self) -> f64 {
        self.weight_sum / self.max_time.max(1) as f64
    }
}

/// Bin index for an execution time: bin 0 covers `(0, 1]`, bin k covers
/// `(γ^(k-1), γ^k]`.
pub fn bin_index(time: Time, gamma: f64) -> u32 {
    assert!(gamma > 1.0, "gamma must exceed 1");
    if time <= 1 {
        return 0;
    }
    // Smallest k with γ^k ≥ time.
    let k = (time as f64).ln() / gamma.ln();
    let mut idx = k.ceil() as u32;
    // Guard against floating-point edge cases at exact powers.
    while idx > 0 && gamma.powi(idx as i32 - 1) >= time as f64 {
        idx -= 1;
    }
    while gamma.powi(idx as i32) < time as f64 {
        idx += 1;
    }
    idx
}

/// Compute the SMART job order for the given waiting jobs.
///
/// The returned ids are the shelves in Smith order, each shelf's jobs in
/// packing order. Deterministic: all ties break by job id (submission
/// order).
pub fn smart_order(
    jobs: &[JobView],
    machine_nodes: u32,
    gamma: f64,
    variant: SmartVariant,
) -> Vec<JobId> {
    if jobs.is_empty() {
        return Vec::new();
    }
    // Step 1: binning by execution time.
    let mut bins: std::collections::BTreeMap<u32, Vec<JobView>> = std::collections::BTreeMap::new();
    for &job in jobs {
        bins.entry(bin_index(job.time, gamma))
            .or_default()
            .push(job);
    }

    // Step 2: shelving within each bin.
    let mut shelves: Vec<(u32, usize, Shelf)> = Vec::new(); // (bin, shelf idx, shelf)
    for (bin, mut members) in bins {
        match variant {
            SmartVariant::Ffia => {
                members.sort_by(|a, b| {
                    a.area()
                        .partial_cmp(&b.area())
                        .expect("finite areas")
                        .then(a.id.cmp(&b.id))
                });
                let mut bin_shelves: Vec<Shelf> = Vec::new();
                for job in members {
                    match bin_shelves.iter_mut().find(|s| s.fits(&job, machine_nodes)) {
                        Some(shelf) => shelf.push(job),
                        None => {
                            let mut s = Shelf::new();
                            s.push(job);
                            bin_shelves.push(s);
                        }
                    }
                }
                for (i, s) in bin_shelves.into_iter().enumerate() {
                    shelves.push((bin, i, s));
                }
            }
            SmartVariant::Nfiw => {
                members.sort_by(|a, b| {
                    let ka = a.nodes as f64 / a.weight;
                    let kb = b.nodes as f64 / b.weight;
                    ka.partial_cmp(&kb)
                        .expect("finite keys")
                        .then(a.id.cmp(&b.id))
                });
                let mut bin_shelves: Vec<Shelf> = vec![Shelf::new()];
                for job in members {
                    let current = bin_shelves.last_mut().expect("non-empty");
                    if current.jobs.is_empty() || current.fits(&job, machine_nodes) {
                        current.push(job);
                    } else {
                        let mut s = Shelf::new();
                        s.push(job);
                        bin_shelves.push(s);
                    }
                }
                for (i, s) in bin_shelves.into_iter().enumerate() {
                    if !s.jobs.is_empty() {
                        shelves.push((bin, i, s));
                    }
                }
            }
        }
    }

    // Step 3: Smith ordering of shelves, largest ratio first.
    shelves.sort_by(|(ba, ia, a), (bb, ib, b)| {
        b.smith_ratio()
            .partial_cmp(&a.smith_ratio())
            .expect("finite ratios")
            .then(ba.cmp(bb))
            .then(ia.cmp(ib))
    });

    shelves
        .into_iter()
        .flat_map(|(_, _, s)| s.jobs.into_iter().map(|j| j.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, nodes: u32, time: Time, weight: f64) -> JobView {
        JobView {
            id: JobId(id),
            nodes,
            time,
            weight,
        }
    }

    #[test]
    fn bin_index_geometric_gamma2() {
        assert_eq!(bin_index(1, 2.0), 0);
        assert_eq!(bin_index(2, 2.0), 1);
        assert_eq!(bin_index(3, 2.0), 2);
        assert_eq!(bin_index(4, 2.0), 2);
        assert_eq!(bin_index(5, 2.0), 3);
        assert_eq!(bin_index(8, 2.0), 3);
        assert_eq!(bin_index(1024, 2.0), 10);
        assert_eq!(bin_index(1025, 2.0), 11);
    }

    #[test]
    fn bin_index_other_gamma() {
        // γ=3: (0,1], (1,3], (3,9], (9,27] ...
        assert_eq!(bin_index(1, 3.0), 0);
        assert_eq!(bin_index(3, 3.0), 1);
        assert_eq!(bin_index(4, 3.0), 2);
        assert_eq!(bin_index(9, 3.0), 2);
        assert_eq!(bin_index(10, 3.0), 3);
    }

    #[test]
    fn empty_input_empty_order() {
        assert!(smart_order(&[], 256, 2.0, SmartVariant::Ffia).is_empty());
    }

    #[test]
    fn order_is_permutation() {
        let jobs: Vec<JobView> = (0..50)
            .map(|i| view(i, 1 + i % 17, 1 + (i as Time * 37) % 5000, 1.0))
            .collect();
        for variant in [SmartVariant::Ffia, SmartVariant::Nfiw] {
            let order = smart_order(&jobs, 64, 2.0, variant);
            let mut ids: Vec<u32> = order.iter().map(|j| j.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..50).collect::<Vec<_>>(), "{variant:?}");
        }
    }

    #[test]
    fn unweighted_short_shelves_first() {
        // Many short unit jobs vs one long job: the short-job shelf has a
        // much larger Smith ratio (count / short time) and must lead.
        let mut jobs = vec![view(0, 10, 10_000, 1.0)];
        for i in 1..=5 {
            jobs.push(view(i, 10, 10, 1.0));
        }
        let order = smart_order(&jobs, 64, 2.0, SmartVariant::Ffia);
        assert_eq!(
            order.last(),
            Some(&JobId(0)),
            "long job scheduled last: {order:?}"
        );
    }

    #[test]
    fn ffia_packs_first_fit_by_area() {
        // Same bin (times 9, 10 → bin 4 for γ=2 covers (8,16]).
        // Areas: j0=90, j1=60, j2=100. Increasing area: j1, j0, j2.
        // Machine 16: shelf gets j1 (6) + j0 (9) = 15; j2 (10) opens new.
        let jobs = vec![
            view(0, 9, 10, 1.0),
            view(1, 6, 10, 1.0),
            view(2, 10, 10, 1.0),
        ];
        let order = smart_order(&jobs, 16, 2.0, SmartVariant::Ffia);
        assert_eq!(order, vec![JobId(1), JobId(0), JobId(2)]);
    }

    #[test]
    fn nfiw_never_looks_back() {
        // Next-fit: once a shelf closes, earlier space is wasted.
        // Width/weight keys: j2 = 0.2, j0 = 0.6, j1 = 1.0, j3 = 1.0
        // (tie → id order). Shelf1 takes j2 + j0 (8 nodes); j1 (10) does
        // not fit and opens shelf2; j3 (width 1) would fit shelf1 under
        // first-fit, but next-fit places it on the current shelf2.
        let jobs = vec![
            view(0, 6, 10, 10.0),
            view(1, 10, 10, 10.0),
            view(2, 2, 10, 10.0),
            view(3, 1, 10, 1.0),
        ];
        let order = smart_order(&jobs, 16, 2.0, SmartVariant::Nfiw);
        // Shelf1 = [j2, j0] (weight 20), shelf2 = [j1, j3] (weight 11);
        // equal max times ⇒ shelf1 first.
        assert_eq!(order, vec![JobId(2), JobId(0), JobId(1), JobId(3)]);
    }

    #[test]
    fn weighted_dense_shelf_first() {
        // Two single-job shelves with equal time: higher weight first.
        let jobs = vec![view(0, 8, 100, 1.0), view(1, 8, 100, 50.0)];
        let order = smart_order(&jobs, 8, 2.0, SmartVariant::Ffia);
        assert_eq!(order, vec![JobId(1), JobId(0)]);
    }

    #[test]
    fn deterministic_under_permutation() {
        let jobs: Vec<JobView> = (0..30)
            .map(|i| {
                view(
                    i,
                    1 + i % 9,
                    1 + (i as Time * 13) % 300,
                    1.0 + (i % 4) as f64,
                )
            })
            .collect();
        let mut shuffled = jobs.clone();
        shuffled.reverse();
        for variant in [SmartVariant::Ffia, SmartVariant::Nfiw] {
            assert_eq!(
                smart_order(&jobs, 32, 2.0, variant),
                smart_order(&shuffled, 32, 2.0, variant),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn shelf_never_overflows_machine() {
        let jobs: Vec<JobView> = (0..200)
            .map(|i| view(i, 1 + (i * 7) % 60, 1 + (i as Time * 31) % 1000, 1.0))
            .collect();
        // Reconstruct shelf widths from the order: jobs in one shelf share
        // a bin and appear contiguously. Validate via packing invariant
        // directly instead: re-run packing logic by checking no prefix of
        // same-bin contiguous jobs exceeds the machine... simpler: the
        // algorithm's internal assertion is the Shelf::fits check; here we
        // just confirm a permutation is produced for a stressy input.
        let order = smart_order(&jobs, 64, 2.0, SmartVariant::Ffia);
        assert_eq!(order.len(), jobs.len());
    }

    #[test]
    #[should_panic(expected = "gamma must exceed 1")]
    fn gamma_one_rejected() {
        let _ = bin_index(5, 1.0);
    }
}
