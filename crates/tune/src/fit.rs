//! Learning the scalarization: which weight vector over the atlas's
//! objective axes reproduces the per-workload Pareto ranks?
//!
//! The paper's administrator picks *one* objective per regime; the
//! atlas instead measures every policy under six. This module asks the
//! inverse question: if the non-domination ranks of the atlas are the
//! ground-truth preference order, which linear scalarization
//! `s = Σ wⱼ·cⱼ` agrees with it best? The loss is the number of *rank
//! violations* — ordered pairs `(i, j)` where point `i` outranks `j`
//! (strictly better non-domination layer) yet scores no better
//! (`sᵢ ≥ sⱼ`) — summed over workload groups, so one weight vector must
//! explain every workload at once.
//!
//! Search is deterministic and derivative-free: a coarse grid over the
//! weight simplex seeds coordinate descent (per-coordinate multiplier
//! ladder, strict-improvement steps only). Costs are normalised by
//! their per-(group, objective) mean first, so axes with large units
//! (response times in seconds) cannot drown dimensionless ones
//! (slowdowns). The loss is invariant under scaling the whole vector,
//! so the result is reported normalised to `Σ wⱼ = 1`.
//!
//! Rank layers are not always linearly separable — a front of mutually
//! non-dominated points has no order for *any* weights to violate, but
//! deeper layers can interleave. Whatever pairs survive at the optimum
//! are reported per group as [`GroupFit::inseparable`], never silently
//! dropped.

use jobsched_core::objective_select::ObjectiveKind;
use jobsched_metrics::pareto::{order_violations, rank_violations, scalarize};
use jobsched_metrics::Point;
use jobsched_sweep::atlas::ParetoGroup;

/// Per-coordinate grid levels seeding the search (the all-zero
/// combination is skipped).
const GRID_LEVELS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// Maximum coordinate-descent sweeps after the best grid start.
const MAX_ROUNDS: usize = 40;

/// One workload group's view of the fitted scalarization.
#[derive(Clone, Debug)]
pub struct GroupFit {
    /// Workload kind tag.
    pub workload: String,
    /// Scalarized cost per point (normalised axes), atlas row order.
    pub scalars: Vec<f64>,
    /// Induced total order: point indices sorted by scalar (ties by
    /// atlas row order).
    pub order: Vec<usize>,
    /// Rank-inconsistent pairs `(i, j)` surviving at the optimum:
    /// `i` outranks `j` but scores no better. Empty = the ranks are
    /// linearly separated for this workload.
    pub inseparable: Vec<(usize, usize)>,
}

/// The learned scalarization.
#[derive(Clone, Debug)]
pub struct Fit {
    /// The objective axes, parallel to `weights`.
    pub objectives: Vec<ObjectiveKind>,
    /// Learned weights, normalised to sum 1.
    pub weights: Vec<f64>,
    /// Total rank violations across groups at the optimum.
    pub violations: usize,
    /// Number of candidate evaluations the search spent.
    pub evaluations: usize,
    /// Per-workload induced orders and surviving violations.
    pub groups: Vec<GroupFit>,
}

/// The mean cost of every axis of `group`, the one normalisation of
/// the fit and the controller. A degenerate all-zero axis (e.g. zero
/// variance everywhere) normalises to itself.
pub(crate) fn axis_means(group: &ParetoGroup) -> Vec<f64> {
    let n = group.points.len() as f64;
    (0..group.objectives.len())
        .map(|j| {
            let m = group.points.iter().map(|p| p.costs[j]).sum::<f64>() / n;
            if m > 0.0 {
                m
            } else {
                1.0
            }
        })
        .collect()
}

/// Per-(group, objective)-mean normalised copies of the atlas points.
fn normalised_groups(groups: &[ParetoGroup]) -> Vec<Vec<Point>> {
    groups
        .iter()
        .map(|g| {
            let means = axis_means(g);
            g.points
                .iter()
                .map(|p| {
                    Point::new(
                        p.label.clone(),
                        p.costs.iter().zip(&means).map(|(c, m)| c / m).collect(),
                    )
                })
                .collect()
        })
        .collect()
}

fn loss(groups: &[Vec<Point>], ranks: &[Vec<usize>], weights: &[f64]) -> usize {
    groups
        .iter()
        .zip(ranks)
        .map(|(points, ranks)| {
            let scalars: Vec<f64> = points.iter().map(|p| scalarize(p, weights)).collect();
            rank_violations(ranks, &scalars).len()
        })
        .sum()
}

/// Enumerate every `levels`-valued weight vector (minus all-zero) in
/// lexicographic order — the deterministic seed set of the search.
fn grid_starts(levels: &[f64], dims: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let mut idx = vec![0usize; dims];
    loop {
        let w: Vec<f64> = idx.iter().map(|&i| levels[i]).collect();
        if w.iter().any(|&x| x > 0.0) {
            out.push(w);
        }
        // Odometer increment.
        let mut d = dims;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < levels.len() {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Learn the scalarization weights for the atlas's Pareto `groups`,
/// which all span the same objective axes.
pub fn fit(atlas: &[ParetoGroup]) -> Fit {
    let dims = atlas[0].objectives.len();
    let groups = normalised_groups(atlas);
    let ranks: Vec<Vec<usize>> = atlas.iter().map(|g| g.ranks.clone()).collect();
    let mut evaluations = 0usize;
    let mut eval = |w: &[f64]| {
        evaluations += 1;
        loss(&groups, &ranks, w)
    };

    // Phase 1: coarse grid. First-best wins ties (stable order).
    let mut best = vec![1.0; dims];
    let mut best_loss = eval(&best);
    for w in grid_starts(&GRID_LEVELS, dims) {
        let l = eval(&w);
        if l < best_loss {
            best_loss = l;
            best = w;
        }
    }

    // Phase 2: coordinate descent on a multiplier ladder; strict
    // improvements only, so the sweep terminates and ties cannot cycle.
    const LADDER: [f64; 6] = [0.25, 0.5, 0.8, 1.25, 2.0, 4.0];
    for _ in 0..MAX_ROUNDS {
        if best_loss == 0 {
            break;
        }
        let mut improved = false;
        for j in 0..dims {
            let base = if best[j] > 0.0 { best[j] } else { 0.125 };
            for f in LADDER {
                let mut cand = best.clone();
                cand[j] = base * f;
                let l = eval(&cand);
                if l < best_loss {
                    best_loss = l;
                    best = cand;
                    improved = true;
                }
            }
            // Dropping the axis entirely is also a move (unless it
            // would zero the vector).
            if best[j] > 0.0 && best.iter().filter(|&&x| x > 0.0).count() > 1 {
                let mut cand = best.clone();
                cand[j] = 0.0;
                let l = eval(&cand);
                if l < best_loss {
                    best_loss = l;
                    best = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Normalise for the report; the loss is scale-invariant.
    let total: f64 = best.iter().sum();
    let weights: Vec<f64> = best.iter().map(|w| w / total).collect();

    let group_fits: Vec<GroupFit> = atlas
        .iter()
        .zip(&groups)
        .map(|(g, points)| {
            let scalars: Vec<f64> = points.iter().map(|p| scalarize(p, &weights)).collect();
            // Non-negative weights can never invert a strict dominance;
            // the pinned invariant below documents why `inseparable`
            // only ever holds rank (not dominance) inconsistencies.
            debug_assert_eq!(order_violations(points, &scalars), None);
            let inseparable = rank_violations(&g.ranks, &scalars);
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| scalars[a].total_cmp(&scalars[b]).then(a.cmp(&b)));
            GroupFit {
                workload: g.workload.clone(),
                scalars,
                order,
                inseparable,
            }
        })
        .collect();
    let violations = group_fits.iter().map(|g| g.inseparable.len()).sum();
    assert_eq!(violations, best_loss, "report must match the optimum");

    Fit {
        objectives: atlas[0].objectives.clone(),
        weights,
        violations,
        evaluations,
        groups: group_fits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobsched_algos::AlgorithmSpec;
    use jobsched_sweep::atlas::read_atlas;

    type GroupSpec<'a> = (&'a str, Vec<&'a str>, Vec<Vec<f64>>);

    fn groups_from(groups: Vec<GroupSpec<'_>>) -> Vec<ParetoGroup> {
        groups
            .into_iter()
            .map(|(workload, objs, costs)| {
                let specs = AlgorithmSpec::atlas_matrix()[..costs.len()].to_vec();
                let objs = objs
                    .into_iter()
                    .map(|t| ObjectiveKind::from_tag(t).unwrap())
                    .collect();
                ParetoGroup::new(workload, objs, specs, costs)
            })
            .collect()
    }

    #[test]
    fn separable_ranks_fit_to_zero_violations() {
        // Second axis decides the layering; any positive weight pair
        // with enough mass on axis 1 separates it.
        let atlas = groups_from(vec![(
            "ctc",
            vec!["art", "bsld"],
            vec![
                vec![1.0, 1.0],
                vec![2.0, 2.0],
                vec![3.0, 3.0],
                vec![4.0, 4.0],
            ],
        )]);
        let f = fit(&atlas);
        assert_eq!(f.violations, 0);
        assert!(f.groups[0].inseparable.is_empty());
        assert_eq!(f.groups[0].order, vec![0, 1, 2, 3]);
        let sum: f64 = f.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn axis_weighting_is_learned() {
        // Rank layers follow axis 0; axis 1 is anti-correlated noise.
        // Separating the layers requires concentrating weight on axis 0.
        let atlas = groups_from(vec![(
            "ctc",
            vec!["art", "bsld"],
            vec![
                vec![1.0, 5.0],  // rank 1 (incomparable with p1)
                vec![10.0, 1.0], // rank 1
                vec![2.0, 6.0],  // dominated by p0
                vec![20.0, 2.0], // dominated by p1
            ],
        )]);
        let f = fit(&atlas);
        assert_eq!(f.violations, 0, "weights {:?}", f.weights);
        // Both rank-1 points must scalarize below both rank-2 points.
        let g = &f.groups[0];
        assert!(g.scalars[0] < g.scalars[2] && g.scalars[0] < g.scalars[3]);
        assert!(g.scalars[1] < g.scalars[2] && g.scalars[1] < g.scalars[3]);
    }

    #[test]
    fn inseparable_pairs_are_reported_not_hidden() {
        // p0 and p1 are mutually non-dominated (both rank 1), p2 is
        // dominated by p0 only — but p1's costs are both *higher* than
        // p2's on one axis in a crossed pattern making rank 1 vs rank 2
        // impossible to separate linearly: p1 = (10, 1), p2 = (2, 6)
        // with p2 dominated by p0 = (1, 5). Any weights scoring p1
        // below p2 need w0·10 + w1 < w0·2 + w1·6 ⇒ 8·w0 < 5·w1, and
        // p0 < p2 always holds; but then p3 = (1.5, 5.9) (rank 2,
        // dominated by p0) must also beat p1... construct a genuine
        // crossing instead: two rank-2 points on opposite sides.
        let atlas = groups_from(vec![(
            "ctc",
            vec!["art", "bsld"],
            vec![
                vec![1.0, 10.0], // rank 1
                vec![10.0, 1.0], // rank 1
                vec![1.5, 10.5], // rank 2, hugs p0
                vec![10.5, 1.5], // rank 2, hugs p1
            ],
        )]);
        let f = fit(&atlas);
        // p0 must beat p3 and p1 must beat p2: w·(1,10) < w·(10.5,1.5)
        // and w·(10,1) < w·(1.5,10.5) ⇒ both differences constrain the
        // weight ratio from opposite sides but remain satisfiable
        // (symmetric weights do it) — so this *is* separable; the
        // learner must find it.
        assert_eq!(f.violations, 0, "weights {:?}", f.weights);

        // Now make it impossible: a rank-2 point that undercuts a
        // rank-1 point on *both* axes can never score worse — wait,
        // that would dominate it. True inseparability needs ≥2 groups
        // with contradictory orderings of the same cost pattern.
        let atlas = groups_from(vec![
            (
                "ctc",
                vec!["art", "bsld"],
                // Layering follows axis 0 (axis 1 constant).
                vec![vec![1.0, 1.0], vec![2.0, 1.0], vec![1.5, 1.2]],
            ),
            (
                "probabilistic",
                vec!["art", "bsld"],
                // Same pattern with axes swapped: layering follows
                // axis 1, and the rank-2 point sits where the ctc
                // group's ordering puts it *between* the rank-1s.
                vec![vec![1.0, 1.0], vec![1.0, 2.0], vec![1.2, 1.5]],
            ),
        ]);
        let f = fit(&atlas);
        // Whatever the outcome, every surviving violation must be
        // listed under its group with valid indices.
        let listed: usize = f.groups.iter().map(|g| g.inseparable.len()).sum();
        assert_eq!(listed, f.violations);
        for g in &f.groups {
            for &(i, j) in &g.inseparable {
                assert!(i < g.scalars.len() && j < g.scalars.len());
            }
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let atlas = groups_from(vec![(
            "ctc",
            vec!["art", "awrt", "bsld"],
            vec![
                vec![1.0, 9.0, 2.0],
                vec![5.0, 1.0, 8.0],
                vec![2.0, 8.0, 3.0],
                vec![6.0, 2.0, 9.0],
                vec![9.0, 9.0, 9.0],
            ],
        )]);
        let a = fit(&atlas);
        let b = fit(&atlas);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.groups[0].order, b.groups[0].order);
    }

    #[test]
    fn fit_runs_on_a_real_atlas_document() {
        // The committed artifact itself, when present in the repo root.
        let Ok(text) = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_atlas.json"
        )) else {
            return;
        };
        let doc = jobsched_json::parse(&text).expect("committed atlas parses");
        let (_, atlas) = read_atlas(&doc).expect("committed atlas is well-formed");
        let f = fit(&atlas);
        assert_eq!(f.objectives.len(), atlas[0].objectives.len());
        assert!(f.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        // Every group's induced order is a permutation.
        for g in &f.groups {
            let mut seen = g.order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..g.scalars.len()).collect::<Vec<_>>());
        }
    }
}
