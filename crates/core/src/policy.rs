//! Scheduling policies: the owner's rules (§2.1).
//!
//! "The scheduling policy forms the top level of a scheduling system. It
//! is defined by the owner or administrator of a machine … a collection of
//! rules to determine the resource allocation if not enough resources are
//! available to satisfy all requests immediately."
//!
//! A good policy (§2.1) "contains rules to resolve conflicts between other
//! rules if those conflicts may occur" and "can be implemented".
//! [`Policy::conflicts`] performs the first check mechanically for the
//! rule kinds modelled here; Example 1 (the chemistry department),
//! Example 4 (the class that owns the machine for an hour) and Example 5
//! (Institution B) ship as constructors.

pub use jobsched_algos::switching::DailyWindow;

/// Scheduling goal attached to a time window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingGoal {
    /// "The response time for all jobs should be as small as possible"
    /// (Example 5, Rule 5).
    MinimizeResponseTime,
    /// "It is the goal to achieve a high system load" (Rule 6).
    MaximizeSystemLoad,
}

/// One policy rule. The variants cover Examples 1 and 5; unknown owner
/// rules can be carried verbatim in [`Rule::FreeForm`].
#[derive(Clone, Debug, PartialEq)]
pub enum Rule {
    /// A user group receives priority service (Example 1, Rule 1).
    PriorityGroup {
        /// Group name.
        group: String,
        /// Priority level; higher = served sooner.
        level: u32,
    },
    /// Storage reserved for a group (Example 1, Rule 2) — does not affect
    /// CPU schedules but belongs to the policy.
    StorageQuota {
        /// Group name.
        group: String,
        /// Reserved gigabytes.
        gb: u32,
    },
    /// A group has preferred access (Example 1, Rule 3).
    PreferredAccess {
        /// Group name.
        group: String,
    },
    /// Compute time is sold to external partners (Example 1, Rule 4).
    SoldComputeTime {
        /// Partner name.
        partner: String,
    },
    /// A recurring exclusive reservation (Example 1, Rule 5 / Example 4).
    ExclusiveWindow {
        /// Who gets the machine.
        group: String,
        /// When.
        window: DailyWindow,
    },
    /// Keep the batch partition as large as possible (Example 5, Rule 1).
    MaximizeBatchPartition,
    /// Rigid jobs with execution-time limits; overruns may be cancelled
    /// (Example 5, Rule 2).
    RigidJobsWithLimit,
    /// Users are charged per job (Example 5, Rule 3).
    ChargedJobs,
    /// At most this many concurrent batch jobs per user (Example 5,
    /// Rule 4) — the paper reads this as "all jobs should be treated
    /// equally independent of their resource consumption".
    MaxJobsPerUser(u32),
    /// A scheduling goal active during a window (Example 5, Rules 5–6).
    GoalInWindow {
        /// When the goal applies; `None` = all remaining time.
        window: Option<DailyWindow>,
        /// What to optimise.
        goal: SchedulingGoal,
    },
    /// An owner rule outside the modelled vocabulary.
    FreeForm(String),
}

impl Rule {
    /// Whether the rule constrains the shape of schedules (as opposed to
    /// storage, accounting or partitioning concerns).
    pub fn affects_schedule(&self) -> bool {
        matches!(
            self,
            Rule::PriorityGroup { .. }
                | Rule::PreferredAccess { .. }
                | Rule::ExclusiveWindow { .. }
                | Rule::MaxJobsPerUser(_)
                | Rule::GoalInWindow { .. }
        )
    }
}

/// A potential conflict between two rules, with an explanation.
#[derive(Clone, Debug, PartialEq)]
pub struct Conflict {
    /// Index of the first rule.
    pub a: usize,
    /// Index of the second rule.
    pub b: usize,
    /// Why they may conflict.
    pub reason: String,
}

/// An owner's scheduling policy: a named collection of rules.
#[derive(Clone, Debug, PartialEq)]
pub struct Policy {
    /// Name of the installation.
    pub name: String,
    /// The rules, in priority order as stated by the owner.
    pub rules: Vec<Rule>,
}

impl Policy {
    /// Example 1: the chemistry department of University A.
    pub fn example1() -> Policy {
        Policy {
            name: "University A / chemistry department".into(),
            rules: vec![
                Rule::PriorityGroup {
                    group: "drug design lab".into(),
                    level: 10,
                },
                Rule::StorageQuota {
                    group: "drug design lab".into(),
                    gb: 100,
                },
                Rule::PreferredAccess {
                    group: "chemistry department".into(),
                },
                Rule::SoldComputeTime {
                    partner: "chemical industry".into(),
                },
                Rule::ExclusiveWindow {
                    group: "theoretical chemistry lab course".into(),
                    window: DailyWindow {
                        start_hour: 10,
                        end_hour: 12,
                        weekdays_only: true,
                    },
                },
            ],
        }
    }

    /// Example 4: a machine without time sharing whose policy includes
    /// "Every weekday at 10am the entire machine must be available to a
    /// theoretical chemistry class for 1 hour."
    pub fn example4() -> Policy {
        Policy {
            name: "Example 4 / theoretical chemistry class".into(),
            rules: vec![Rule::ExclusiveWindow {
                group: "theoretical chemistry class".into(),
                window: DailyWindow {
                    start_hour: 10,
                    end_hour: 11,
                    weekdays_only: true,
                },
            }],
        }
    }

    /// Example 5: Institution B and its 256-node batch partition.
    pub fn example5() -> Policy {
        Policy {
            name: "Institution B".into(),
            rules: vec![
                Rule::MaximizeBatchPartition,
                Rule::RigidJobsWithLimit,
                Rule::ChargedJobs,
                Rule::MaxJobsPerUser(2),
                Rule::GoalInWindow {
                    window: Some(DailyWindow::WEEKDAY_DAYTIME),
                    goal: SchedulingGoal::MinimizeResponseTime,
                },
                Rule::GoalInWindow {
                    window: None,
                    goal: SchedulingGoal::MaximizeSystemLoad,
                },
            ],
        }
    }

    /// Rules that actually shape schedules (§4 "she ignores Rules 1 to 4
    /// because they do not affect the schedule for a specific workload").
    pub fn schedule_rules(&self) -> Vec<(usize, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.affects_schedule())
            .collect()
    }

    /// The window of the policy's first exclusive reservation, if any —
    /// the one a `ListScheduler` honours
    /// (`ListScheduler::with_exclusive_window`). Overlapping windows are
    /// a conflict [`Policy::conflicts`] reports.
    pub fn exclusive_window(&self) -> Option<DailyWindow> {
        self.schedule_rules()
            .into_iter()
            .find_map(|(_, rule)| match rule {
                Rule::ExclusiveWindow { window, .. } => Some(*window),
                _ => None,
            })
    }

    /// Mechanical conflict scan (§2.1 property 1). Detected patterns:
    ///
    /// * a priority group versus an exclusive window (Example 1: drug
    ///   design jobs may compete with the lab course);
    /// * two goals whose windows overlap;
    /// * two exclusive windows that overlap.
    pub fn conflicts(&self) -> Vec<Conflict> {
        let mut out = Vec::new();
        for (i, a) in self.rules.iter().enumerate() {
            for (j, b) in self.rules.iter().enumerate().skip(i + 1) {
                match (a, b) {
                    (
                        Rule::PriorityGroup { group, .. },
                        Rule::ExclusiveWindow { group: g2, window },
                    )
                    | (
                        Rule::ExclusiveWindow { group: g2, window },
                        Rule::PriorityGroup { group, .. },
                    ) => {
                        out.push(Conflict {
                            a: i,
                            b: j,
                            reason: format!(
                                "jobs of '{group}' may compete with the exclusive window {window} of '{g2}'"
                            ),
                        });
                    }
                    (
                        Rule::GoalInWindow {
                            window: Some(w1),
                            goal: g1,
                        },
                        Rule::GoalInWindow {
                            window: Some(w2),
                            goal: g2,
                        },
                    ) if w1.overlaps(w2) && g1 != g2 => {
                        out.push(Conflict {
                            a: i,
                            b: j,
                            reason: format!(
                                "conflicting goals in overlapping windows {w1} and {w2}"
                            ),
                        });
                    }
                    (
                        Rule::ExclusiveWindow {
                            window: w1,
                            group: g1,
                        },
                        Rule::ExclusiveWindow {
                            window: w2,
                            group: g2,
                        },
                    ) if w1.overlaps(w2) => {
                        out.push(Conflict {
                            a: i,
                            b: j,
                            reason: format!(
                                "exclusive windows of '{g1}' ({w1}) and '{g2}' ({w2}) overlap"
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_has_five_rules() {
        assert_eq!(Policy::example1().rules.len(), 5);
    }

    #[test]
    fn exclusive_windows_are_read_from_the_schedule_rules() {
        let weekdays = |start_hour, end_hour| DailyWindow {
            start_hour,
            end_hour,
            weekdays_only: true,
        };
        assert_eq!(
            Policy::example1().exclusive_window(),
            Some(weekdays(10, 12))
        );
        assert_eq!(
            Policy::example4().exclusive_window(),
            Some(weekdays(10, 11))
        );
        assert_eq!(Policy::example5().exclusive_window(), None);
        assert!(Policy::example4().conflicts().is_empty());
    }

    #[test]
    fn example5_has_six_rules() {
        assert_eq!(Policy::example5().rules.len(), 6);
    }

    #[test]
    fn example1_conflict_detected() {
        // The paper: "some jobs from the drug design lab may compete with
        // the theoretical chemistry lab course".
        let c = Policy::example1().conflicts();
        assert_eq!(c.len(), 1);
        assert!(c[0].reason.contains("drug design lab"));
        assert!(c[0].reason.contains("exclusive window"));
    }

    #[test]
    fn example5_goals_do_not_conflict() {
        // Rules 5 and 6 "do not apply at the same time" (§4): Rule 6 has
        // no window of its own, it covers the remaining time.
        assert!(Policy::example5().conflicts().is_empty());
    }

    #[test]
    fn example5_schedule_rules_are_rules_4_to_6() {
        let p = Policy::example5();
        let idx: Vec<usize> = p.schedule_rules().iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![3, 4, 5]);
    }

    #[test]
    fn overlapping_goal_windows_conflict() {
        let p = Policy {
            name: "bad".into(),
            rules: vec![
                Rule::GoalInWindow {
                    window: Some(DailyWindow {
                        start_hour: 7,
                        end_hour: 20,
                        weekdays_only: true,
                    }),
                    goal: SchedulingGoal::MinimizeResponseTime,
                },
                Rule::GoalInWindow {
                    window: Some(DailyWindow {
                        start_hour: 18,
                        end_hour: 23,
                        weekdays_only: true,
                    }),
                    goal: SchedulingGoal::MaximizeSystemLoad,
                },
            ],
        };
        assert_eq!(p.conflicts().len(), 1);
    }

    #[test]
    fn window_overlap_logic() {
        let day = DailyWindow {
            start_hour: 7,
            end_hour: 20,
            weekdays_only: true,
        };
        let evening = DailyWindow {
            start_hour: 20,
            end_hour: 23,
            weekdays_only: true,
        };
        assert!(!day.overlaps(&evening));
        assert!(day.overlaps(&DailyWindow {
            start_hour: 19,
            end_hour: 21,
            weekdays_only: false
        }));
    }

    #[test]
    fn window_display() {
        assert_eq!(
            DailyWindow::WEEKDAY_DAYTIME.to_string(),
            "07:00–20:00 (weekdays)"
        );
    }

    #[test]
    fn freeform_rules_carried() {
        let p = Policy {
            name: "x".into(),
            rules: vec![Rule::FreeForm("no jobs on maintenance Mondays".into())],
        };
        assert!(p.conflicts().is_empty());
        assert!(!p.rules[0].affects_schedule());
    }
}
