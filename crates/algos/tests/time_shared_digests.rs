//! Golden digests of the time-shared runs.
//!
//! Every time-shared configuration the experiments sweep — DFRS at two
//! quanta, moldable FCFS on the synthesised alternatives, gang FCFS at
//! two multiprogramming settings — plus a rigid scheduler replayed
//! through `RigidAdapter` runs one small fixed CTC-like trace. The
//! FNV-1a digest covers every job's charged spans (start, end, width)
//! and the run's event, decision-round and peak-queue counters, which
//! every `RunRecord` carries. A deliberate behaviour change regenerates
//! the table from the failure message.

use jobsched_algos::view::WeightScheme;
use jobsched_algos::{AlgorithmSpec, BackfillMode, DfrsScheduler, MoldableScheduler};
use jobsched_oracle::RigidAdapter;
use jobsched_sim::gang::{GangConfig, GangFcfsTs};
use jobsched_sim::{simulate_time_shared, TimeSharedScheduler};
use jobsched_workload::ctc::prepared_ctc_workload;
use jobsched_workload::{synthesize_moldable, Workload};

const JOBS: usize = 400;
const SEED: u64 = 1999;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(workload: &Workload, scheduler: &mut dyn TimeSharedScheduler) -> u64 {
    let out = simulate_time_shared(workload, scheduler);
    let mut h = Fnv::new();
    for job in workload.jobs() {
        let spans = out
            .schedule
            .charged_spans(job.id, job.nodes)
            .expect("every job completes");
        for s in spans {
            h.word(s.start);
            h.word(s.end);
            h.word(s.nodes as u64);
        }
    }
    h.word(out.events);
    h.word(out.decision_rounds);
    h.word(out.peak_queue as u64);
    h.0
}

#[test]
fn time_shared_runs_are_pinned() {
    let w = prepared_ctc_workload(JOBS, SEED);
    let mut molded = w.clone();
    let table = synthesize_moldable(&molded);
    molded.set_moldable(table);
    let mut rigid = AlgorithmSpec::new(jobsched_algos::spec::PolicyKind::Fcfs, BackfillMode::Easy)
        .build_dyn(WeightScheme::Unweighted, true);

    let actual = [
        ("dfrs/600", digest(&w, &mut DfrsScheduler::new(600))),
        ("dfrs/60", digest(&w, &mut DfrsScheduler::new(60))),
        ("moldable", digest(&molded, &mut MoldableScheduler::new())),
        (
            "gang/default",
            digest(&w, &mut GangFcfsTs::new(GangConfig::default())),
        ),
        (
            "gang/300x2",
            digest(
                &w,
                &mut GangFcfsTs::new(GangConfig {
                    time_slice: 300,
                    max_contexts: 2,
                }),
            ),
        ),
        (
            "rigid/fcfs-easy",
            digest(&w, &mut RigidAdapter::new(&mut *rigid)),
        ),
    ];
    if actual != EXPECTED {
        let table: String = actual
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
            .collect();
        panic!("time-shared runs changed; if intended, the new table is:\n{table}");
    }
}

const EXPECTED: [(&str, u64); 6] = [
    ("dfrs/600", 0xb240f763457e84b4),
    ("dfrs/60", 0xf4a36a519770c5dd),
    ("moldable", 0xa41ad31d499718d0),
    ("gang/default", 0xeb9a963d1373d693),
    ("gang/300x2", 0x777060dcd39ab5f9),
    ("rigid/fcfs-easy", 0x4c48d24624ba97ac),
];
