//! `congestion_128`: Fig. 11's `--quick` configuration through the MPI
//! engine, composed from the public layer calls so each can be timed.
//! Every repetition runs every cell at the seed's random placement.

use crate::layers::{self, CELL_NAMES};
use crate::report::{Digest, Metrics, Outcome};
use crate::Bench;
use slingshot::{Profile, System, SystemBuilder};
use slingshot_des::{mix64, SimTime};
use slingshot_experiments::congestion::{
    machine_for, try_run_cell, Cell, CellResult, Victim, WARMUP,
};
use slingshot_experiments::Scale;
use slingshot_mpi::{Engine, Job, JobId, ProtocolStack};
use slingshot_network::SimError;
use slingshot_stats::Sample;
use slingshot_topology::AllocationPolicy;
use slingshot_workloads::{Congestor, HpcApp, Microbench, TailApp};
use std::hint::black_box;
use std::time::Instant;

const NODES: u32 = 128;
const VICTIM_NODES: u32 = 32;

/// The cells, in [`CELL_NAMES`] order.
fn cell_specs() -> [(Victim, Option<Congestor>, Profile); 11] {
    let lammps = Victim::App(HpcApp::Lammps);
    let alltoall = Victim::Micro(Microbench::Alltoall, 128 << 10);
    let silo = Victim::Tail(TailApp::Silo);
    let ss = Profile::Slingshot;
    [
        (lammps, None, ss),
        (lammps, Some(Congestor::Incast), ss),
        (lammps, Some(Congestor::AllToAll), ss),
        (alltoall, None, ss),
        (alltoall, Some(Congestor::Incast), ss),
        (alltoall, Some(Congestor::AllToAll), ss),
        (silo, None, ss),
        (silo, Some(Congestor::Incast), ss),
        (silo, Some(Congestor::AllToAll), ss),
        (lammps, None, Profile::Aries),
        (lammps, Some(Congestor::Incast), Profile::Aries),
    ]
}

/// Indices of the cells behind the paper's headline ordering: LAMMPS
/// isolated and under incast, on Slingshot and on Aries.
const LAMMPS_SS: (usize, usize) = (0, 1);
const LAMMPS_ARIES: (usize, usize) = (9, 10);

pub struct Congestion128 {
    seed: u64,
}

/// Set-up spans of one cell.
#[derive(Default)]
struct SetupSpans {
    build_s: f64,
    scripts_s: f64,
    add_job_s: f64,
}

pub struct PreparedCell {
    eng: Engine,
    victim_job: JobId,
    spans: SetupSpans,
}

/// What running a prepared cell produced.
struct CellRun {
    result: Result<CellResult, SimError>,
    run_s: f64,
    events: u64,
}

impl Congestion128 {
    pub fn new(seed: u64) -> Self {
        Congestion128 { seed }
    }

    /// The cells, in [`CELL_NAMES`] order. The placement's seed also seeds
    /// the network and the victim's scripts.
    fn cells(&self) -> Vec<(Cell, Victim)> {
        let seed = mix64(self.seed ^ 0xF1611);
        cell_specs()
            .into_iter()
            .map(|(victim, aggressor, profile)| {
                let cell = Cell {
                    profile,
                    nodes: NODES,
                    victim_nodes: VICTIM_NODES,
                    policy: AllocationPolicy::Random,
                    aggressor,
                    aggressor_ppn: 1,
                    seed,
                };
                (cell, victim)
            })
            .collect()
    }

    /// `congestion::try_run_cell` up to `run_to_completion`, one public
    /// call at a time.
    fn prepare(cell: &Cell, victim: Victim) -> PreparedCell {
        let mut spans = SetupSpans::default();
        let t = Instant::now();
        let net = SystemBuilder::new(System::Custom(machine_for(cell.nodes)), cell.profile)
            .seed(cell.seed)
            .build();
        let mut eng = Engine::new(net, ProtocolStack::mpi());
        spans.build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let alloc = slingshot_topology::Allocation::split(
            cell.nodes,
            cell.victim_nodes,
            cell.policy,
            cell.seed,
        );
        let aggressor = cell
            .aggressor
            .filter(|_| alloc.aggressor.len() >= 2)
            .map(|congestor| {
                let job = Job::with_ppn(alloc.aggressor.clone(), cell.aggressor_ppn);
                let scripts = congestor.scripts(job.ranks());
                (job, scripts)
            });
        let ranks = victim.ranks_for(cell.victim_nodes);
        let victim_nodes = alloc.victim[..ranks as usize].to_vec();
        let victim_scripts = victim.scripts(ranks, Scale::Quick.iterations(), cell.seed);
        spans.scripts_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        if let Some((job, scripts)) = aggressor {
            eng.add_job(job, scripts, 0, SimTime::ZERO);
        }
        let victim_job = eng.add_job(Job::new(victim_nodes), victim_scripts, 0, WARMUP);
        spans.add_job_s = t.elapsed().as_secs_f64();
        PreparedCell {
            eng,
            victim_job,
            spans,
        }
    }

    fn run_cell(p: &mut PreparedCell) -> CellRun {
        let t = Instant::now();
        let res = p.eng.run_to_completion(Scale::Quick.event_budget());
        let run_s = t.elapsed().as_secs_f64();
        let events = p.eng.network().events_processed();
        let result = res.map(|_| {
            let durations = p.eng.iteration_durations(p.victim_job);
            let mut sample =
                Sample::from_values(durations.iter().map(|d| d.as_secs_f64()).collect());
            CellResult {
                mean_secs: sample.mean(),
                median_secs: sample.median(),
                p99_secs: sample.percentile(99.0),
                p95_secs: sample.percentile(95.0),
                iterations: sample.len(),
            }
        });
        CellRun {
            result,
            run_s,
            events,
        }
    }

    /// Check every cell and the headline ordering; fold the digest. A cell
    /// counts as failed at most once.
    fn judge(runs: &[(CellRun, u64)]) -> Outcome {
        let mut digest = Digest::default();
        let mut cell_failed = vec![false; runs.len()];
        let iters = Scale::Quick.iterations() as usize;
        for (i, (run, sim_end_ps)) in runs.iter().enumerate() {
            match &run.result {
                Ok(r) if r.iterations == iters => {}
                Ok(r) => {
                    eprintln!(
                        "error: {}: {} iterations, not {iters}",
                        CELL_NAMES[i], r.iterations
                    );
                    cell_failed[i] = true;
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", CELL_NAMES[i]);
                    cell_failed[i] = true;
                }
            }
            if let Ok(r) = &run.result {
                for x in result_bits(r) {
                    digest.add(x);
                }
            }
            digest.add(run.events);
            digest.add(*sim_end_ps);
        }
        // The headline ordering is judged only when its four cells ran;
        // otherwise they are counted as failed already.
        let headline = [LAMMPS_SS.0, LAMMPS_SS.1, LAMMPS_ARIES.0, LAMMPS_ARIES.1];
        if headline.iter().all(|&i| !cell_failed[i]) {
            let impact =
                |(iso, loaded): (usize, usize)| match (&runs[iso].0.result, &runs[loaded].0.result)
                {
                    (Ok(i), Ok(l)) => l.mean_secs / i.mean_secs,
                    _ => unreachable!("headline cells returned Ok"),
                };
            let (aries, ss) = (impact(LAMMPS_ARIES), impact(LAMMPS_SS));
            eprintln!("LAMMPS incast impact Aries {aries:.3}, Slingshot {ss:.3}");
            let headline_holds = aries > ss;
            if !headline_holds {
                eprintln!(
                    "error: Aries LAMMPS incast impact {aries} is not above Slingshot's {ss}"
                );
                cell_failed[LAMMPS_SS.1] = true;
                cell_failed[LAMMPS_ARIES.1] = true;
            }
        }
        Outcome {
            run_s: runs.iter().map(|(r, _)| r.run_s).sum(),
            attempted: runs.len() as u64,
            failed: cell_failed.iter().filter(|&&f| f).count() as u64,
            correct: true,
            digest: digest.value(),
        }
    }
}

/// A cell result as exact bits, for digests and bit-identity checks.
fn result_bits(r: &CellResult) -> [u64; 5] {
    [
        r.mean_secs.to_bits(),
        r.median_secs.to_bits(),
        r.p99_secs.to_bits(),
        r.p95_secs.to_bits(),
        r.iterations as u64,
    ]
}

impl Bench for Congestion128 {
    type Prepared = Vec<PreparedCell>;

    fn setup(&self) -> Self::Prepared {
        self.cells()
            .iter()
            .map(|(cell, victim)| Self::prepare(cell, *victim))
            .collect()
    }

    fn run(&self, prepared: Self::Prepared) -> Outcome {
        let runs: Vec<(CellRun, u64)> = prepared
            .into_iter()
            .map(|mut p| {
                let run = Self::run_cell(&mut p);
                (run, p.eng.now().as_ps())
            })
            .collect();
        Self::judge(&runs)
    }

    fn traced(&self, untraced_run_s: f64) -> (Outcome, Metrics) {
        let mut m = layers::zeroed();
        let mut runs = Vec::new();
        let (mut run_ns, mut run_events, mut sim_s) = (0.0, 0u64, 0.0);
        let cells = self.cells();
        for (i, (cell, victim)) in cells.iter().enumerate() {
            let t = Instant::now();
            drop(black_box(machine_for(cell.nodes).build()));
            let topology_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut p = Self::prepare(cell, *victim);
            let run = Self::run_cell(&mut p);
            let cell_s = t.elapsed().as_secs_f64();

            m.add("topology.build_s", topology_s, "s");
            m.add(
                "network.build_s",
                (p.spans.build_s - topology_s).max(0.0),
                "s",
            );
            m.add("workloads.scripts_s", p.spans.scripts_s, "s");
            m.add("mpi.add_job_s", p.spans.add_job_s, "s");
            m.set(
                &format!("experiments.cell_s.{}", CELL_NAMES[i]),
                cell_s,
                "s",
            );
            let net = p.eng.network();
            layers::record_kernel(&mut m, &net.kernel_stats());
            // Message-table entries: delivered plus still in flight (the
            // looping aggressor's messages at the victim's completion).
            let in_flight = net.stall_report(0, 0).messages_in_flight;
            m.add(
                "network.messages",
                (net.stats().messages_delivered + in_flight) as f64,
                "count",
            );
            run_ns += run.run_s * 1e9;
            run_events += run.events;
            sim_s += net.now().as_secs_f64();
            runs.push((run, net.now().as_ps()));
        }
        m.set("mpi.run_ns_per_event", run_ns / run_events as f64, "ns");
        let outcome = Self::judge(&runs);

        // The composed cells must reproduce the harness's own cell runner
        // bit for bit.
        let mut identical = true;
        for (i, (cell, victim)) in cells.iter().enumerate() {
            let reference = try_run_cell(
                cell,
                *victim,
                Scale::Quick.iterations(),
                Scale::Quick.event_budget(),
            );
            let same = match (&reference, &runs[i].0.result) {
                (Ok(a), Ok(b)) => result_bits(a) == result_bits(b),
                _ => false,
            };
            if !same {
                eprintln!(
                    "error: {}: composed cell differs from try_run_cell",
                    CELL_NAMES[i]
                );
            }
            identical &= same;
        }
        let probe =
            SystemBuilder::new(System::Custom(machine_for(NODES)), Profile::Slingshot).build();
        layers::finish(&mut m, &probe, untraced_run_s, outcome.run_s, sim_s);
        (
            Outcome {
                correct: outcome.correct && identical,
                ..outcome
            },
            m,
        )
    }
}
