//! A day in the life of the CrossGrid testbed: 18 sites, nine countries,
//! hours of mixed batch/interactive load — fair-share priorities, glide-in
//! agents, and the broker's scheduling mechanisms all working at once.
//!
//! ```text
//! cargo run --release --example grid_day
//! ```

use crossgrid::handles_from_scenario;
use crossgrid::prelude::*;
use crossgrid::workloads::{poisson_arrivals, JobMix};

fn main() {
    let mut sim = Sim::new(0xDA7);
    let mut scenario_rng = crossgrid::sim::SimRng::new(0x5EED);
    let scenario = crossgrid_testbed(&mut scenario_rng, false);
    println!(
        "testbed: {} sites, {} worker nodes total",
        scenario.sites.len(),
        scenario
            .sites
            .iter()
            .map(|(s, _)| s.lrms().total_nodes())
            .sum::<usize>()
    );

    let broker = CrossBroker::new(
        &mut sim,
        handles_from_scenario(&scenario),
        scenario.mds_link(),
        BrokerConfig::default(),
    );

    // Eight hours of arrivals: one job every ~2 minutes, a quarter of them
    // interactive.
    let mix = JobMix::default();
    let horizon = SimTime::from_secs(8 * 3_600);
    let arrivals = poisson_arrivals(
        &mut scenario_rng,
        &mix,
        SimDuration::from_secs(120),
        horizon,
    );
    println!("workload: {} jobs over 8 simulated hours", arrivals.len());

    for arrival in arrivals {
        let broker2 = broker.clone();
        let job = arrival.job.clone();
        let runtime = arrival.runtime;
        sim.schedule_at(arrival.at, move |sim| {
            broker2.submit(sim, job, runtime);
        });
    }
    sim.run_until(horizon + SimDuration::from_secs(4 * 3_600)); // drain tail

    // Report.
    let stats = broker.stats();
    println!("\n== day summary ==");
    println!("  submitted      {}", stats.submitted);
    println!("  started        {}", stats.started);
    println!("  finished       {}", stats.finished);
    println!("  failed         {}", stats.failed);
    println!(
        "  rejected       {} (fair-share under scarcity)",
        stats.rejected
    );
    println!(
        "  resubmissions  {} (on-line scheduling)",
        stats.resubmissions
    );
    println!("  agents used    {}", stats.agents_deployed);

    let records = broker.records();
    let mut interactive_resp = Vec::new();
    let mut batch_resp = Vec::new();
    for r in &records {
        if let Some(resp) = r.response_s() {
            // Interactive jobs were submitted with MachineAccess attributes;
            // a cheap heuristic on response time class: look at user records.
            if r.selection_s().unwrap_or(0.0) == 0.0 {
                interactive_resp.push(resp); // shared path (combined step)
            } else {
                batch_resp.push(resp);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "\n  shared-path interactive jobs: {} (mean response {:.1} s)",
        interactive_resp.len(),
        mean(&interactive_resp)
    );
    println!(
        "  matched-path jobs:            {} (mean response {:.1} s)",
        batch_resp.len(),
        mean(&batch_resp)
    );

    // The user-experience metric: steering-op latency across all running
    // interactive sessions ("genuine feeling of interactivity", §4).
    let lat = broker.session_latencies();
    if !lat.is_empty() {
        println!(
            "\n  console steering latency (1 KiB ops): mean {:.2} ms, p95 {:.2} ms ({} samples)",
            lat.mean() * 1e3,
            lat.percentile(95.0).unwrap() * 1e3,
            lat.len()
        );
    }

    // Fair-share leaderboard.
    println!("\n  user priorities (higher = worse):");
    let mut users: Vec<String> = records.iter().map(|r| r.user.to_string()).collect();
    users.sort();
    users.dedup();
    let mut prio: Vec<(String, f64)> = users
        .into_iter()
        .map(|u| {
            let p = broker.priority(&u);
            (u, p)
        })
        .collect();
    prio.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (u, p) in prio.iter().take(8) {
        println!("    {u:<8} {p:.5}");
    }

    assert!(stats.started > 0, "the grid did work");
    assert!(
        stats.finished + stats.failed + stats.rejected > 0,
        "jobs reached terminal states"
    );
}
