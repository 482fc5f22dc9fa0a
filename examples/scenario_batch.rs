//! Multi-scenario batching: solve a fleet of load/contingency scenarios of
//! one network through one batched ADMM scheduler on a single device, then
//! compare against solving them one at a time.
//!
//! Run with:
//! ```text
//! cargo run --release --example scenario_batch
//! ```

use gridsim_admm::{AdmmParams, AdmmSolver, ScenarioScheduler};
use gridsim_batch::{Device, DevicePool};
use gridsim_engine::FleetRequest;
use gridsim_grid::cases;
use gridsim_grid::scenario::ScenarioSet;

fn main() {
    // 1. Build a scenario set over the embedded 9-bus case: a load ramp,
    //    random per-bus perturbations, and N−1 branch outages (bridges are
    //    skipped automatically — outaging one would island a generator).
    let base = cases::case9();
    let mut set = ScenarioSet::load_ramp(base.clone(), 3, 0.95, 1.05);
    set.extend(ScenarioSet::perturbed_loads(base.clone(), 2, 0.03, 42));
    set.extend(ScenarioSet::branch_outages(base.clone(), 3));
    let nets = set.networks().expect("scenario cases compile");
    println!(
        "scenario set on {}: {} scenarios ({} buses, {} branches each)",
        base.name,
        nets.len(),
        nets[0].nbus,
        nets[0].nbranch
    );

    // 2. Solve the whole fleet in one batched run: every kernel launch spans
    //    all still-active scenarios, and converged scenarios are masked out.
    let batcher =
        ScenarioScheduler::with_pool(AdmmParams::default(), DevicePool::single(Device::default()));
    let batch = batcher.run(FleetRequest::over(&nets));
    println!(
        "\nbatched solve: {} ticks for {} total inner iterations, {:.2} ms",
        batch.ticks,
        batch.total_inner_iterations(),
        batch.solve_time.as_secs_f64() * 1e3
    );
    println!(
        "  {:<22} {:>9} {:>7} {:>12} {:>11}",
        "scenario", "objective", "iters", "violation", "status"
    );
    for r in &batch.results {
        println!(
            "  {:<22} {:>9.2} {:>7} {:>12.3e} {:>11?}",
            r.name,
            r.objective,
            r.inner_iterations,
            r.quality.max_violation(),
            r.status
        );
    }

    // 3. The same fleet solved sequentially, one AdmmSolver::solve per
    //    scenario — identical numerics (bitwise), K× the kernel launches.
    let solver = AdmmSolver::new(AdmmParams::default());
    let mut seq_ms = 0.0;
    let mut identical = true;
    for (net, batched) in nets.iter().zip(&batch.results) {
        let single = solver.solve(net);
        seq_ms += single.solve_time.as_secs_f64() * 1e3;
        identical &=
            single.solution.pg == batched.solution.pg && single.solution.vm == batched.solution.vm;
    }
    println!(
        "\nsequential solves: {seq_ms:.2} ms total; batched results bitwise identical: {identical}"
    );
    let batch_launches = batcher.pool.device(0).stats().snapshot().total_launches();
    let seq_launches = solver.device.stats().snapshot().total_launches();
    println!(
        "kernel launches: {batch_launches} batched vs {seq_launches} sequential ({:.1}x amortization)",
        seq_launches as f64 / batch_launches.max(1) as f64
    );

    // 4. Warm-start chaining: seed each scenario from its predecessor along
    //    the ramp (ramp-limited), the tracking-style alternative for ordered
    //    scenario sweeps.
    let ramp = ScenarioSet::load_ramp(base.clone(), 4, 1.0, 1.03);
    let ramp_nets = ramp.networks().expect("ramp cases compile");
    let nominal = solver.solve(&ramp_nets[0]);
    let chained = batcher.solve_chained(&ramp_nets, &nominal.warm_state, 0.05);
    let cold = batcher.run(FleetRequest::over(&ramp_nets));
    println!(
        "\nwarm-start chaining along the ramp: {} inner iterations vs {} cold",
        chained.total_inner_iterations(),
        cold.total_inner_iterations()
    );

    // 5. The multi-device engine: shard the fleet across two logical devices
    //    with two slots each — scenarios stream into freed slots as earlier
    //    ones converge, results stay bitwise identical to the single batch,
    //    and each device bills its kernel work to its own stats stream.
    let scheduler =
        ScenarioScheduler::with_pool(AdmmParams::default(), DevicePool::parallel(2)).with_lanes(2);
    let sched = scheduler.run(FleetRequest::over(&nets));
    let same = sched
        .results
        .iter()
        .zip(&batch.results)
        .all(|(a, b)| a.solution.pg == b.solution.pg && a.solution.vm == b.solution.vm);
    println!(
        "\nscheduler on 2 devices x 2 lanes: {} ticks (longest device), bitwise identical: {same}",
        sched.ticks
    );
    for (d, snap) in scheduler.pool.snapshots().iter().enumerate() {
        println!(
            "  device {d}: {} launches, {} blocks, {:.2} ms busy",
            snap.total_launches(),
            snap.total_blocks(),
            snap.kernel_elapsed().as_secs_f64() * 1e3
        );
    }
}
