//! Event-engine speed: simulated iterations per wall-clock second for the
//! paper's models on the 10-GPU testbed (the kernel every experiment sits
//! on), and engine events per second on the heaviest plan verification
//! the planning daemon runs: gpt2-medium's PipeDream plan on 24 GPUs.

use ap_bench::{exclusive_state, paper_pipedream_plan, timing, ExperimentEnv};
use ap_cluster::{ClusterState, ClusterTopology, GpuKind, ResourceTimeline};
use ap_models::{alexnet, gpt2_medium, resnet50, vgg16, ModelProfile};
use ap_pipesim::Engine;
use std::hint::black_box;

fn main() {
    println!("engine_30_iterations");
    for model in [resnet50(), vgg16(), alexnet()] {
        let profile = ModelProfile::of(&model);
        let env = ExperimentEnv::default_at(25.0);
        let plan = paper_pipedream_plan(&profile, 25.0, 10);
        let state = exclusive_state(25.0);
        timing::run(&model.name, 20, || {
            let engine = Engine::new(
                &profile,
                plan.clone(),
                state.clone(),
                ResourceTimeline::empty(),
                env.engine_cfg(),
            )
            .expect("valid partition");
            black_box(engine.run(30).expect("engine run").throughput());
        });
    }

    // One `/plan` verification run: the daemon's default run length and
    // measurement window for this plan's in-flight depth.
    println!("plan_verify_24_gpus");
    let profile = ModelProfile::of(&gpt2_medium());
    let env = ExperimentEnv::default_at(25.0);
    let plan = paper_pipedream_plan(&profile, 25.0, 24);
    let state = ClusterState::new(ClusterTopology::single_switch(6, 4, GpuKind::P100, 25.0));
    let n = 10usize.max(3 * plan.in_flight).max(12);
    let mut events = 0;
    let sample = timing::run("gpt2_medium pipedream 24 GPUs", 20, || {
        let r = Engine::new(
            &profile,
            plan.clone(),
            state.clone(),
            ResourceTimeline::empty(),
            env.engine_cfg(),
        )
        .expect("valid partition")
        .run(n)
        .expect("engine run");
        events = r.events;
        black_box(r.steady_throughput(n / 3));
    });
    println!(
        "  {} stages, in_flight {}, {n} mini-batches: {events} events, {:.0} events/s",
        plan.n_stages(),
        plan.in_flight,
        events as f64 / sample.median
    );
}
