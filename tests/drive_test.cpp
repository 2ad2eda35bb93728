// Tests for the engine's drive calls at their pause boundary. run_to(bound)
// is the daemon's open-horizon drive: it processes every event strictly
// below `bound` and pauses before the first one at or beyond it. Driving a
// run through seeded run_to slices — bounds landing exactly on event times
// included, with a checkpoint/restore into a fresh simulator at every k-th
// pause — must reproduce an uninterrupted run() byte for byte, per
// scheduler, with and without the TCP ramp and a fault plan. A paused run
// must also leave no profiler phase open, so wall time spent between slices
// is charged to no engine phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exp/registry.h"
#include "fault/plan.h"
#include "flowsim/simulator.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

/// Two runs are byte-identical iff these strings are equal: jobs, coflows,
/// makespan, every counter, link stats and the trace travel through the
/// results codec.
std::string results_bytes(const SimResults& results) {
  snapshot::Writer w;
  snapshot::save_results(w, results);
  return w.take();
}

std::vector<JobSpec> trace_jobs(const Fabric& fabric, std::uint64_t seed) {
  TraceConfig trace;
  trace.num_jobs = 12;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.seed = seed;
  return generate_trace(trace);
}

struct EngineSetup {
  std::string name;
  Simulator::Config config;
};

/// Plain fluid model, TCP ramp, and TCP ramp under a fault plan with link
/// flaps, stragglers and host crashes.
std::vector<EngineSetup> engine_setups(const Fabric& fabric) {
  EngineSetup plain{"plain", {}};
  EngineSetup ramp{"ramp", {}};
  ramp.config.tcp_ramp_time = 5 * kMillisecond;
  EngineSetup faults{"ramp+faults", ramp.config};
  FaultPlanConfig plan;
  plan.host_crash_rate = 6.0;
  plan.link_flap_rate = 4.0;
  plan.straggler_rate = 4.0;
  plan.horizon = 0.5;
  plan.mean_downtime = 0.05;
  faults.config.faults = generate_fault_plan(
      plan, 41, fabric.num_hosts(), fabric.topology().link_count());
  return {plain, ramp, faults};
}

/// One simulator with its own scheduler and recorder, built from the
/// static inputs exactly as a restarted process would build it.
struct Instance {
  std::unique_ptr<obs::TraceRecorder> recorder =
      std::make_unique<obs::TraceRecorder>(obs::TraceRecorder::kAllKinds);
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Simulator> sim;

  Instance(const Fabric& fabric, const std::string& name,
           const std::vector<JobSpec>& jobs, Simulator::Config config)
      : scheduler(make_scheduler(name)) {
    config.trace = recorder.get();
    sim = std::make_unique<Simulator>(fabric, *scheduler, config);
    for (const JobSpec& job : jobs) sim->submit(job);
  }
};

SimResults run_whole(const Fabric& fabric, const std::string& name,
                     const std::vector<JobSpec>& jobs,
                     const Simulator::Config& config) {
  Instance inst(fabric, name, jobs, config);
  SimResults results = inst.sim->run();
  results.trace = inst.recorder->take();
  return results;
}

/// Drives the run through run_to(bound) for each bound in turn, replacing
/// the simulator by a restored fresh one at every `checkpoint_every`-th
/// pause (0: never), then drains it with finish().
SimResults run_sliced(const Fabric& fabric, const std::string& name,
                      const std::vector<JobSpec>& jobs,
                      const Simulator::Config& config,
                      const std::vector<Time>& bounds,
                      std::size_t checkpoint_every) {
  auto inst = std::make_unique<Instance>(fabric, name, jobs, config);
  std::size_t pauses = 0;
  for (const Time bound : bounds) {
    if (!inst->sim->run_to(bound)) break;
    EXPECT_LT(inst->sim->now(), bound);
    if (checkpoint_every == 0 || ++pauses % checkpoint_every != 0) continue;
    snapshot::Writer w;
    inst->sim->checkpoint(w);
    const std::string bytes = w.take();
    inst = std::make_unique<Instance>(fabric, name, jobs, config);
    snapshot::Reader r(bytes);
    inst->sim->restore(r);
  }
  SimResults results = inst->sim->finish();
  results.trace = inst->recorder->take();
  return results;
}

/// Ascending slice bounds about `width` apart over the reference run. About
/// half of them are snapped onto the time of a recorded event, so the pause
/// falls exactly on an event that must then run in the next slice, and some
/// bounds repeat, so a pause is also resumed by an empty slice.
std::vector<Time> draw_bounds(const SimResults& reference, Time width,
                              Rng& rng, std::size_t* on_event) {
  std::vector<Time> events;
  for (const obs::TraceRecord& r : reference.trace) events.push_back(r.time);
  std::sort(events.begin(), events.end());
  std::vector<Time> bounds;
  Time t = 0;
  while (t < reference.makespan) {
    t += rng.uniform(0.5, 1.5) * width;
    if (rng.next_double() < 0.5) {
      const auto it = std::lower_bound(events.begin(), events.end(), t);
      if (it != events.end()) {
        t = *it;
        ++*on_event;
      }
    }
    bounds.push_back(t);
    if (rng.next_double() < 0.2) bounds.push_back(t);
  }
  return bounds;
}

TEST(DriveBoundary, RunToSlicesMatchUninterruptedRun) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = trace_jobs(fabric, 5);
  Rng rng(2024);
  std::size_t runs = 0;
  std::size_t on_event = 0;
  std::uint64_t aborts = 0;
  for (const EngineSetup& setup : engine_setups(fabric)) {
    for (const std::string name : {"pfs", "baraat", "stream", "aalo",
                                   "gurita"}) {
      const SimResults reference =
          run_whole(fabric, name, jobs, setup.config);
      ASSERT_GT(reference.makespan, 0.0);
      aborts += reference.flow_aborts;
      const std::string want = results_bytes(reference);
      for (const int slices : {7, 23, 61}) {
        const std::vector<Time> bounds = draw_bounds(
            reference, reference.makespan / slices, rng, &on_event);
        for (const std::size_t every : {std::size_t{0}, std::size_t{4}}) {
          SCOPED_TRACE(setup.name + " / " + name + ", " +
                       std::to_string(slices) + " slices, checkpoint every " +
                       std::to_string(every));
          const SimResults sliced =
              run_sliced(fabric, name, jobs, setup.config, bounds, every);
          EXPECT_EQ(sliced.events, reference.events);
          EXPECT_EQ(sliced.trace.size(), reference.trace.size());
          EXPECT_TRUE(results_bytes(sliced) == want)
              << "sliced run's results bytes differ from run()'s";
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 90u);
  // The boundary cases were actually exercised.
  EXPECT_GT(on_event, 100u);
  EXPECT_GT(aborts, 0u);
}

// A run paused by run_to holds no open phase: the wall time until the next
// slice (here a sleep) must not be charged to calendar_drain or to any
// other phase. Every phase nanosecond a slice accrues therefore lies inside
// that slice's own run_to call.
TEST(DriveBoundary, PausedRunChargesNoPhase) {
  using Clock = std::chrono::steady_clock;
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = trace_jobs(fabric, 5);
  const Time makespan = run_whole(fabric, "gurita", jobs, {}).makespan;

  obs::PhaseProfiler profiler;
  Simulator::Config config;
  config.profiler = &profiler;
  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, config);
  for (const JobSpec& job : jobs) sim.submit(job);

  constexpr int kSlices = 20;
  std::uint64_t leaked_ns = 0;
  for (int i = 1; i <= kSlices; ++i) {
    const std::uint64_t before = profiler.snapshot().tracked_ns();
    const Clock::time_point t0 = Clock::now();
    (void)sim.run_to(makespan * i / (kSlices + 1));
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t accrued = profiler.snapshot().tracked_ns() - before;
    const auto wall = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (accrued > wall) leaked_ns += accrued - wall;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const SimResults results = sim.finish();
  EXPECT_EQ(leaked_ns, 0u) << "phase time charged outside run_to calls";
  EXPECT_GT(profiler.snapshot()
                .phases[static_cast<std::size_t>(obs::Phase::kCalendarDrain)]
                .count,
            0u);
  EXPECT_EQ(results.jobs.size(), jobs.size());
}

}  // namespace
}  // namespace gurita
