// Differential fuzz harness: the event-calendar engine vs the reference
// oracle (tests/oracle_sim.h) on randomized workloads.
//
// Every trace draws a random fabric (big-switch or fat-tree), a random
// trace shape (fan-out, skew, arrival pattern), a random scheduler from the
// registry, and optionally link-capacity changes and the TCP slow-start ramp —
// then replays the identical job specs through both engines with fresh
// scheduler instances and asserts the runs are indistinguishable: same
// event count, same rate recomputations, bit-identical makespan, per-job
// and per-coflow times, and per-flow start/finish trajectories. Any
// divergence indicts the calendar machinery (stale-entry invalidation,
// re-keying, pop ordering), since that is the only part the oracle leaves
// out. Failures print the trace seed for standalone reproduction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/registry.h"
#include "flowsim/simulator.h"
#include "oracle_sim.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

/// Everything one differential trial needs, drawn from a single seed.
struct Trial {
  std::unique_ptr<Fabric> fabric;
  std::vector<JobSpec> jobs;
  std::string scheduler;
  Simulator::Config sim_config;
};

Trial draw_trial(std::uint64_t seed) {
  Rng rng(seed);
  Trial trial;

  if (rng.next_double() < 0.5) {
    BigSwitch::Config bs;
    bs.num_hosts = static_cast<int>(rng.uniform_int(8, 32));
    trial.fabric = std::make_unique<BigSwitch>(bs);
  } else {
    FatTree::Config ft;
    ft.k = 4;  // 16 hosts; plenty of path diversity at fuzz scale
    ft.ecmp_salt = rng.next_u64();
    trial.fabric = std::make_unique<FatTree>(ft);
  }

  TraceConfig trace;
  trace.num_jobs = static_cast<int>(rng.uniform_int(3, 10));
  trace.num_hosts = trial.fabric->num_hosts();
  trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                           : ArrivalPattern::kBursty;
  trace.mean_interarrival = rng.uniform(1.0, 50.0) * kMillisecond;
  trace.burst_size = static_cast<int>(rng.uniform_int(2, 6));
  trace.max_width = static_cast<int>(rng.uniform_int(2, 16));
  trace.width_pareto_alpha = rng.uniform(0.8, 2.0);
  trace.flow_skew_sigma = rng.uniform(0.2, 1.5);
  trace.stage_skew_sigma = rng.uniform(0.5, 2.0);
  trace.seed = rng.next_u64();
  trial.jobs = generate_trace(trace);

  const std::vector<std::string>& names = scheduler_names();
  trial.scheduler = names[rng.uniform_int(0, names.size() - 1)];

  // TCP slow-start ramp on ~30% of trials: exercises the capped-flow
  // refresh path where the engine re-dirties itself at ramp granularity.
  if (rng.next_double() < 0.3)
    trial.sim_config.tcp_ramp_time = rng.uniform(1.0, 10.0) * kMillisecond;

  // Capacity changes on ~40% of trials. Capacities stay strictly positive so
  // routed flows always finish (a dead link trips the stall guard by
  // design, which is not what this harness probes).
  if (rng.next_double() < 0.4) {
    const std::size_t links = trial.fabric->topology().link_count();
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      FaultEvent change;
      change.kind = FaultKind::kLinkCapacity;
      change.time = rng.uniform(0.0, 0.5);
      change.link = LinkId{rng.uniform_int(0, links - 1)};
      change.factor = rng.uniform(0.2, 1.0);
      trial.sim_config.faults.events.push_back(change);
    }
  }

  // Link stats on ~25% of trials: every settle's per-link byte deposits
  // must agree bitwise too.
  trial.sim_config.collect_link_stats = rng.next_double() < 0.25;
  return trial;
}

/// Asserts the two runs are bit-identical in everything the oracle models
/// (calendar bookkeeping counters — flow_touches — are engine-specific and
/// excluded by construction).
void expect_identical_runs(const SimResults& fast, const SimResults& oracle,
                           const SimState& fast_state,
                           const SimState& oracle_state) {
  EXPECT_EQ(fast.events, oracle.events);
  EXPECT_EQ(fast.rate_recomputations, oracle.rate_recomputations);
  EXPECT_EQ(fast.makespan, oracle.makespan);

  ASSERT_EQ(fast.jobs.size(), oracle.jobs.size());
  for (std::size_t i = 0; i < fast.jobs.size(); ++i) {
    EXPECT_EQ(fast.jobs[i].id, oracle.jobs[i].id) << "job " << i;
    EXPECT_EQ(fast.jobs[i].arrival, oracle.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(fast.jobs[i].finish, oracle.jobs[i].finish) << "job " << i;
    EXPECT_EQ(fast.jobs[i].total_bytes, oracle.jobs[i].total_bytes)
        << "job " << i;
  }

  ASSERT_EQ(fast.coflows.size(), oracle.coflows.size());
  for (std::size_t i = 0; i < fast.coflows.size(); ++i) {
    EXPECT_EQ(fast.coflows[i].release, oracle.coflows[i].release)
        << "coflow " << i;
    EXPECT_EQ(fast.coflows[i].finish, oracle.coflows[i].finish)
        << "coflow " << i;
    EXPECT_EQ(fast.coflows[i].total_bytes, oracle.coflows[i].total_bytes)
        << "coflow " << i;
  }

  ASSERT_EQ(fast_state.flow_count(), oracle_state.flow_count());
  for (std::size_t i = 0; i < fast_state.flow_count(); ++i) {
    const SimFlow& a = fast_state.flow(FlowId{i});
    const SimFlow& b = oracle_state.flow(FlowId{i});
    EXPECT_EQ(a.start_time, b.start_time) << "flow " << i;
    EXPECT_EQ(a.finish_time, b.finish_time) << "flow " << i;
    EXPECT_EQ(a.size, b.size) << "flow " << i;
  }

  ASSERT_EQ(fast.link_bytes.size(), oracle.link_bytes.size());
  for (std::size_t i = 0; i < fast.link_bytes.size(); ++i)
    EXPECT_EQ(fast.link_bytes[i], oracle.link_bytes[i]) << "link " << i;
}

void run_differential_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
  const Trial trial = draw_trial(seed);

  // Fresh scheduler per engine: schedulers are stateful and attach() to
  // exactly one run's SimState.
  std::unique_ptr<Scheduler> fast_sched = make_scheduler(trial.scheduler);
  std::unique_ptr<Scheduler> oracle_sched = make_scheduler(trial.scheduler);

  Simulator fast(*trial.fabric, *fast_sched, trial.sim_config);
  OracleSimulator oracle(*trial.fabric, *oracle_sched, trial.sim_config);
  for (const JobSpec& job : trial.jobs) {
    fast.submit(job);
    oracle.submit(job);
  }

  const SimResults fast_results = fast.run();
  const SimResults oracle_results = oracle.run();
  expect_identical_runs(fast_results, oracle_results, fast.state(),
                        oracle.state());
}

// The main gate: 200 randomized traces through both engines. Trial i is
// fully determined by its seed, so a failure reproduces standalone.
TEST(DifferentialEngineTest, FuzzFastEngineAgainstOracle) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_differential_trial(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential fuzz diverged at trace seed " << seed
             << "; rerun run_differential_trial(" << seed << ") to debug";
    }
  }
}

// Targeted worst case: everything at once — bursty arrivals, TCP ramp,
// repeated capacity changes on a fat-tree, a tick-driven scheduler.
TEST(DifferentialEngineTest, KitchenSinkScenarioMatchesOracle) {
  FatTree::Config ft;
  ft.k = 4;
  const FatTree fabric(ft);

  TraceConfig trace;
  trace.num_jobs = 12;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.arrivals = ArrivalPattern::kBursty;
  trace.burst_size = 4;
  trace.max_width = 12;
  trace.seed = 1234;
  const std::vector<JobSpec> jobs = generate_trace(trace);

  Simulator::Config config;
  config.tcp_ramp_time = 5 * kMillisecond;
  config.collect_link_stats = true;
  const std::size_t links = fabric.topology().link_count();
  for (int i = 0; i < 6; ++i) {
    FaultEvent change;
    change.kind = FaultKind::kLinkCapacity;
    change.time = 0.05 * (i + 1);
    change.link = LinkId{static_cast<std::size_t>(i * 7) % links};
    change.factor = i % 2 ? 0.25 : 1.0;
    config.faults.events.push_back(change);
  }

  for (const std::string& name : {std::string("gurita"), std::string("aalo"),
                                  std::string("pfs")}) {
    SCOPED_TRACE("scheduler " + name);
    std::unique_ptr<Scheduler> fast_sched = make_scheduler(name);
    std::unique_ptr<Scheduler> oracle_sched = make_scheduler(name);
    Simulator fast(fabric, *fast_sched, config);
    OracleSimulator oracle(fabric, *oracle_sched, config);
    for (const JobSpec& job : jobs) {
      fast.submit(job);
      oracle.submit(job);
    }
    const SimResults fast_results = fast.run();
    const SimResults oracle_results = oracle.run();
    expect_identical_runs(fast_results, oracle_results, fast.state(),
                          oracle.state());
  }
}

}  // namespace
}  // namespace gurita
