// Tests for the fault-injection subsystem (fault/ + engine integration):
// retry-policy determinism, plan generation, setup validation, crash /
// flap / straggler semantics, job failure, scheduler state loss and the
// zero-fault byte-identity contract.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "core/gurita.h"
#include "fault/plan.h"
#include "fault/validation.h"
#include "flowsim/simulator.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sched/pfs.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// k=4 fat-tree with 100 B/s links: hand-computable numbers, 16 hosts.
class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;
  PfsScheduler pfs_;
};

JobSpec single_flow_job(Bytes size, int src = 0, int dst = 1,
                        Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

FaultEvent host_event(FaultKind kind, Time time, int host) {
  FaultEvent e;
  e.kind = kind;
  e.time = time;
  e.host = host;
  return e;
}

// ---------------------------------------------------------------- retry ---

TEST(RetryPolicy, DelayIsPureAndJitterBounded) {
  RetryPolicy p;
  p.backoff = RetryPolicy::Backoff::kExponential;
  p.base_delay = 0.01;
  p.multiplier = 2.0;
  p.max_delay = 1.0;
  p.jitter = 0.25;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const Time d1 = p.delay(attempt, 42, 7);
    const Time d2 = p.delay(attempt, 42, 7);
    EXPECT_DOUBLE_EQ(d1, d2) << "delay must be a pure function";
    const double base = 0.01 * std::pow(2.0, attempt - 1);
    EXPECT_GE(d1, base);
    EXPECT_LE(d1, base * (1.0 + p.jitter) + 1e-12);
  }
  // Different flows (streams) and seeds jitter independently.
  EXPECT_NE(p.delay(1, 42, 7), p.delay(1, 42, 8));
  EXPECT_NE(p.delay(1, 42, 7), p.delay(1, 43, 7));
}

TEST(RetryPolicy, ExponentialGrowthIsCapped) {
  RetryPolicy p;
  p.backoff = RetryPolicy::Backoff::kExponential;
  p.base_delay = 0.01;
  p.multiplier = 4.0;
  p.max_delay = 0.05;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.delay(1, 0, 0), 0.01);
  EXPECT_DOUBLE_EQ(p.delay(2, 0, 0), 0.04);
  EXPECT_DOUBLE_EQ(p.delay(3, 0, 0), 0.05);  // capped
  EXPECT_DOUBLE_EQ(p.delay(9, 0, 0), 0.05);
}

TEST(RetryPolicy, FixedBackoffAndAttemptClamp) {
  RetryPolicy p;
  p.backoff = RetryPolicy::Backoff::kFixed;
  p.base_delay = 0.02;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.delay(5, 1, 2), 0.02);
  // A flow parked before it ever transmitted retries with attempt 0;
  // that clamps to the first-attempt delay instead of underflowing.
  EXPECT_DOUBLE_EQ(p.delay(0, 1, 2), p.delay(1, 1, 2));
}

// ----------------------------------------------------------------- plan ---

TEST(FaultPlanGeneration, DeterministicAndWellPaired) {
  FaultPlanConfig config;
  config.host_crash_rate = 5.0;
  config.link_flap_rate = 3.0;
  config.straggler_rate = 4.0;
  config.state_loss_rate = 1.0;
  config.horizon = 2.0;

  const FaultPlan a = generate_fault_plan(config, 99, 16, 64);
  const FaultPlan b = generate_fault_plan(config, 99, 16, 64);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].host, b.events[i].host);
  }
  EXPECT_FALSE(a.events.empty());
  EXPECT_EQ(a.seed, 99u);

  // Sorted by time, each down paired with a later up, no double-downs.
  std::map<int, bool> host_down;
  Time prev = 0;
  for (const FaultEvent& e : a.events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
    if (!is_recovery(e.kind)) {
      EXPECT_LT(e.time, config.horizon);
    }
    if (e.kind == FaultKind::kHostDown) {
      EXPECT_FALSE(host_down[e.host]);
      host_down[e.host] = true;
    } else if (e.kind == FaultKind::kHostUp) {
      EXPECT_TRUE(host_down[e.host]);
      host_down[e.host] = false;
    } else if (e.kind == FaultKind::kStragglerStart) {
      EXPECT_GT(e.factor, 0.0);
      EXPECT_LT(e.factor, 1.0);
    }
  }
  for (const auto& [host, down] : host_down) EXPECT_FALSE(down) << host;

  // A different seed moves the schedule.
  const FaultPlan c = generate_fault_plan(config, 100, 16, 64);
  EXPECT_TRUE(c.events.size() != a.events.size() ||
              c.events[0].time != a.events[0].time);

  // Zero rates compile to the empty plan (the resilience baseline).
  FaultPlanConfig zero;
  EXPECT_TRUE(generate_fault_plan(zero, 99, 16, 64).empty());
}

// ----------------------------------------------------------- validation ---

TEST(FaultValidation, AggregatesEveryIssue) {
  FaultPlan plan;
  plan.events.push_back(host_event(FaultKind::kHostDown, 0.1, 99));  // range
  FaultEvent straggle = host_event(FaultKind::kStragglerStart, 0.2, 1);
  straggle.factor = 1.5;  // not in (0,1)
  plan.events.push_back(straggle);
  plan.events.push_back(host_event(FaultKind::kHostDown, -0.3, 1));  // time
  plan.retry.max_attempts = 0;  // must be >= 1
  try {
    validate_fault_plan(plan, 16, 64);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_GE(e.issues().size(), 4u);
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos);
  }
}

TEST(FaultValidation, PairingDisciplineEnforced) {
  FaultPlan plan;
  plan.events.push_back(host_event(FaultKind::kHostDown, 0.1, 1));
  plan.events.push_back(host_event(FaultKind::kHostDown, 0.2, 1));  // again
  EXPECT_THROW(validate_fault_plan(plan, 16, 64), ConfigError);

  FaultPlan up_only;
  up_only.events.push_back(host_event(FaultKind::kHostUp, 0.1, 1));
  EXPECT_THROW(validate_fault_plan(up_only, 16, 64), ConfigError);

  // A trailing down (never recovered) is legal: permanent failure.
  FaultPlan trailing;
  trailing.events.push_back(host_event(FaultKind::kHostDown, 0.1, 1));
  EXPECT_NO_THROW(validate_fault_plan(trailing, 16, 64));
}

TEST_F(FaultFixture, SimulatorRejectsInvalidPlansAndDisruptions) {
  Simulator::Config bad_plan;
  bad_plan.faults.events.push_back(host_event(FaultKind::kHostDown, 0.1, -5));
  EXPECT_THROW(Simulator(fabric_, pfs_, bad_plan), ConfigError);

  Simulator::Config bad_capacity_change;
  FaultEvent change;
  change.kind = FaultKind::kLinkCapacity;
  change.time = -1.0;
  change.link = LinkId{0};
  change.factor = 0.1;
  bad_capacity_change.faults.events.push_back(change);
  EXPECT_THROW(Simulator(fabric_, pfs_, bad_capacity_change), ConfigError);
}

// ------------------------------------------------------- crash + retry ---

TEST_F(FaultFixture, HostCrashAbortsAndRetries) {
  // 500 B at 100 B/s; dst host crashes at t=1 (400 B still in flight) and
  // recovers at t=2. The flow restarts from byte zero after the backoff.
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();

  EXPECT_EQ(r.flow_aborts, 1u);
  EXPECT_EQ(r.flow_retries, 1u);
  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_NEAR(r.bytes_lost, 100.0, 1e-6);            // 1 s of transmission
  EXPECT_NEAR(r.bytes_retransmitted, 100.0, 1e-6);   // all recovered
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_FALSE(r.jobs[0].failed);
  // Recover at 2.0 + 0.5 backoff, then the full 500 B again -> finish 7.5.
  EXPECT_NEAR(r.jobs[0].finish, 7.5, 1e-9);
  EXPECT_NEAR(r.total_recovery_latency, 1.5, 1e-9);  // parked 1.0..2.5

  const SimFlow& flow = sim.state().flow(FlowId{0});
  EXPECT_TRUE(flow.finished());
  EXPECT_EQ(flow.attempts, 1);
  EXPECT_NEAR(flow.bytes_sent(), 500.0, 1e-6);
}

TEST_F(FaultFixture, PermanentCrashFailsTheJobInsteadOfHanging) {
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  // No recovery, ever: the run must terminate with the job failed.
  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  sim.submit(single_flow_job(200.0, 4, 5));  // unaffected bystander
  const SimResults r = sim.run();

  EXPECT_EQ(r.failed_jobs, 1u);
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_TRUE(r.jobs[0].failed);
  EXPECT_FALSE(r.jobs[1].failed);
  // Failed jobs are excluded from JCT statistics.
  EXPECT_NEAR(r.average_jct(), 2.0, 1e-9);
  EXPECT_TRUE(sim.state().flow(FlowId{0}).cancelled);
}

TEST_F(FaultFixture, ExhaustedAttemptsFailTheJob) {
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.max_attempts = 1;  // the first abort is fatal
  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();

  EXPECT_EQ(r.flow_aborts, 1u);
  EXPECT_EQ(r.flow_retries, 0u);
  EXPECT_EQ(r.failed_jobs, 1u);
  EXPECT_TRUE(r.jobs[0].failed);
}

TEST_F(FaultFixture, ParkAtReleaseConsumesNoAttempt) {
  // Host 1 is down before the job arrives; the flow parks at release
  // (blocked, nothing in flight) and enters once the host recovers.
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 0.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;
  config.faults.retry.max_attempts = 1;  // would fail if release counted

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0, 0, 1, /*arrival=*/0.5));
  const SimResults r = sim.run();

  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_EQ(r.flow_aborts, 1u);  // the park-at-release abort
  EXPECT_EQ(r.flow_retries, 1u);
  EXPECT_NEAR(r.bytes_lost, 0.0, 1e-9);  // nothing was in flight
  EXPECT_EQ(sim.state().flow(FlowId{0}).attempts, 0);
  // Recover at 2.0 + 0.5 backoff + 5 s transmission.
  EXPECT_NEAR(r.jobs[0].finish, 7.5, 1e-9);
}

TEST_F(FaultFixture, LinkFlapAbortsCrossingFlows) {
  // Kill the src host's uplink instead of a host: same abort/retry cycle.
  const LinkId uplink =
      fabric_.topology().find_link(fabric_.host(0), fabric_.edge_of_host(0));
  FaultEvent down;
  down.kind = FaultKind::kLinkDown;
  down.time = 1.0;
  down.link = uplink;
  FaultEvent up;
  up.kind = FaultKind::kLinkUp;
  up.time = 2.0;
  up.link = uplink;
  Simulator::Config config;
  config.faults.events = {down, up};
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();
  EXPECT_EQ(r.flow_aborts, 1u);
  EXPECT_EQ(r.flow_retries, 1u);
  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_NEAR(r.jobs[0].finish, 7.5, 1e-9);
}

TEST_F(FaultFixture, StragglerSlowsWithoutAborting) {
  // Factor 0.2 on the dst host for t in [0, 5): the 500 B flow drains at
  // 20 B/s for 5 s (100 B), then at full rate -> finish at 9.
  FaultEvent start = host_event(FaultKind::kStragglerStart, 0.0, 1);
  start.factor = 0.2;
  FaultEvent end = host_event(FaultKind::kStragglerEnd, 5.0, 1);
  Simulator::Config config;
  config.faults.events = {start, end};

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();
  EXPECT_EQ(r.flow_aborts, 0u);
  EXPECT_EQ(r.failed_jobs, 0u);
  EXPECT_NEAR(r.jobs[0].finish, 9.0, 1e-9);
  EXPECT_NEAR(r.bytes_lost, 0.0, 1e-9);
}

// ------------------------------------------------------ scheduler reset ---

TEST_F(FaultFixture, SchedulerStateLossResetsGuritaQueues) {
  // Two fat coflows long enough for Gurita's HR rounds to demote them,
  // then a state loss: the trace must show kFaultReset re-admissions and
  // the run must still complete.
  JobSpec job;
  CoflowSpec c1, c2;
  for (int f = 0; f < 4; ++f) {
    c1.flows.push_back(FlowSpec{f, 8 + f, 5000.0});
    c2.flows.push_back(FlowSpec{4 + f, 12 + f, 5000.0});
  }
  job.coflows = {c1, c2};
  job.deps = {{}, {}};

  GuritaScheduler gurita;
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  Simulator::Config config;
  config.trace = &recorder;
  FaultEvent loss;
  loss.kind = FaultKind::kSchedulerStateLoss;
  loss.time = 20.0;
  config.faults.events = {loss};

  Simulator sim(fabric_, gurita, config);
  sim.submit(job);
  const SimResults r = sim.run();
  EXPECT_EQ(r.failed_jobs, 0u);

  int fault_records = 0, reset_records = 0;
  for (const obs::TraceRecord& rec : recorder.records()) {
    if (rec.kind == obs::TraceEventKind::kFault) ++fault_records;
    if (rec.kind == obs::TraceEventKind::kQueueChange &&
        rec.i2 ==
            static_cast<std::int32_t>(obs::QueueChangeCause::kFaultReset)) {
      ++reset_records;
      EXPECT_EQ(rec.i1, 0) << "state loss must re-admit at the top queue";
    }
  }
  EXPECT_EQ(fault_records, 1);
  EXPECT_EQ(reset_records, 2) << "both live coflows re-admitted";
}

// ----------------------------------------------------- counters + trace ---

TEST_F(FaultFixture, CountersExportAndTraceKindsRoundTrip) {
  Simulator::Config config;
  config.faults.events.push_back(host_event(FaultKind::kHostDown, 1.0, 1));
  config.faults.events.push_back(host_event(FaultKind::kHostUp, 2.0, 1));
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  config.trace = &recorder;

  Simulator sim(fabric_, pfs_, config);
  sim.submit(single_flow_job(500.0));
  const SimResults r = sim.run();

  obs::Registry registry;
  r.export_counters(registry);
  EXPECT_EQ(registry.counter("fault.flow_aborts"), 1u);
  EXPECT_EQ(registry.counter("fault.flow_retries"), 1u);
  EXPECT_EQ(registry.counter("fault.failed_jobs"), 0u);

  // JSONL and binary exports of the fault kinds parse back identically.
  const std::vector<obs::TraceRecord> records = recorder.records();
  std::stringstream jsonl;
  obs::write_jsonl(jsonl, records, "fault-run");
  const auto back = obs::read_jsonl(jsonl);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].records, records);

  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  obs::write_binary_header(binary);
  obs::write_binary_section(binary, "fault-run", records);
  const auto bin_back = obs::read_binary(binary);
  ASSERT_EQ(bin_back.size(), 1u);
  EXPECT_EQ(bin_back[0].records, records);

  int aborts = 0, retries = 0, faults = 0;
  for (const obs::TraceRecord& rec : records) {
    if (rec.kind == obs::TraceEventKind::kFlowAbort) ++aborts;
    if (rec.kind == obs::TraceEventKind::kFlowRetry) ++retries;
    if (rec.kind == obs::TraceEventKind::kFault) ++faults;
  }
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(retries, 1);
  EXPECT_EQ(faults, 2);
}

// ------------------------------------------------- zero-fault identity ---

TEST_F(FaultFixture, EmptyPlanIsByteIdenticalToNoFaultSupport) {
  const auto run_trace = [&](bool with_empty_plan) {
    obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
    Simulator::Config config;
    config.trace = &recorder;
    if (with_empty_plan) {
      // A generated zero-rate plan: exactly what bench_resilience's
      // baseline factor produces.
      config.faults = generate_fault_plan(FaultPlanConfig{}, 7,
                                          fabric_.num_hosts(),
                                          fabric_.topology().link_count());
      EXPECT_TRUE(config.faults.empty());
    }
    PfsScheduler pfs;
    Simulator sim(fabric_, pfs, config);
    sim.submit(single_flow_job(500.0));
    sim.submit(single_flow_job(300.0, 2, 9, 0.25));
    const SimResults r = sim.run();
    std::ostringstream os;
    os.precision(17);
    os << r.makespan << " " << r.average_jct() << " " << r.events << "\n";
    obs::write_jsonl(os, recorder.records());
    return os.str();
  };
  EXPECT_EQ(run_trace(false), run_trace(true));
}

}  // namespace
}  // namespace gurita
