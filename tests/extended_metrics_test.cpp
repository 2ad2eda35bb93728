// Tests for extended metrics (CCT stats, slowdowns, Jain fairness) and the
// engine's failure injection + link utilization statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/extended.h"
#include "obs/trace.h"
#include "sched/pfs.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

// ------------------------------------------------------------ CctCollector

SimResults coflow_results(
    std::initializer_list<std::pair<int, double>> stage_cct) {
  SimResults r;
  std::uint64_t id = 0;
  for (const auto& [stage, cct] : stage_cct) {
    SimResults::CoflowResult c;
    c.id = CoflowId{id++};
    c.stage = stage;
    c.release = 0;
    c.finish = cct;
    r.coflows.push_back(c);
  }
  return r;
}

TEST(CctCollector, OverallAverage) {
  CctCollector c;
  c.add(coflow_results({{1, 2.0}, {1, 4.0}, {2, 6.0}}));
  EXPECT_DOUBLE_EQ(c.average_cct(), 4.0);
  EXPECT_EQ(c.coflows(), 3u);
}

TEST(CctCollector, PerStage) {
  CctCollector c;
  c.add(coflow_results({{1, 2.0}, {1, 4.0}, {3, 9.0}}));
  EXPECT_DOUBLE_EQ(c.average_cct_at_stage(1), 3.0);
  EXPECT_DOUBLE_EQ(c.average_cct_at_stage(2), 0.0);
  EXPECT_DOUBLE_EQ(c.average_cct_at_stage(3), 9.0);
  EXPECT_EQ(c.max_stage_seen(), 3);
}

TEST(CctCollector, P95) {
  CctCollector c;
  SimResults r;
  for (int i = 1; i <= 100; ++i) {
    SimResults::CoflowResult cf;
    cf.id = CoflowId{static_cast<std::uint64_t>(i)};
    cf.stage = 1;
    cf.finish = i;
    r.coflows.push_back(cf);
  }
  c.add(r);
  EXPECT_DOUBLE_EQ(c.p95_cct(), 95.0);
}

TEST(CctCollector, RejectsZeroStage) {
  CctCollector c;
  SimResults r;
  SimResults::CoflowResult cf;
  cf.stage = 0;
  r.coflows.push_back(cf);
  EXPECT_THROW(c.add(r), std::logic_error);
}

// ---------------------------------------------------------------- slowdown

TEST(Slowdown, OneMeansOptimal) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 200.0});
  job.coflows.push_back(c);
  job.deps = {{}};
  sim.submit(job);
  const SimResults r = sim.run();
  const auto slowdowns = job_slowdowns({job}, r, 100.0);
  ASSERT_EQ(slowdowns.size(), 1u);
  EXPECT_NEAR(slowdowns[0], 1.0, 1e-9);  // alone at line rate
}

TEST(Slowdown, ContentionRaisesIt) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 2; ++i) {
    JobSpec job;
    CoflowSpec c;
    c.flows.push_back(FlowSpec{0, 1, 100.0});
    job.coflows.push_back(c);
    job.deps = {{}};
    jobs.push_back(job);
    sim.submit(job);
  }
  const SimResults r = sim.run();
  const auto slowdowns = job_slowdowns(jobs, r, 100.0);
  for (double s : slowdowns) EXPECT_NEAR(s, 2.0, 1e-9);  // halved rate
}

TEST(Slowdown, RejectsMismatch) {
  SimResults r;
  EXPECT_THROW(job_slowdowns({JobSpec{}}, r, 100.0), std::logic_error);
}

// ------------------------------------------------------------------- Jain

TEST(Jain, PerfectlyEvenIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({2.0, 2.0, 2.0}), 1.0);
}

TEST(Jain, SkewLowersIndex) {
  const double skewed = jain_fairness({1.0, 1.0, 10.0});
  EXPECT_LT(skewed, 1.0);
  EXPECT_GT(skewed, 1.0 / 3.0);  // lower bound is 1/n
}

TEST(Jain, SingleValueIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0}), 1.0);
}

TEST(Jain, RejectsDegenerate) {
  EXPECT_THROW(jain_fairness({}), std::logic_error);
  EXPECT_THROW(jain_fairness({0.0, 0.0}), std::logic_error);
  EXPECT_THROW(jain_fairness({-1.0, 2.0}), std::logic_error);
}

// --------------------------------------------- failure injection + stats

class DisruptionFixture : public ::testing::Test {
 protected:
  DisruptionFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;
  PfsScheduler pfs_;

  /// Host 0's uplink, the link every test here degrades.
  LinkId uplink() const {
    return fabric_.topology().find_link(fabric_.host(0),
                                        fabric_.edge_of_host(0));
  }
  static FaultEvent link_event(FaultKind kind, Time time, LinkId link,
                               double factor = 1.0) {
    FaultEvent e;
    e.kind = kind;
    e.time = time;
    e.link = link;
    e.factor = factor;
    return e;
  }

  JobSpec job(Bytes size, int src, int dst, Time arrival = 0) {
    JobSpec j;
    j.arrival_time = arrival;
    CoflowSpec c;
    c.flows.push_back(FlowSpec{src, dst, size});
    j.coflows.push_back(c);
    j.deps = {{}};
    return j;
  }
};

TEST_F(DisruptionFixture, DegradedLinkSlowsFlows) {
  // Degrade host 0's uplink to 25% at t=1.
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 1.0, uplink(), 0.25));
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1));
  const SimResults r = sim.run();
  // 100 B in the first second, then 100 B at 25 B/s: finish at 5.
  EXPECT_NEAR(r.jobs[0].finish, 5.0, 1e-9);
}

TEST_F(DisruptionFixture, RestoredLinkSpeedsBackUp) {
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.0, uplink(), 0.25));
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 2.0, uplink(), 1.0));
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(150.0, 0, 1));
  const SimResults r = sim.run();
  // 50 B in [0,2] at 25 B/s, then 100 B at full rate: finish at 3.
  EXPECT_NEAR(r.jobs[0].finish, 3.0, 1e-9);
}

TEST_F(DisruptionFixture, UnaffectedPathsKeepFullRate) {
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.0, uplink(), 0.1));
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(100.0, 8, 9));  // different pod entirely
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].finish, 1.0, 1e-9);
}

TEST_F(DisruptionFixture, DeadLinkTripsStallGuard) {
  Simulator::Config config;
  config.max_time = 100.0;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.5, uplink(), 0.0));
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST_F(DisruptionFixture, RejectsUnknownLink) {
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.0, LinkId{999999}, 1.0));
  EXPECT_THROW(Simulator(fabric_, pfs_, config), std::logic_error);
}

TEST_F(DisruptionFixture, RejectsFactorAboveNominal) {
  // A capacity above nominal would void the lower bounds of bound/bound.h.
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.0, uplink(), 1.5));
  try {
    Simulator sim(fabric_, pfs_, config);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    ASSERT_EQ(e.issues().size(), 1u);
    EXPECT_EQ(e.issues()[0].where, "fault_plan.events[0]");
  }
  config.faults.events[0].factor = std::nan("");
  EXPECT_THROW(Simulator(fabric_, pfs_, config), ConfigError);
  config.faults.events[0].factor = -0.1;
  EXPECT_THROW(Simulator(fabric_, pfs_, config), ConfigError);
}

TEST_F(DisruptionFixture, DegradationBeforeLinkFlapSurvivesIt) {
  // The change at 0.3 falls while the fabric is idle (the job arrives at
  // 2). It must fire at 0.3, before the flap saves the link's capacity,
  // so kLinkUp restores the degraded 25 B/s: 200 B from t=2 end at 10.
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.3, uplink(), 0.25));
  config.faults.events.push_back(
      link_event(FaultKind::kLinkDown, 0.5, uplink()));
  config.faults.events.push_back(link_event(FaultKind::kLinkUp, 1.0, uplink()));
  obs::TraceRecorder recorder(
      obs::mask_of(obs::TraceEventKind::kCapacityChange));
  config.trace = &recorder;
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1, /*arrival=*/2.0));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].finish, 10.0, 1e-9);
  ASSERT_EQ(recorder.records().size(), 1u);
  const obs::TraceRecord& change = recorder.records()[0];
  EXPECT_EQ(change.time, 0.3);
  EXPECT_EQ(change.i0, static_cast<std::int32_t>(uplink().value()));
  EXPECT_EQ(change.v0, 25.0);
}

/// Flat-priority scheduler that logs the fault kinds delivered to it.
class FaultLogScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "fault_log"; }
  void assign(Time, const std::vector<SimFlow*>& active) override {
    for (SimFlow* f : active) {
      f->tier = 0;
      f->weight = 1.0;
    }
  }
  void on_fault(const FaultEvent& event, Time) override {
    delivered.push_back(event.kind);
  }
  void on_recover(const FaultEvent& event, Time) override {
    delivered.push_back(event.kind);
  }
  std::vector<FaultKind> delivered;
};

TEST_F(DisruptionFixture, CapacityChangesAreNotDeliveredToTheScheduler) {
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.3, uplink(), 0.25));
  config.faults.events.push_back(
      link_event(FaultKind::kLinkDown, 0.5, uplink()));
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.7, uplink(), 0.5));
  config.faults.events.push_back(link_event(FaultKind::kLinkUp, 1.0, uplink()));
  FaultLogScheduler log;
  Simulator sim(fabric_, log, config);
  sim.submit(job(200.0, 0, 1));
  sim.run();
  EXPECT_EQ(log.delivered,
            (std::vector<FaultKind>{FaultKind::kLinkDown, FaultKind::kLinkUp}));
}

TEST_F(DisruptionFixture, DegradationWhileLinkIsDownAppliesOnRecovery) {
  // The flow loses its first 50 B when the link fails at 0.5. The change
  // at 0.7 lands on the downed link: capacity stays 0 until kLinkUp at 1,
  // which brings the link back at 25 B/s. The retry restarts all 200 B
  // one backoff after the recovery.
  Simulator::Config config;
  config.faults.events.push_back(
      link_event(FaultKind::kLinkDown, 0.5, uplink()));
  config.faults.events.push_back(
      link_event(FaultKind::kLinkCapacity, 0.7, uplink(), 0.25));
  config.faults.events.push_back(link_event(FaultKind::kLinkUp, 1.0, uplink()));
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1));
  const SimResults r = sim.run();
  const Time backoff = config.faults.retry.delay(1, config.faults.seed, 0);
  EXPECT_NEAR(r.jobs[0].finish, 1.0 + backoff + 8.0, 1e-9);
  EXPECT_NEAR(r.jobs[0].finish, 9.0022, 1e-3);
  EXPECT_EQ(r.flow_aborts, 1u);
}

TEST_F(DisruptionFixture, LinkStatsAccountDeliveredBytes) {
  Simulator::Config config;
  config.collect_link_stats = true;
  Simulator sim(fabric_, pfs_, config);
  sim.submit(job(200.0, 0, 1));
  const SimResults r = sim.run();
  ASSERT_EQ(r.link_bytes.size(), fabric_.topology().link_count());
  const LinkId uplink =
      fabric_.topology().find_link(fabric_.host(0), fabric_.edge_of_host(0));
  EXPECT_NEAR(r.link_bytes[uplink.value()], 200.0, 1e-3);
  // Utilization: 200 B over (100 B/s * 2 s) = 1.0 on the used link.
  EXPECT_NEAR(r.link_utilization(uplink, 100.0), 1.0, 1e-6);
  // An untouched link carried nothing.
  const LinkId other =
      fabric_.topology().find_link(fabric_.host(8), fabric_.edge_of_host(8));
  EXPECT_DOUBLE_EQ(r.link_bytes[other.value()], 0.0);
}

TEST_F(DisruptionFixture, LinkStatsOffByDefault) {
  Simulator sim(fabric_, pfs_);
  sim.submit(job(100.0, 0, 1));
  const SimResults r = sim.run();
  EXPECT_TRUE(r.link_bytes.empty());
  EXPECT_THROW(r.link_utilization(LinkId{0}, 100.0), std::logic_error);
}

}  // namespace
}  // namespace gurita
