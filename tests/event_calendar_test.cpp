// Tests for the incremental event-calendar engine: exact finish times under
// lazy byte draining, incremental per-coflow aggregates vs brute-force
// recomputation, rate-zero flows (no calendar entry) across capacity changes,
// and the engine-cost counters bench_engine reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/gurita.h"
#include "flowsim/simulator.h"
#include "obs/registry.h"
#include "sched/pfs.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

JobSpec one_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

/// One job, one coflow, `flows` transfers on disjoint host pairs
/// (i -> flows + i), sizes spread over `groups` batches.
JobSpec disjoint_pairs_job(int flows, int groups) {
  JobSpec job;
  CoflowSpec coflow;
  for (int i = 0; i < flows; ++i)
    coflow.flows.push_back(
        FlowSpec{i, flows + i, 100.0 * static_cast<double>(1 + i % groups)});
  job.coflows.push_back(coflow);
  job.deps = {{}};
  return job;
}

// -------------------------------------------------- exact lazy-drain times

TEST(EventCalendar, ContentionFinishTimesExact) {
  // Two flows share host 0's uplink (100 B/s): equal-share 50/50 until the
  // small one drains (100 B at t=2), then the big one takes the full port
  // and its calendar key must be re-projected from the lazily-settled
  // residue: 300 - 2*50 = 200 B at 100 B/s -> t=4.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  sim.submit(one_flow_job(100.0, 0, 1));
  sim.submit(one_flow_job(300.0, 0, 2));
  const SimResults r = sim.run();
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_NEAR(r.jobs[0].jct(), 2.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].jct(), 4.0, 1e-9);
  EXPECT_NEAR(r.makespan, 4.0, 1e-9);
}

TEST(EventCalendar, StaggeredArrivalRekeysInFlightFlow) {
  // Flow A (400 B) runs alone at 100 B/s for 1 s, then flow B (100 B)
  // arrives on the same uplink: A has 300 B left, both drop to 50 B/s, B
  // drains at t=3, A re-projects to 300 - 2*50 = 200 B -> finishes t=5.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator sim(fabric, pfs);
  sim.submit(one_flow_job(400.0, 0, 1));
  sim.submit(one_flow_job(100.0, 0, 2, 1.0));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].jct(), 5.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].jct(), 2.0, 1e-9);  // arrived t=1, done t=3
}

// -------------------------------------------- rate-zero / capacity changes

TEST(EventCalendar, ZeroCapacityStallThenRestore) {
  // A rate-0 flow has no calendar entry; the capacity change that restores the
  // link must re-key it. 100 B flow: 50 B by t=0.5, stalled during
  // [0.5, 1.5), finishes at t=2.0.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  PfsScheduler pfs;
  Simulator::Config config;
  FaultEvent change;
  change.kind = FaultKind::kLinkCapacity;
  change.link = fabric.uplink(0);
  change.time = 0.5;
  change.factor = 0.0;
  config.faults.events.push_back(change);
  change.time = 1.5;
  change.factor = 1.0;
  config.faults.events.push_back(change);
  Simulator sim(fabric, pfs, config);
  sim.submit(one_flow_job(100.0, 0, 1));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.makespan, 2.0, 1e-9);
}

// ----------------------------------------- aggregates vs brute-force sums

/// PFS priorities plus an audit pass: at every tick and every assignment it
/// recomputes each coflow/job byte aggregate by brute force from the flows'
/// lazy state and compares against the engine's O(1) incremental getters.
class AggregateAuditScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "audit"; }
  [[nodiscard]] Time tick_interval() const override { return 0.05; }
  bool on_tick(Time now) override {
    audit(now);
    return false;
  }
  void assign(Time now, const std::vector<SimFlow*>& active) override {
    audit(now);
    for (SimFlow* f : active) {
      const SimJob& job = state().job(f->job);
      f->tier = static_cast<Tier>(job.id.value());
      f->weight = 1.0;
    }
  }
  [[nodiscard]] int audits() const { return audits_; }

 private:
  void audit(Time now) {
    const SimState& s = state();
    ASSERT_DOUBLE_EQ(s.now(), now);
    for (std::size_t ci = 0; ci < s.coflow_count(); ++ci) {
      const SimCoflow& c = s.coflow(CoflowId{ci});
      if (!c.released()) continue;
      Bytes brute_sent = 0;
      Bytes brute_ell_max = 0;
      int brute_open = 0;
      for (FlowId fid : c.flows) {
        const SimFlow& f = s.flow(fid);
        const Bytes sent = f.bytes_sent_at(now);
        brute_sent += sent;
        brute_ell_max = std::max(brute_ell_max, sent);
        if (f.active()) ++brute_open;
      }
      const double tol = 1e-6 * (1.0 + brute_sent);
      EXPECT_NEAR(s.coflow_bytes_sent(c.id), brute_sent, tol);
      EXPECT_NEAR(s.coflow_ell_max(c.id), brute_ell_max, tol);
      EXPECT_EQ(s.coflow_open_connections(c.id), brute_open);
    }
    for (std::size_t ji = 0; ji < s.job_count(); ++ji) {
      const SimJob& j = s.job(JobId{ji});
      Bytes brute_job = 0;
      for (CoflowId cid : j.coflows) {
        const SimCoflow& c = s.coflow(cid);
        if (!c.released()) continue;
        for (FlowId fid : c.flows) brute_job += s.flow(fid).bytes_sent_at(now);
      }
      EXPECT_NEAR(s.job_bytes_sent(j.id), brute_job, 1e-6 * (1.0 + brute_job));
    }
    ++audits_;
  }
  int audits_ = 0;
};

TEST(EventCalendar, AggregatesMatchBruteForce) {
  // Contended multi-stage workload on a fat-tree: shared endpoints force
  // frequent rate changes (settle/set_rate churn on partial progress), the
  // DAG forces mid-run releases, staggered arrivals force mid-run joins.
  const FatTree fabric(FatTree::Config{4, 100.0});
  AggregateAuditScheduler audit;
  Simulator sim(fabric, audit);

  JobSpec dag;  // stage 1: two coflows; stage 2 depends on both.
  CoflowSpec s1a, s1b, s2;
  s1a.flows = {FlowSpec{0, 8, 300.0}, FlowSpec{1, 8, 120.0}};
  s1b.flows = {FlowSpec{2, 9, 250.0}};
  s2.flows = {FlowSpec{8, 0, 180.0}, FlowSpec{9, 1, 90.0}};
  dag.coflows = {s1a, s1b, s2};
  dag.deps = {{}, {}, {0, 1}};
  sim.submit(dag);

  sim.submit(one_flow_job(500.0, 0, 8, 0.3));   // contends with s1a
  sim.submit(one_flow_job(70.0, 2, 9, 1.1));    // contends with s1b
  sim.submit(one_flow_job(260.0, 8, 1, 2.7));   // contends with s2

  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs.size(), 4u);
  // The audit must actually have run often, including mid-drain instants.
  EXPECT_GT(audit.audits(), 20);
}

// ------------------------------------------------------- cost counters

TEST(EventCalendar, CountersAreDeterministic) {
  // Same workload, same scheduler -> bit-identical results and counters
  // (the engine has no hidden iteration-order or timing dependence).
  auto run_once = [] {
    const FatTree fabric(FatTree::Config{4, 100.0});
    GuritaScheduler::Config config;
    config.first_threshold = 75.0;
    config.multiplier = 4.0;
    config.delta = 0.1;
    GuritaScheduler gurita(config);
    Simulator sim(fabric, gurita);
    for (int i = 0; i < 5; ++i)
      sim.submit(one_flow_job(100.0 + 40.0 * i, i, 15 - i, 0.25 * i));
    sim.submit(disjoint_pairs_job(4, 2));
    return sim.run();
  };
  const SimResults a = run_once();
  const SimResults b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.flow_touches, b.flow_touches);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    EXPECT_DOUBLE_EQ(a.jobs[i].finish, b.jobs[i].finish);
}

TEST(EventCalendar, CountersArePerRunAndMergeExplicitly) {
  // Cost counters are strictly per-run: the engine only ever writes the
  // SimResults of its own run(), so each run's counters are unaffected by
  // other runs, and pooling them is the explicit merge_counters() fold —
  // sum of counters, max of makespans — in whatever order the caller
  // merges (the parallel runner merges in matrix order).
  auto run_once = [](int flows) {
    const BigSwitch fabric(BigSwitch::Config{16, 100.0});
    PfsScheduler pfs;
    Simulator sim(fabric, pfs);
    sim.submit(disjoint_pairs_job(flows, 2));
    return sim.run();
  };
  const SimResults a = run_once(3);
  const SimResults b = run_once(6);

  // Re-running a does not observe b: per-run isolation.
  const SimResults a2 = run_once(3);
  EXPECT_EQ(a.events, a2.events);
  EXPECT_EQ(a.flow_touches, a2.flow_touches);
  EXPECT_EQ(a.rate_recomputations, a2.rate_recomputations);

  SimResults pooled = a;
  pooled.merge_counters(b);
  EXPECT_EQ(pooled.events, a.events + b.events);
  EXPECT_EQ(pooled.flow_touches, a.flow_touches + b.flow_touches);
  EXPECT_EQ(pooled.rate_recomputations,
            a.rate_recomputations + b.rate_recomputations);
  EXPECT_DOUBLE_EQ(pooled.makespan, std::max(a.makespan, b.makespan));
  // merge_counters leaves populations alone (absorb() re-ids those).
  EXPECT_EQ(pooled.jobs.size(), a.jobs.size());
  EXPECT_EQ(pooled.coflows.size(), a.coflows.size());

  // The registry projection (obs/registry.h) is the other pooling path for
  // the same counters; merging per-run registries must agree with
  // merge_counters exactly (tests/obs_test.cpp covers 1/2/8 workers).
  obs::Registry via_merge_counters;
  pooled.export_counters(via_merge_counters);
  obs::Registry via_registry_merge, shard_a, shard_b;
  a.export_counters(shard_a);
  b.export_counters(shard_b);
  via_registry_merge.merge(shard_a);
  via_registry_merge.merge(shard_b);
  EXPECT_EQ(via_merge_counters.to_json(), via_registry_merge.to_json());
}

}  // namespace
}  // namespace gurita
