// Behavioural tests for the Gurita scheduler: HR observation caching,
// priority dynamics (start-high, demote-only, per-stage reset), LBEF
// ordering, and the paper's motivation examples (Figs. 2 and 4) as
// qualitative scheduling claims.
#include <gtest/gtest.h>

#include "core/gurita.h"
#include "core/head_receiver.h"
#include "flowsim/simulator.h"
#include "sched/pfs.h"
#include "sched/stream.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

class GuritaFixture : public ::testing::Test {
 protected:
  GuritaFixture() : fabric_(FatTree::Config{4, 100.0}) {}
  FatTree fabric_;
};

JobSpec one_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

GuritaScheduler::Config small_scale_config() {
  GuritaScheduler::Config config;
  config.queues = 4;
  config.first_threshold = 75.0;  // Ψ in byte-scale for 100 B/s fixtures
  config.multiplier = 4.0;
  config.delta = 0.1;
  return config;
}

// -------------------------------------------------------------- lifecycle

TEST_F(GuritaFixture, CompletesAllJobs) {
  GuritaScheduler gurita(small_scale_config());
  Simulator sim(fabric_, gurita);
  for (int i = 0; i < 5; ++i)
    sim.submit(one_flow_job(100.0 + 50.0 * i, i, 15 - i, 0.2 * i));
  const SimResults r = sim.run();
  EXPECT_EQ(r.jobs.size(), 5u);
  for (const auto& j : r.jobs) EXPECT_GT(j.jct(), 0.0);
}

TEST_F(GuritaFixture, NewCoflowStartsAtHighestPriority) {
  GuritaScheduler gurita(small_scale_config());
  Simulator sim(fabric_, gurita);
  sim.submit(one_flow_job(1000.0, 0, 1));
  // Immediately after release, before the first δ tick, the coflow must be
  // in queue 0 (the paper: new flows transmit at highest priority).
  EXPECT_EQ(gurita.coflow_queue(CoflowId{0}), 0);
  (void)sim.run();
}

TEST_F(GuritaFixture, ElephantIsDemotedWithinDelta) {
  // A wide elephant coflow (high Ψ) vs a fresh mouse arriving later:
  // the mouse should effectively preempt the demoted elephant.
  GuritaScheduler::Config config = small_scale_config();
  config.starvation_mitigation = false;  // strict SPQ: crisp preemption
  GuritaScheduler gurita(config);
  Simulator sim(fabric_, gurita);
  JobSpec elephant;
  CoflowSpec c;
  for (int i = 0; i < 4; ++i) c.flows.push_back(FlowSpec{i, i + 4, 500.0});
  elephant.coflows.push_back(c);
  elephant.deps = {{}};
  sim.submit(elephant);
  sim.submit(one_flow_job(50.0, 0, 4, 2.0));  // shares links with elephant
  const SimResults r = sim.run();
  // The mouse (job 1) runs at ~full rate despite the elephant backlog.
  EXPECT_LT(r.jobs[1].jct(), 1.5);
}

TEST_F(GuritaFixture, DemoteOnlyWhileCoflowRuns) {
  // Once demoted, a coflow's queue must never climb back (TCP reordering).
  GuritaScheduler::Config config = small_scale_config();
  config.first_threshold = 10.0;  // everything demotes fast
  GuritaScheduler gurita(config);
  Simulator sim(fabric_, gurita);
  JobSpec big;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 2000.0});
  c.flows.push_back(FlowSpec{2, 3, 2000.0});
  big.coflows.push_back(c);
  big.deps = {{}};
  sim.submit(big);
  (void)sim.run();
  // After the run the coflow was erased from the map; this checks the API
  // default. The demote-only property is asserted by the engine not
  // throwing and by LBEF tests below; here we verify accessor behavior.
  EXPECT_EQ(gurita.coflow_queue(CoflowId{0}), 0);
}

TEST_F(GuritaFixture, LaterStageResetsPriority) {
  // A job whose stage 1 is an elephant gets demoted there, but its tiny
  // stage 2 coflow re-enters at the top queue — the core fix over TBS.
  GuritaScheduler::Config config = small_scale_config();
  config.starvation_mitigation = false;
  GuritaScheduler gurita(config);
  Simulator sim(fabric_, gurita);

  JobSpec job;
  CoflowSpec big, tiny;
  big.flows.push_back(FlowSpec{0, 1, 1000.0});
  tiny.flows.push_back(FlowSpec{1, 2, 50.0});
  job.coflows = {big, tiny};
  job.deps = {{}, {0}};
  sim.submit(job);
  // Competitor that has been running on the stage-2 path long enough to be
  // demoted by the time stage 2 starts (t=10).
  sim.submit(one_flow_job(3000.0, 1, 2, 0.0));
  const SimResults r = sim.run();

  // Stage 2 takes ~0.5 s at full rate; TBS-based Stream would park it
  // behind the competitor. Allow generous slack for sharing before the
  // competitor's demotion.
  const double stage2_time = r.coflows[1].cct();
  EXPECT_LT(stage2_time, 2.0);
}

TEST_F(GuritaFixture, StarvationMitigationKeepsElephantMoving) {
  // With WRR on, a demoted elephant still progresses while mice pass.
  GuritaScheduler::Config wrr_config = small_scale_config();
  wrr_config.starvation_mitigation = true;
  GuritaScheduler wrr(wrr_config);
  GuritaScheduler::Config spq_config = small_scale_config();
  spq_config.starvation_mitigation = false;
  GuritaScheduler spq(spq_config);

  auto run = [&](Scheduler& sched) {
    Simulator sim(fabric_, sched);
    sim.submit(one_flow_job(1000.0, 0, 1, 0.0));  // elephant
    for (int i = 0; i < 8; ++i)
      sim.submit(one_flow_job(60.0, 0, 1, 1.0 + i * 0.7));  // mouse stream
    return sim.run();
  };
  const SimResults r_wrr = run(wrr);
  const SimResults r_spq = run(spq);
  // The elephant finishes sooner when it keeps a trickle of bandwidth.
  EXPECT_LT(r_wrr.jobs[0].jct(), r_spq.jobs[0].jct() + 1e-9);
}

// ----------------------------------------------------------- HeadReceiver

TEST_F(GuritaFixture, HeadReceiverObservesActiveCoflows) {
  PfsScheduler pfs;  // neutral scheduler; we drive HR manually
  Simulator sim(fabric_, pfs);
  JobSpec job;
  CoflowSpec c1, c2;
  c1.flows.push_back(FlowSpec{0, 1, 100.0});
  c1.flows.push_back(FlowSpec{2, 3, 300.0});
  c2.flows.push_back(FlowSpec{1, 2, 100.0});
  job.coflows = {c1, c2};
  job.deps = {{}, {0}};
  sim.submit(job);
  (void)sim.run();

  // Post-run: stage-2 coflow finished; HR.update sees no active coflows.
  HeadReceiver hr(JobId{0});
  hr.update(sim.state(), 99.0);
  EXPECT_DOUBLE_EQ(hr.last_update(), 99.0);
  EXPECT_TRUE(hr.observations().empty());
  EXPECT_EQ(hr.completed_stages(), 2);
  EXPECT_THROW(hr.observation(CoflowId{0}), std::logic_error);
}

TEST_F(GuritaFixture, HeadReceiverObservationFields) {
  // Freeze a simulation mid-flight using a tick-driven probe scheduler.
  class Probe final : public Scheduler {
   public:
    std::string name() const override { return "probe"; }
    Time tick_interval() const override { return 1.0; }
    bool on_tick(Time now) override {
      if (now >= 2.0 && !captured_) {
        hr_.update(state(), now);
        captured_ = true;
      }
      return false;
    }
    void assign(Time now, const std::vector<SimFlow*>& active) override {
      (void)now;
      for (SimFlow* f : active) {
        f->tier = 0;
        f->weight = 1.0;
      }
    }
    HeadReceiver hr_{JobId{0}};
    bool captured_ = false;
  };

  Probe probe;
  Simulator sim(fabric_, probe);
  JobSpec job;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{0, 1, 1000.0});  // shares uplink: 50 B/s each
  c.flows.push_back(FlowSpec{0, 2, 1000.0});
  job.coflows.push_back(c);
  job.deps = {{}};
  sim.submit(job);
  (void)sim.run();

  ASSERT_TRUE(probe.captured_);
  const CoflowObservation& obs = probe.hr_.observation(CoflowId{0});
  EXPECT_EQ(obs.stage, 1);
  EXPECT_DOUBLE_EQ(obs.open_connections, 2.0);
  // At t=2 each flow sent ~100 B (50 B/s shared uplink).
  EXPECT_NEAR(obs.ell_max_observed, 100.0, 1.0);
  EXPECT_NEAR(obs.ell_avg_observed, 100.0, 1.0);
  EXPECT_NEAR(obs.bytes_received, 200.0, 2.0);
}

// ------------------------------------------- motivation examples (paper)

// Figure 2: TBS-based scheduling punishes multi-stage job A (bytes 10/1/1/1
// per stage) behind single-stage jobs B, C, D (2 units each); per-stage
// scheduling lowers the average JCT. We reproduce the *claim* (per-stage
// aware < TBS-based on this workload) rather than the paper's toy units.
TEST_F(GuritaFixture, Figure2PerStageBeatsTbsOnMotivationWorkload) {
  auto build_jobs = [&](Simulator& sim) {
    // Job A: four-stage chain, bytes 1000/100/100/100, on hosts 0->1->2->3->4.
    JobSpec a;
    const Bytes stage_bytes[4] = {1000.0, 100.0, 100.0, 100.0};
    for (int s = 0; s < 4; ++s) {
      CoflowSpec c;
      c.flows.push_back(FlowSpec{s, s + 1, stage_bytes[s]});
      a.coflows.push_back(c);
    }
    a.deps = {{}, {0}, {1}, {2}};
    sim.submit(a);
    // Jobs B, C, D: single-stage 600 B jobs contending with A's later mouse
    // stages, arriving as those stages are about to start (stage 1 runs
    // uncontended 0..10 s).
    sim.submit(one_flow_job(600.0, 1, 2, 9.0));
    sim.submit(one_flow_job(600.0, 2, 3, 10.5));
    sim.submit(one_flow_job(600.0, 3, 4, 12.0));
  };

  // TBS-based decentralized baseline (Stream).
  StreamScheduler::Config stream_config;
  stream_config.queues = 4;
  stream_config.first_threshold = 150.0;
  stream_config.multiplier = 4.0;
  stream_config.update_interval = 0.1;
  StreamScheduler stream(stream_config);
  Simulator sim_tbs(fabric_, stream);
  build_jobs(sim_tbs);
  const SimResults r_tbs = sim_tbs.run();

  GuritaScheduler gurita(small_scale_config());
  Simulator sim_stage(fabric_, gurita);
  build_jobs(sim_stage);
  const SimResults r_stage = sim_stage.run();

  // Job A's later mouse stages must not be punished for its early elephant:
  // under TBS (Stream) every 100 B stage parks behind a fresh 600 B job;
  // under Gurita the per-stage blocking effect keeps those stages at high
  // priority. A's JCT improves without wrecking the average.
  EXPECT_LT(r_stage.jobs[0].jct(), r_tbs.jobs[0].jct());
  EXPECT_LE(r_stage.average_jct(), r_tbs.average_jct() * 1.02);
}

// Figure 4: blocking example. Job A has three 2-unit coflows; jobs B, C, D
// have two 3-unit coflows each. Prioritizing the less-blocking B/C/D first
// lowers average JCT (paper: 3.50 vs 4.25 time units).
TEST_F(GuritaFixture, Figure4LeastBlockingFirstLowersAverageJct) {
  // Encode as single-stage jobs on a shared bottleneck: A is wide (3
  // flows), B/C/D narrow (2 flows), equal totals.
  auto submit_all = [&](Simulator& sim) {
    JobSpec a;
    CoflowSpec ca;
    for (int i = 0; i < 3; ++i) ca.flows.push_back(FlowSpec{0, 1, 200.0});
    a.coflows.push_back(ca);
    a.deps = {{}};
    sim.submit(a);
    for (int j = 0; j < 3; ++j) {
      JobSpec b;
      CoflowSpec cb;
      for (int i = 0; i < 2; ++i) cb.flows.push_back(FlowSpec{0, 1, 300.0});
      b.coflows.push_back(cb);
      b.deps = {{}};
      sim.submit(b);
    }
  };

  GuritaScheduler gurita(small_scale_config());
  Simulator sim_g(fabric_, gurita);
  submit_all(sim_g);
  const SimResults r_g = sim_g.run();

  PfsScheduler pfs;
  Simulator sim_p(fabric_, pfs);
  submit_all(sim_p);
  const SimResults r_p = sim_p.run();

  // LBEF should not be worse than fair sharing on the blocking example.
  EXPECT_LE(r_g.average_jct(), r_p.average_jct() * 1.05);
}

// ------------------------------------------------- self-demote regressions

TEST_F(GuritaFixture, SelfDemoteChecksOncePerCoflowUnderInterleavedOrder) {
  // The engine's active list is arrival order modulo swap-with-last
  // removals, so one coflow's flows need not stay contiguous. The old
  // previous-flow dedup re-checked a coflow for every contiguity break;
  // self-demotion must run exactly once per released coflow per assignment
  // regardless.
  //
  // Disjoint same-pod pairs: every flow always runs at the full 100 B/s,
  // so event times are fixed. Job A = one coflow {a1: 300 B, a2: 100 B,
  // a3: 300 B}, job B = {b1: 600 B}, all arriving at t=0.
  //   t=0  arrival assign, active [a1,a2,a3,b1]   -> 2 released coflows
  //   t=1  a2 finishes; swap-pop -> [a1,b1,a3]    -> 2 (A is split by b1;
  //        the old dedup would have checked A twice here, 3 total)
  //   t=3  a1,a3 finish, coflow A finishes        -> 1 (only B remains)
  //   t=6  b1 finishes, run ends (no assignment follows the last event)
  GuritaScheduler::Config config = small_scale_config();
  config.delta = 1000.0;  // suppress HR ticks: isolate per-assign checks
  GuritaScheduler gurita(config);
  Simulator sim(fabric_, gurita);
  JobSpec a;
  CoflowSpec ca;
  ca.flows = {FlowSpec{0, 1, 300.0}, FlowSpec{2, 3, 100.0},
              FlowSpec{4, 5, 300.0}};
  a.coflows.push_back(ca);
  a.deps = {{}};
  sim.submit(a);
  sim.submit(one_flow_job(600.0, 6, 7));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.jobs[0].jct(), 3.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].jct(), 6.0, 1e-9);
  EXPECT_EQ(gurita.stats().self_demote_checks, 5u);
  EXPECT_EQ(gurita.stats().hr_updates, 0u);
}

TEST_F(GuritaFixture, FreshCoflowWithZeroObservationIsNotDemoted) {
  // A released coflow that has not moved a byte (ℓ̈_max = 0, zero bytes)
  // must yield Ψ̈ = 0 at both the HR and the receiver-local check — never a
  // demotion, never a NaN from the ε skew ratio. Hold the flow at rate 0
  // for a full second of δ=0.1 ticks via a dead uplink, then restore; the
  // flow is small enough that Ψ̈ stays below the first threshold afterwards
  // too, so any demotion counted must have come from the zero window.
  const BigSwitch fabric(BigSwitch::Config{4, 100.0});
  GuritaScheduler gurita(small_scale_config());
  Simulator::Config sim_config;
  FaultEvent change;
  change.kind = FaultKind::kLinkCapacity;
  change.link = fabric.uplink(0);
  change.time = 0.0;
  change.factor = 0.0;
  sim_config.faults.events.push_back(change);
  change.time = 1.0;
  change.factor = 1.0;
  sim_config.faults.events.push_back(change);
  Simulator sim(fabric, gurita, sim_config);
  sim.submit(one_flow_job(50.0, 0, 1));
  const SimResults r = sim.run();
  EXPECT_NEAR(r.makespan, 1.5, 1e-9);
  EXPECT_GE(gurita.stats().hr_updates, 10u);  // ticks saw the zero window
  EXPECT_EQ(gurita.stats().demotions, 0u);
  EXPECT_EQ(gurita.stats().self_demotions, 0u);
}

}  // namespace
}  // namespace gurita
