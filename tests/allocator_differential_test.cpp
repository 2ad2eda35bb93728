// Differential harness for the incremental water-filling allocator
// (flowsim/allocator.h) against the from-scratch oracle. Three layers:
//
//  1. Lockstep fuzz at the allocator API: random synthetic event streams
//     (arrivals, finishes, in-place priority rewrites, capacity changes)
//     drive a RateAllocator, and after *every* event the full rate vector
//     and the changed-list are compared bitwise against a from-scratch
//     allocate_rates() on a clone of the same flow set.
//
//  2. Hand-computed dirty-frontier timelines: an arrival that splits a
//     bottleneck, a finish that relaxes one, an external rate cap (the
//     straggler pattern) and WRR reweights — each with AllocStats
//     assertions proving the untouched or single-weight components were
//     *not* re-solved.
//
//  3. End-to-end fuzz at the engine API: 200 randomized traces (fabrics,
//     schedulers, ramps, capacity changes, fault plans) run through one
//     uninterrupted Simulator and through one paused at every distinct
//     recorded event time and restored into a fresh Simulator at each
//     pause, asserting bit-identical results including structured traces.
//     A restored simulator keeps no allocator state, so its first
//     allocation re-solves every component from scratch: each event time's
//     incremental allocation is compared with a full re-solve of the same
//     state.
//
// Failures print the trace seed for standalone reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/registry.h"
#include "fault/plan.h"
#include "flowsim/allocator.h"
#include "flowsim/simulator.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"
#include "topology/big_switch.h"
#include "topology/ecmp.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

// ------------------------------------------------ allocator-level fuzz ---

/// Mutable flow population with stable addresses plus the incremental
/// allocator under test. The oracle side is re-derived from scratch on
/// every comparison, so it cannot inherit state to compare against.
struct LockstepHarness {
  const FatTree fabric;
  const EcmpRouter router;
  std::vector<Rate> caps;
  std::deque<SimFlow> store;  // stable addresses across growth
  std::vector<SimFlow*> active;
  RateAllocator alloc;
  std::uint64_t next_id = 0;

  explicit LockstepHarness(std::uint64_t salt)
      : fabric(FatTree::Config{4, 100.0}), router(fabric, salt) {
    const Topology& topo = fabric.topology();
    caps.resize(topo.link_count());
    for (std::size_t l = 0; l < topo.link_count(); ++l)
      caps[l] = topo.link(LinkId{l}).capacity;
    alloc.reset(&topo, /*flow_capacity=*/64);
  }

  SimFlow* arrive(Rng& rng) {
    const int src = static_cast<int>(rng.uniform_int(0, 15));
    int dst = static_cast<int>(rng.uniform_int(0, 15));
    if (dst == src) dst = (dst + 1) % 16;
    SimFlow f;
    f.id = FlowId{next_id++};
    f.size = 1000;
    f.remaining = 1000;
    f.path = router.route(f.id, src, dst);
    f.tier = static_cast<Tier>(rng.uniform_int(0, 2));
    f.weight = rng.uniform(0.1, 5.0);
    store.push_back(std::move(f));
    SimFlow* p = &store.back();
    active.push_back(p);
    alloc.add_flow(p);
    return p;
  }

  void finish(std::size_t idx) {
    alloc.remove_flow(active[idx]);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  /// In-place scheduler rewrite: no allocator hook on purpose — the
  /// mirror scan must catch it.
  void reprioritize(Rng& rng, std::size_t idx) {
    SimFlow* f = active[idx];
    if (rng.next_double() < 0.5)
      f->tier = static_cast<Tier>((f->tier + 1) % 3);
    else
      f->weight = rng.uniform(0.1, 5.0);
  }

  void change_capacity(Rng& rng) {
    const LinkId l{rng.uniform_int(0, caps.size() - 1)};
    caps[l.value()] =
        fabric.topology().link(l).capacity * rng.uniform(0.05, 1.0);
    alloc.dirty_link(l);
  }

  /// Runs both allocators and asserts bitwise agreement on every rate and
  /// on the changed-list (content, order, old rates).
  void expect_lockstep() {
    // Clone before the incremental pass mutates stored rates: the clones
    // carry the previous allocation, which is exactly what the oracle's
    // changed-list is computed against.
    std::vector<SimFlow> clones;
    clones.reserve(active.size());
    for (const SimFlow* f : active) clones.push_back(*f);
    std::vector<SimFlow*> clone_ptrs;
    clone_ptrs.reserve(clones.size());
    for (SimFlow& f : clones) clone_ptrs.push_back(&f);

    std::vector<RateChange> want_changed;
    allocate_rates(fabric.topology(), caps, clone_ptrs, &want_changed);

    std::vector<RateChange> got_changed;
    alloc.allocate(caps, active, &got_changed, /*profiler=*/nullptr);

    ASSERT_EQ(active.size(), clones.size());
    for (std::size_t i = 0; i < active.size(); ++i)
      EXPECT_EQ(active[i]->rate, clones[i].rate)
          << "flow " << active[i]->id << " diverged from oracle";

    ASSERT_EQ(got_changed.size(), want_changed.size())
        << "changed-list length diverged";
    for (std::size_t i = 0; i < got_changed.size(); ++i) {
      EXPECT_EQ(got_changed[i].flow->id, want_changed[i].flow->id)
          << "changed-list entry " << i;
      EXPECT_EQ(got_changed[i].old_rate, want_changed[i].old_rate)
          << "changed-list entry " << i;
    }
  }
};

void run_lockstep_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with lockstep seed " + std::to_string(seed));
  Rng rng(seed);
  LockstepHarness h(rng.next_u64());
  const int events = 40 + static_cast<int>(rng.uniform_int(0, 60));
  for (int e = 0; e < events; ++e) {
    const double roll = rng.next_double();
    if (h.active.empty() || roll < 0.40) {
      h.arrive(rng);
    } else if (roll < 0.65) {
      h.finish(rng.uniform_int(0, h.active.size() - 1));
    } else if (roll < 0.80) {
      h.reprioritize(rng, rng.uniform_int(0, h.active.size() - 1));
    } else {
      h.change_capacity(rng);
    }
    h.expect_lockstep();
    if (::testing::Test::HasFailure()) return;
  }
}

// Every event — not just every quiescent point — must leave the
// incremental allocator bitwise in agreement with a from-scratch solve.
TEST(AllocatorDifferentialLockstep, FuzzEveryEventAgainstOracle) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    run_lockstep_trial(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "lockstep fuzz diverged at seed " << seed
             << "; rerun run_lockstep_trial(" << seed << ") to debug";
    }
  }
}

// The allocation must be a pure function of (active set, capacities):
// reaching the same state through different dirty-event orders — including
// a detour through an extra flow — yields bitwise identical rates.
TEST(AllocatorDifferentialLockstep, AllocationIndependentOfEventOrder) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  const EcmpRouter router(fabric, 7);
  std::vector<Rate> caps(fabric.topology().link_count());
  for (std::size_t l = 0; l < caps.size(); ++l)
    caps[l] = fabric.topology().link(LinkId{l}).capacity;

  auto make_population = [&] {
    std::vector<SimFlow> flows;
    for (std::uint64_t i = 0; i < 12; ++i) {
      SimFlow f;
      f.id = FlowId{i};
      f.size = 1000;
      f.remaining = 1000;
      f.path = router.route(f.id, static_cast<int>(i % 16),
                            static_cast<int>((i * 5 + 3) % 16));
      f.tier = static_cast<Tier>(i % 3);
      f.weight = 1.0 + static_cast<double>(i % 4);
      flows.push_back(std::move(f));
    }
    return flows;
  };

  // Order A: add 0..11 in id order, allocate once.
  std::vector<SimFlow> a = make_population();
  {
    RateAllocator alloc;
    alloc.reset(&fabric.topology(), a.size());
    std::vector<SimFlow*> active;
    for (SimFlow& f : a) active.push_back(&f);
    for (SimFlow* f : active) alloc.add_flow(f);
    alloc.allocate(caps, active, nullptr, nullptr);
  }

  // Order B: add in reverse, allocate after every arrival, then add and
  // remove a 13th flow that shares links with the others.
  std::vector<SimFlow> b = make_population();
  {
    RateAllocator alloc;
    alloc.reset(&fabric.topology(), 16);
    std::vector<SimFlow*> active;
    for (auto it = b.rbegin(); it != b.rend(); ++it) {
      active.push_back(&*it);
      alloc.add_flow(&*it);
      alloc.allocate(caps, active, nullptr, nullptr);
    }
    SimFlow extra;
    extra.id = FlowId{99};
    extra.size = 1000;
    extra.remaining = 1000;
    extra.path = router.route(extra.id, 0, 8);
    active.push_back(&extra);
    alloc.add_flow(&extra);
    alloc.allocate(caps, active, nullptr, nullptr);
    alloc.remove_flow(&extra);
    active.pop_back();
    alloc.allocate(caps, active, nullptr, nullptr);
  }

  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].rate, b[i].rate) << "flow " << i;
}

// Capacity and max-min optimality hold at every step of an incremental
// run, not just after a from-scratch solve (allocator_test.cpp covers the
// oracle; this covers the frontier path).
TEST(AllocatorDifferentialLockstep, IncrementalStepsRespectCapacityAndMaxMin) {
  Rng rng(11);
  LockstepHarness h(rng.next_u64());
  for (int e = 0; e < 60; ++e) {
    if (h.active.empty() || rng.next_double() < 0.5)
      h.arrive(rng);
    else
      h.finish(rng.uniform_int(0, h.active.size() - 1));
    h.alloc.allocate(h.caps, h.active, nullptr, nullptr);

    std::vector<double> used(h.caps.size(), 0.0);
    for (const SimFlow* f : h.active)
      for (LinkId l : f->path) used[l.value()] += f->rate;
    for (std::size_t l = 0; l < h.caps.size(); ++l)
      EXPECT_LE(used[l], h.caps[l] * (1 + 1e-9)) << "link " << l;
    for (const SimFlow* f : h.active) {
      EXPECT_GE(f->rate, 0.0);
      bool saturated = false;
      for (LinkId l : f->path)
        if (used[l.value()] >= h.caps[l.value()] * (1 - 1e-6))
          saturated = true;
      EXPECT_TRUE(saturated) << "flow " << f->id << " could be raised";
    }
  }
}

// -------------------------------------------- hand-computed timelines ---

/// Two disjoint host pairs through separate edge switches; pair 1 links
/// carry 90, pair 2 links carry 100. Component boundaries are exact, so
/// AllocStats counts are hand-checkable.
struct TwoPairFixture {
  Topology topo;
  LinkId up1, down1, up2, down2;
  std::vector<Rate> caps;

  TwoPairFixture() {
    const NodeId h0 = topo.add_node(NodeKind::kHost, 0, 0);
    const NodeId s1 = topo.add_node(NodeKind::kEdgeSwitch, 0, 0);
    const NodeId h1 = topo.add_node(NodeKind::kHost, 0, 1);
    const NodeId h2 = topo.add_node(NodeKind::kHost, 0, 2);
    const NodeId s2 = topo.add_node(NodeKind::kEdgeSwitch, 0, 1);
    const NodeId h3 = topo.add_node(NodeKind::kHost, 0, 3);
    up1 = topo.add_link(h0, s1, 90.0);
    down1 = topo.add_link(s1, h1, 90.0);
    up2 = topo.add_link(h2, s2, 100.0);
    down2 = topo.add_link(s2, h3, 100.0);
    caps = {90.0, 90.0, 100.0, 100.0};
  }

  static SimFlow flow(std::uint64_t id, std::vector<LinkId> path) {
    SimFlow f;
    f.id = FlowId{id};
    f.size = 1000;
    f.remaining = 1000;
    f.path = std::move(path);
    return f;
  }
};

TEST(AllocatorDifferentialTimeline, ArrivalSplitsOnlyItsBottleneck) {
  TwoPairFixture fx;
  SimFlow a = fx.flow(0, {fx.up1, fx.down1});
  SimFlow d = fx.flow(1, {fx.up2, fx.down2});
  RateAllocator alloc;
  alloc.reset(&fx.topo, 8);

  std::vector<SimFlow*> active = {&a, &d};
  alloc.add_flow(&a);
  alloc.add_flow(&d);
  alloc.allocate(fx.caps, active, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.rate, 90.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);

  // B arrives on pair 1: only {A, B} re-solve; D's component stays cached.
  const AllocStats before = alloc.stats();
  SimFlow b = fx.flow(2, {fx.up1, fx.down1});
  active.push_back(&b);
  alloc.add_flow(&b);
  std::vector<RateChange> changed;
  alloc.allocate(fx.caps, active, &changed, nullptr);
  const AllocStats after = alloc.stats();

  EXPECT_DOUBLE_EQ(a.rate, 45.0);
  EXPECT_DOUBLE_EQ(b.rate, 45.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u)
      << "arrival must not re-solve the untouched component";
  EXPECT_EQ(after.components_solved - before.components_solved, 1u);
  EXPECT_EQ(after.dirty_links - before.dirty_links, 2u);
  // A moved 90 -> 45 and B 0 -> 45; D must not appear.
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0].flow->id, a.id);
  EXPECT_EQ(changed[0].old_rate, 90.0);
  EXPECT_EQ(changed[1].flow->id, b.id);
  EXPECT_EQ(changed[1].old_rate, 0.0);
}

TEST(AllocatorDifferentialTimeline, FinishRelaxesOnlyItsBottleneck) {
  TwoPairFixture fx;
  SimFlow a = fx.flow(0, {fx.up1, fx.down1});
  SimFlow b = fx.flow(1, {fx.up1, fx.down1});
  SimFlow c = fx.flow(2, {fx.up1, fx.down1});
  SimFlow d = fx.flow(3, {fx.up2, fx.down2});
  RateAllocator alloc;
  alloc.reset(&fx.topo, 8);

  std::vector<SimFlow*> active = {&a, &b, &c, &d};
  for (SimFlow* f : active) alloc.add_flow(f);
  alloc.allocate(fx.caps, active, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.rate, 30.0);
  EXPECT_DOUBLE_EQ(b.rate, 30.0);
  EXPECT_DOUBLE_EQ(c.rate, 30.0);

  // B finishes: A and C absorb the slack; D's component is untouched.
  const AllocStats before = alloc.stats();
  alloc.remove_flow(&b);
  active.erase(active.begin() + 1);
  std::vector<RateChange> changed;
  alloc.allocate(fx.caps, active, &changed, nullptr);
  const AllocStats after = alloc.stats();

  EXPECT_DOUBLE_EQ(a.rate, 45.0);
  EXPECT_DOUBLE_EQ(c.rate, 45.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u);
  EXPECT_EQ(after.components_solved - before.components_solved, 1u);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0].flow->id, a.id);
  EXPECT_EQ(changed[1].flow->id, c.id);
}

TEST(AllocatorDifferentialTimeline, ExternalRateCapRedirtiesItsLinks) {
  // The straggler pattern: the engine caps a stored rate below the pure
  // allocation and touch_flow()s the victim before the next allocation, so
  // the allocator re-reports it exactly as the oracle would (the oracle
  // recomputes from scratch and always sees the capped value as stale).
  TwoPairFixture fx;
  SimFlow a = fx.flow(0, {fx.up1, fx.down1});
  SimFlow b = fx.flow(1, {fx.up1, fx.down1});
  SimFlow d = fx.flow(2, {fx.up2, fx.down2});
  RateAllocator alloc;
  alloc.reset(&fx.topo, 8);

  std::vector<SimFlow*> active = {&a, &b, &d};
  for (SimFlow* f : active) alloc.add_flow(f);
  alloc.allocate(fx.caps, active, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(a.rate, 45.0);

  a.rate = 10.0;  // external cap (straggler window / TCP ramp)
  alloc.touch_flow(&a);
  const AllocStats before = alloc.stats();
  std::vector<RateChange> changed;
  alloc.allocate(fx.caps, active, &changed, nullptr);
  const AllocStats after = alloc.stats();

  EXPECT_DOUBLE_EQ(a.rate, 45.0) << "cap lifted: pure allocation restored";
  EXPECT_DOUBLE_EQ(b.rate, 45.0);
  EXPECT_DOUBLE_EQ(d.rate, 100.0);
  // Only the capped component re-solves, and only A is reported (B's pure
  // rate is unchanged bitwise).
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].flow->id, a.id);
  EXPECT_EQ(changed[0].old_rate, 10.0);
}

/// Expects every flow of `active` to carry bitwise the rate a from-scratch
/// allocate_rates() gives a clone of the same flow set.
void expect_resolve_bits(const Topology& topo, const std::vector<Rate>& caps,
                         const std::vector<SimFlow*>& active,
                         const char* step) {
  std::vector<SimFlow> clones;
  for (const SimFlow* f : active) clones.push_back(*f);
  std::vector<SimFlow*> ptrs;
  for (SimFlow& f : clones) ptrs.push_back(&f);
  allocate_rates(topo, caps, ptrs);
  for (std::size_t i = 0; i < active.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(active[i]->rate),
              std::bit_cast<std::uint64_t>(clones[i].rate))
        << step << ": flow " << active[i]->id << " cached "
        << active[i]->rate << " vs re-solved " << clones[i].rate;
}

TEST(AllocatorDifferentialTimeline, WeightOnlyChangeSolvesOnlyMixedComponents) {
  // Three disjoint host pairs at 90, one component each, in the WRR
  // pattern (weight w_q / n_q for a flow of queue q): A and B hold three
  // flows of one queue each, C one flow of each of two queues.
  Topology topo;
  std::vector<std::vector<LinkId>> pair_path;
  for (int p = 0; p < 3; ++p) {
    const NodeId src = topo.add_node(NodeKind::kHost, 0, 2 * p);
    const NodeId sw = topo.add_node(NodeKind::kEdgeSwitch, 0, p);
    const NodeId dst = topo.add_node(NodeKind::kHost, 0, 2 * p + 1);
    pair_path.push_back({topo.add_link(src, sw, 90.0),
                         topo.add_link(sw, dst, 90.0)});
  }
  const std::vector<Rate> caps(topo.link_count(), 90.0);
  std::vector<SimFlow> flows;
  for (std::uint64_t id = 0; id < 8; ++id) {
    const int pair = id < 3 ? 0 : id < 6 ? 1 : 2;
    flows.push_back(TwoPairFixture::flow(id, pair_path[pair]));
  }
  SimFlow* const c0 = &flows[6];
  SimFlow* const c1 = &flows[7];
  const auto set_weights = [&](double a, double b, double c0_w, double c1_w) {
    for (int i = 0; i < 3; ++i) flows[i].weight = a;
    for (int i = 3; i < 6; ++i) flows[i].weight = b;
    c0->weight = c0_w;
    c1->weight = c1_w;
  };
  std::vector<SimFlow*> active;
  for (SimFlow& f : flows) active.push_back(&f);
  RateAllocator alloc;
  alloc.reset(&topo, 8);
  for (SimFlow* f : active) alloc.add_flow(f);
  set_weights(0.1, 0.3, 0.3, 0.1);
  alloc.allocate(caps, active, nullptr, nullptr);
  // Single-weight components solve at unit weight: exactly 90 / 3, where
  // weight 0.1 would give 0.1 * (90 / 0.3...) = 29.999999999999996.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(flows[i].rate, 30.0) << "flow " << i;
  expect_resolve_bits(topo, caps, active, "first allocation");

  // Every weight rescales (the queue demands moved): A and B keep one
  // weight each and are left alone; only C, still mixed, is solved.
  AllocStats before = alloc.stats();
  set_weights(1e-3, 0.37, 0.5, 0.2);
  std::vector<RateChange> changed;
  alloc.allocate(caps, active, &changed, nullptr);
  AllocStats after = alloc.stats();
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u);
  EXPECT_EQ(after.components_solved - before.components_solved, 1u);
  EXPECT_EQ(after.components_skipped - before.components_skipped, 2u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(flows[i].rate, 30.0) << "flow " << i;
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0].flow, c0);
  EXPECT_EQ(changed[1].flow, c1);
  EXPECT_EQ(after.flows_changed - before.flows_changed, 2u);
  expect_resolve_bits(topo, caps, active, "rescale");

  // c0 is demoted into c1's queue: C now holds one weight, but its cached
  // rates were solved with two, so it must be solved again; A and B are
  // rescaled once more and still left alone.
  before = alloc.stats();
  set_weights(0.25, 1e6, 0.2, 0.2);
  alloc.allocate(caps, active, &changed, nullptr);
  after = alloc.stats();
  EXPECT_EQ(after.flows_solved - before.flows_solved, 2u);
  EXPECT_EQ(after.components_solved - before.components_solved, 1u);
  EXPECT_EQ(after.components_skipped - before.components_skipped, 2u);
  EXPECT_EQ(c0->rate, 45.0);
  EXPECT_EQ(c1->rate, 45.0);
  ASSERT_EQ(changed.size(), 2u);
  expect_resolve_bits(topo, caps, active, "demotion");
}

// ---------------------------------------------------- engine-level fuzz ---

/// One engine-level trial: same shape as differential_engine_test.cpp's,
/// plus fault plans (crashes, flaps, stragglers, state loss) on ~30% of
/// trials — the fault paths dirty links and cap rates behind the
/// allocator's back, which is exactly what the frontier must survive.
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
    ft.k = 4;
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

  if (rng.next_double() < 0.3)
    trial.sim_config.tcp_ramp_time = rng.uniform(1.0, 10.0) * kMillisecond;

  std::vector<FaultEvent> capacity_changes;
  if (rng.next_double() < 0.4) {
    const std::size_t links = trial.fabric->topology().link_count();
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      FaultEvent change;
      change.kind = FaultKind::kLinkCapacity;
      change.time = rng.uniform(0.0, 0.5);
      change.link = LinkId{rng.uniform_int(0, links - 1)};
      change.factor = rng.uniform(0.2, 1.0);
      capacity_changes.push_back(change);
    }
  }

  // Fault plans on ~30% of trials: crashes abort flows mid-transfer, flaps
  // zero capacities, stragglers cap stored rates below the pure allocation
  // and state loss rewrites priorities in place.
  if (rng.next_double() < 0.3) {
    FaultPlanConfig plan;
    plan.host_crash_rate = rng.uniform(0.0, 4.0);
    plan.link_flap_rate = rng.uniform(0.0, 3.0);
    plan.straggler_rate = rng.uniform(0.0, 4.0);
    plan.state_loss_rate = rng.uniform(0.0, 2.0);
    plan.horizon = 0.5;
    plan.mean_downtime = 0.05;
    trial.sim_config.faults = generate_fault_plan(
        plan, rng.next_u64(), trial.fabric->num_hosts(),
        trial.fabric->topology().link_count());
  }
  // Capacity changes join the plan after it is drawn, so the draw order
  // (and every trial) stays the same with or without them.
  trial.sim_config.faults.events.insert(trial.sim_config.faults.events.end(),
                                        capacity_changes.begin(),
                                        capacity_changes.end());

  trial.sim_config.collect_link_stats = rng.next_double() < 0.25;
  return trial;
}

void expect_identical_runs(const SimResults& whole,
                           const SimResults& restored,
                           const SimState& whole_state,
                           const SimState& restored_state) {
  EXPECT_EQ(whole.events, restored.events);
  EXPECT_EQ(whole.rate_recomputations, restored.rate_recomputations);
  EXPECT_EQ(whole.makespan, restored.makespan);

  ASSERT_EQ(whole.jobs.size(), restored.jobs.size());
  for (std::size_t i = 0; i < whole.jobs.size(); ++i) {
    EXPECT_EQ(whole.jobs[i].id, restored.jobs[i].id) << "job " << i;
    EXPECT_EQ(whole.jobs[i].arrival, restored.jobs[i].arrival)
        << "job " << i;
    EXPECT_EQ(whole.jobs[i].finish, restored.jobs[i].finish) << "job " << i;
    EXPECT_EQ(whole.jobs[i].total_bytes, restored.jobs[i].total_bytes)
        << "job " << i;
  }

  ASSERT_EQ(whole.coflows.size(), restored.coflows.size());
  for (std::size_t i = 0; i < whole.coflows.size(); ++i) {
    EXPECT_EQ(whole.coflows[i].release, restored.coflows[i].release)
        << "coflow " << i;
    EXPECT_EQ(whole.coflows[i].finish, restored.coflows[i].finish)
        << "coflow " << i;
    EXPECT_EQ(whole.coflows[i].total_bytes, restored.coflows[i].total_bytes)
        << "coflow " << i;
  }

  ASSERT_EQ(whole_state.flow_count(), restored_state.flow_count());
  for (std::size_t i = 0; i < whole_state.flow_count(); ++i) {
    const SimFlow& a = whole_state.flow(FlowId{i});
    const SimFlow& b = restored_state.flow(FlowId{i});
    EXPECT_EQ(a.start_time, b.start_time) << "flow " << i;
    EXPECT_EQ(a.finish_time, b.finish_time) << "flow " << i;
    EXPECT_EQ(a.size, b.size) << "flow " << i;
  }

  ASSERT_EQ(whole.link_bytes.size(), restored.link_bytes.size());
  for (std::size_t i = 0; i < whole.link_bytes.size(); ++i)
    EXPECT_EQ(whole.link_bytes[i], restored.link_bytes[i]) << "link " << i;
}

/// One simulator with its own scheduler and recorder, built from the
/// trial's static inputs exactly as a restarted process would build it.
struct Instance {
  obs::TraceRecorder recorder{obs::TraceRecorder::kDefaultKinds};
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Simulator> sim;

  explicit Instance(const Trial& trial)
      : scheduler(make_scheduler(trial.scheduler)) {
    Simulator::Config config = trial.sim_config;
    config.trace = &recorder;
    sim = std::make_unique<Simulator>(*trial.fabric, *scheduler, config);
    for (const JobSpec& job : trial.jobs) sim->submit(job);
  }
};

/// Runs `seed`'s trial uninterrupted, then again paused by run_to at every
/// distinct time its trace recorded and restored into a fresh simulator at
/// every pause. Returns the number of restores.
std::size_t run_engine_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with trace seed " + std::to_string(seed));
  const Trial trial = draw_trial(seed);

  Instance whole(trial);
  const SimResults whole_results = whole.sim->run();
  const std::vector<obs::TraceRecord> whole_trace = whole.recorder.take();

  std::vector<Time> times;
  times.reserve(whole_trace.size());
  for (const obs::TraceRecord& r : whole_trace) times.push_back(r.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  // The restored side pauses before each event time, so the events at that
  // time run on a simulator whose allocator holds nothing from before the
  // pause; the structured traces must still match record for record
  // (operator== is field-exact).
  auto restored = std::make_unique<Instance>(trial);
  std::size_t restores = 0;
  for (const Time t : times) {
    if (!restored->sim->run_to(t)) break;
    snapshot::Writer w;
    restored->sim->checkpoint(w);
    const std::string bytes = w.take();
    restored = std::make_unique<Instance>(trial);
    snapshot::Reader r(bytes);
    restored->sim->restore(r);
    ++restores;
  }
  const SimResults restored_results = restored->sim->finish();
  expect_identical_runs(whole_results, restored_results, whole.sim->state(),
                        restored->sim->state());
  EXPECT_TRUE(whole_trace == restored->recorder.take())
      << "structured traces diverged";
  return restores;
}

// The main gate: 200 randomized traces, each compared with itself restored
// (and so re-solved from scratch) at every event time.
TEST(AllocatorDifferential, FuzzIncrementalEngineAgainstRestoredReSolve) {
  std::size_t restores = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    restores += run_engine_trial(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "allocator differential fuzz diverged at trace seed " << seed
             << "; rerun run_engine_trial(" << seed << ") to debug";
    }
  }
  // The pauses were really taken (24,426 of them over the 200 traces).
  EXPECT_GT(restores, 20000u);
}

}  // namespace
}  // namespace gurita
