// Unit tests for the tiered weighted max-min allocator: capacity respect,
// work conservation, fairness, weights and strict tier priority.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "flowsim/allocator.h"
#include "topology/ecmp.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

/// A tiny line topology: h0 -> s -> h1, both directed links capacity `cap`.
struct LineFixture {
  Topology topo;
  NodeId h0, sw, h1;
  LinkId up, down;

  explicit LineFixture(Rate cap = 100.0) {
    h0 = topo.add_node(NodeKind::kHost, 0, 0);
    sw = topo.add_node(NodeKind::kEdgeSwitch, 0, 0);
    h1 = topo.add_node(NodeKind::kHost, 0, 1);
    up = topo.add_link(h0, sw, cap);
    down = topo.add_link(sw, h1, cap);
  }
};

SimFlow make_flow(std::uint64_t id, std::vector<LinkId> path, Tier tier = 0,
                  double weight = 1.0) {
  SimFlow f;
  f.id = FlowId{id};
  f.size = 1000;
  f.remaining = 1000;
  f.start_time = 0;
  f.path = std::move(path);
  f.tier = tier;
  f.weight = weight;
  return f;
}

double sum_rate_on(const std::vector<SimFlow>& flows, LinkId link) {
  double sum = 0;
  for (const SimFlow& f : flows)
    for (LinkId l : f.path)
      if (l == link) sum += f.rate;
  return sum;
}

TEST(Waterfill, SingleFlowGetsFullCapacity) {
  LineFixture fx(100.0);
  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down})};
  std::vector<SimFlow*> ptrs = {&flows[0]};
  allocate_rates(fx.topo, ptrs);
  EXPECT_DOUBLE_EQ(flows[0].rate, 100.0);
}

TEST(Waterfill, EqualFlowsShareEqually) {
  LineFixture fx(100.0);
  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down}),
                                make_flow(1, {fx.up, fx.down}),
                                make_flow(2, {fx.up, fx.down}),
                                make_flow(3, {fx.up, fx.down})};
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  allocate_rates(fx.topo, ptrs);
  for (const auto& f : flows) EXPECT_DOUBLE_EQ(f.rate, 25.0);
}

TEST(Waterfill, WeightedSharesProportional) {
  LineFixture fx(100.0);
  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down}, 0, 1.0),
                                make_flow(1, {fx.up, fx.down}, 0, 3.0)};
  std::vector<SimFlow*> ptrs = {&flows[0], &flows[1]};
  allocate_rates(fx.topo, ptrs);
  EXPECT_DOUBLE_EQ(flows[0].rate, 25.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 75.0);
}

TEST(Waterfill, CapacityNeverExceeded) {
  const FatTree ft(FatTree::Config{4, 100.0});
  const EcmpRouter router(ft);
  std::vector<SimFlow> flows;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const int src = static_cast<int>(i % 16);
    const int dst = static_cast<int>((i * 5 + 3) % 16);
    if (src == dst) continue;
    SimFlow f = make_flow(i, router.route(FlowId{i}, src, dst), 0,
                          1.0 + static_cast<double>(i % 3));
    flows.push_back(std::move(f));
  }
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  allocate_rates(ft.topology(), ptrs);
  for (std::size_t l = 0; l < ft.topology().link_count(); ++l) {
    EXPECT_LE(sum_rate_on(flows, LinkId{l}),
              ft.topology().link(LinkId{l}).capacity * (1 + 1e-9));
  }
}

TEST(Waterfill, WorkConserving) {
  // Every flow's rate equals the min residual fair share along its path;
  // in particular a lone flow on an uncontended path gets full capacity and
  // a bottlenecked group saturates the bottleneck.
  LineFixture fx(100.0);
  // Second, independent path: h2 -> sw2 -> h3.
  const NodeId h2 = fx.topo.add_node(NodeKind::kHost, 0, 2);
  const NodeId sw2 = fx.topo.add_node(NodeKind::kEdgeSwitch, 0, 1);
  const NodeId h3 = fx.topo.add_node(NodeKind::kHost, 0, 3);
  const LinkId up2 = fx.topo.add_link(h2, sw2, 40.0);
  const LinkId down2 = fx.topo.add_link(sw2, h3, 40.0);

  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down}),
                                make_flow(1, {fx.up, fx.down}),
                                make_flow(2, {up2, down2})};
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  allocate_rates(fx.topo, ptrs);
  EXPECT_DOUBLE_EQ(flows[0].rate, 50.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 50.0);
  EXPECT_DOUBLE_EQ(flows[2].rate, 40.0);  // saturates its own bottleneck
}

TEST(Waterfill, MaxMinBeatsBottleneckSplitting) {
  // Classic max-min: flows A (link1 only), B (link1+link2), C (link2 only).
  // A and B share link1; B is also constrained by link2 shared with C.
  Topology topo;
  const NodeId n0 = topo.add_node(NodeKind::kHost, 0, 0);
  const NodeId n1 = topo.add_node(NodeKind::kHost, 0, 1);
  const NodeId n2 = topo.add_node(NodeKind::kHost, 0, 2);
  const LinkId l1 = topo.add_link(n0, n1, 100.0);
  const LinkId l2 = topo.add_link(n1, n2, 60.0);

  std::vector<SimFlow> flows = {make_flow(0, {l1}), make_flow(1, {l1, l2}),
                                make_flow(2, {l2})};
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  allocate_rates(topo, ptrs);
  // link2 is the bottleneck for B and C: each gets 30. A then fills link1.
  EXPECT_DOUBLE_EQ(flows[1].rate, 30.0);
  EXPECT_DOUBLE_EQ(flows[2].rate, 30.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 70.0);
}

TEST(Waterfill, StrictTierPriority) {
  LineFixture fx(100.0);
  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down}, /*tier=*/1),
                                make_flow(1, {fx.up, fx.down}, /*tier=*/0)};
  std::vector<SimFlow*> ptrs = {&flows[0], &flows[1]};
  allocate_rates(fx.topo, ptrs);
  EXPECT_DOUBLE_EQ(flows[1].rate, 100.0);  // high priority takes everything
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);    // low priority starves under SPQ
}

TEST(Waterfill, LowerTierGetsLeftovers) {
  LineFixture fx(100.0);
  // High-priority flow limited elsewhere: add a slow private hop.
  const NodeId hx = fx.topo.add_node(NodeKind::kHost, 0, 9);
  const LinkId slow = fx.topo.add_link(hx, fx.h0, 30.0);
  std::vector<SimFlow> flows = {
      make_flow(0, {slow, fx.up, fx.down}, /*tier=*/0),
      make_flow(1, {fx.up, fx.down}, /*tier=*/5)};
  std::vector<SimFlow*> ptrs = {&flows[0], &flows[1]};
  allocate_rates(fx.topo, ptrs);
  EXPECT_DOUBLE_EQ(flows[0].rate, 30.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 70.0);  // leftovers, not zero
}

TEST(Waterfill, ManyTiersServedInOrder) {
  LineFixture fx(90.0);
  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down}, 2),
                                make_flow(1, {fx.up, fx.down}, 0),
                                make_flow(2, {fx.up, fx.down}, 1)};
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  allocate_rates(fx.topo, ptrs);
  EXPECT_DOUBLE_EQ(flows[1].rate, 90.0);
  EXPECT_DOUBLE_EQ(flows[2].rate, 0.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);
}

TEST(Waterfill, ExtremeWeightRatiosStayFinite) {
  // Regression: starved WRR weights (1e-9) used to leave float residue on
  // links and livelock the progressive filling loop.
  LineFixture fx(100.0);
  std::vector<SimFlow> flows;
  for (std::uint64_t i = 0; i < 20; ++i)
    flows.push_back(
        make_flow(i, {fx.up, fx.down}, 0, i % 2 == 0 ? 1.0 : 1e-9));
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  ASSERT_NO_THROW(allocate_rates(fx.topo, ptrs));
  double total = 0;
  for (const auto& f : flows) {
    EXPECT_GE(f.rate, 0.0);
    total += f.rate;
  }
  EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(Waterfill, RejectsNonPositiveWeight) {
  LineFixture fx;
  std::vector<SimFlow> flows = {make_flow(0, {fx.up, fx.down}, 0, 0.0)};
  std::vector<SimFlow*> ptrs = {&flows[0]};
  EXPECT_THROW(allocate_rates(fx.topo, ptrs), std::logic_error);
}

TEST(Waterfill, RejectsEmptyPath) {
  LineFixture fx;
  std::vector<SimFlow> flows = {make_flow(0, {})};
  std::vector<SimFlow*> ptrs = {&flows[0]};
  EXPECT_THROW(allocate_rates(fx.topo, ptrs), std::logic_error);
}

TEST(Waterfill, EmptyGroupIsNoop) {
  LineFixture fx;
  std::vector<SimFlow*> ptrs;
  EXPECT_NO_THROW(allocate_rates(fx.topo, ptrs));
}

TEST(Waterfill, PureFunctionOfFlowSet) {
  // The allocation depends only on the flow *set* and the capacities, not
  // on the order flows are presented in: components are solved over a
  // (tier, id)-sorted copy, so any permutation yields bitwise equal rates.
  const FatTree ft(FatTree::Config{4, 100.0});
  const EcmpRouter router(ft, 3);
  auto make_population = [&] {
    std::vector<SimFlow> flows;
    for (std::uint64_t i = 0; i < 24; ++i) {
      const int src = static_cast<int>(i % 16);
      const int dst = static_cast<int>((i * 7 + 5) % 16);
      if (src == dst) continue;
      flows.push_back(make_flow(i, router.route(FlowId{i}, src, dst),
                                static_cast<Tier>(i % 3),
                                1.0 + static_cast<double>(i % 5)));
    }
    return flows;
  };
  std::vector<SimFlow> forward = make_population();
  std::vector<SimFlow> backward = make_population();
  std::vector<SimFlow*> fwd, bwd;
  for (auto& f : forward) fwd.push_back(&f);
  for (auto it = backward.rbegin(); it != backward.rend(); ++it)
    bwd.push_back(&*it);
  allocate_rates(ft.topology(), fwd);
  allocate_rates(ft.topology(), bwd);
  for (std::size_t i = 0; i < forward.size(); ++i)
    EXPECT_EQ(forward[i].rate, backward[i].rate) << "flow " << i;
}

TEST(Waterfill, EqualWeightsSolveAsUnitWeights) {
  // Weighted max-min with one shared weight is unweighted max-min, and the
  // kernel solves such a group at weight 1: rescaling the shared weight
  // must leave every rate bit and every consumed-residual bit unchanged.
  const FatTree ft(FatTree::Config{4, 100.0});
  const EcmpRouter router(ft, 11);
  std::vector<SimFlow> base;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const int src = static_cast<int>(i % 16);
    const int dst = static_cast<int>((i * 5 + 3) % 16);
    if (src == dst) continue;
    base.push_back(make_flow(i, router.route(FlowId{i}, src, dst)));
  }
  std::vector<Rate> caps(ft.topology().link_count());
  for (std::size_t l = 0; l < caps.size(); ++l)
    caps[l] = 100.0 * (1.0 + 0.37 * static_cast<double>(l % 7));
  auto solve = [&](double weight, std::vector<SimFlow>& flows,
                   std::vector<Rate>& residual) {
    flows = base;
    for (SimFlow& f : flows) f.weight = weight;
    std::vector<SimFlow*> ptrs;
    for (SimFlow& f : flows) ptrs.push_back(&f);
    residual = caps;
    waterfill(ft.topology(), ptrs, residual);
  };
  std::vector<SimFlow> unit_flows;
  std::vector<Rate> unit_residual;
  solve(1.0, unit_flows, unit_residual);
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const double weight = std::pow(10.0, rng.uniform(-9.0, 9.0));
    std::vector<SimFlow> flows;
    std::vector<Rate> residual;
    solve(weight, flows, residual);
    for (std::size_t i = 0; i < flows.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(flows[i].rate),
                std::bit_cast<std::uint64_t>(unit_flows[i].rate))
          << "weight " << weight << ", flow " << i;
    for (std::size_t l = 0; l < residual.size(); ++l)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(residual[l]),
                std::bit_cast<std::uint64_t>(unit_residual[l]))
          << "weight " << weight << ", link " << l;
  }
}

// Property sweep: random flows on a fat-tree; check capacity, non-negative
// rates, and that no unfrozen flow could be raised (max-min optimality
// witness: every flow has at least one saturated link on its path).
class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorProperty, SaturatedBottleneckPerFlow) {
  Rng rng(GetParam());
  const FatTree ft(FatTree::Config{4, 100.0});
  const EcmpRouter router(ft, GetParam());
  std::vector<SimFlow> flows;
  const int n = 3 + static_cast<int>(rng.uniform_int(0, 25));
  for (int i = 0; i < n; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 15));
    int dst = static_cast<int>(rng.uniform_int(0, 15));
    if (dst == src) dst = (dst + 1) % 16;
    flows.push_back(make_flow(static_cast<std::uint64_t>(i),
                              router.route(FlowId{static_cast<std::uint64_t>(i)}, src, dst),
                              static_cast<Tier>(rng.uniform_int(0, 2)),
                              rng.uniform(0.1, 5.0)));
  }
  std::vector<SimFlow*> ptrs;
  for (auto& f : flows) ptrs.push_back(&f);
  allocate_rates(ft.topology(), ptrs);

  // Capacity respected on every link.
  for (std::size_t l = 0; l < ft.topology().link_count(); ++l)
    EXPECT_LE(sum_rate_on(flows, LinkId{l}),
              ft.topology().link(LinkId{l}).capacity * (1 + 1e-9));

  // Each flow with a positive rate has a nearly-saturated link on its path
  // (otherwise its rate could grow: not max-min).
  for (const SimFlow& f : flows) {
    EXPECT_GE(f.rate, 0.0);
    bool saturated = false;
    for (LinkId l : f.path) {
      const double used = sum_rate_on(flows, l);
      if (used >= ft.topology().link(l).capacity * (1 - 1e-6))
        saturated = true;
    }
    EXPECT_TRUE(saturated) << "flow " << f.id << " could be raised";
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, AllocatorProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace gurita
