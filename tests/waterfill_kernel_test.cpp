// Bitwise differential test of the water-filling kernel.
//
// The production kernel (flowsim/allocator.h: solve_component, waterfill)
// is compared against the link-indexed reference kernel kept verbatim in
// tests/reference_waterfill.h, which shares no code with src/. Every
// instance is solved by both on separate copies of the same flows, and
// every rate — and, for waterfill(), every consumed residual — must agree
// bit for bit. The instances cover the shapes where floating-point order
// matters: fat-trees (k = 4, 8) and the big switch, 1–6 tiers, weights
// from 1e-6 to 1e6, zero-capacity links (+0.0 and -0.0), residuals at or
// below the 1e-9 "tiny" cut-off, and bottleneck shares engineered to lie
// within and just outside the kernel's 1e-12 relative tie tolerance.
//
// The kernel solves a tier group whose flows all carry one weight at weight
// 1 (DESIGN.md §13). The reference predates that rule, so the test restates
// it on the reference's input copy, in its own code: such a group is fed to
// the reference with every weight set to 1. Groups of equal non-unit
// weights, and groups one ulp away from equal, pin both sides of the rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flowsim/allocator.h"
#include "reference_waterfill.h"
#include "topology/big_switch.h"
#include "topology/fattree.h"

namespace gurita {
namespace {

enum class CapMode { kNominal, kZeros, kTiny, kNearTie, kMixed };

struct Instance {
  std::vector<SimFlow> flows;  ///< sorted by (tier, id)
  std::vector<Rate> caps;      ///< per link
  std::string label;
};

/// The three fabrics every instance draws from, built once.
struct Fabrics {
  FatTree k4{FatTree::Config{4, gbps(10.0)}};
  FatTree k8{FatTree::Config{8, gbps(10.0)}};
  BigSwitch big{BigSwitch::Config{16, gbps(10.0)}};

  const Fabric& pick(std::uint64_t which) const {
    switch (which % 3) {
      case 0: return k4;
      case 1: return k8;
      default: return big;
    }
  }
};

const Fabrics& fabrics() {
  static const auto* f = new Fabrics();
  return *f;
}

double log_uniform(Rng& rng, double lo_exp, double hi_exp) {
  return std::pow(10.0, rng.uniform(lo_exp, hi_exp));
}

/// One seeded instance: random flows among a random host subset (small
/// subsets make dense contention), tiers, weights and capacities per mode.
Instance make_instance(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const Fabric& fab = fabrics().pick(seed);
  const Topology& topo = fab.topology();
  const auto mode = static_cast<CapMode>(rng.uniform_int(0, 4));
  const int tiers = static_cast<int>(rng.uniform_int(1, 6));
  const int hosts = fab.num_hosts();
  const int subset = static_cast<int>(
      rng.uniform_int(2, static_cast<std::uint64_t>(std::min(hosts, 24))));
  const int host_base = static_cast<int>(
      rng.uniform_int(0, static_cast<std::uint64_t>(hosts - subset)));
  const std::size_t nflows = rng.uniform_int(1, 96);
  // Weight regimes: all equal (the PFS case, most ties), a few small
  // integers (WRR queue weights), or log-uniform over twelve decades.
  const int weight_mode = static_cast<int>(rng.uniform_int(0, 2));

  Instance inst;
  inst.label = "seed " + std::to_string(seed);
  inst.flows.resize(nflows);
  for (std::size_t i = 0; i < nflows; ++i) {
    SimFlow& f = inst.flows[i];
    f.id = FlowId{i * 3 + rng.uniform_int(0, 2)};
    f.size = f.remaining = 1e6;
    f.start_time = 0;
    const int src = host_base + static_cast<int>(rng.uniform_int(
                                    0, static_cast<std::uint64_t>(subset - 1)));
    int dst = host_base + static_cast<int>(rng.uniform_int(
                              0, static_cast<std::uint64_t>(subset - 1)));
    if (dst == src) dst = host_base + (dst - host_base + 1) % subset;
    f.path = fab.route(f.id, src, dst);
    f.tier = static_cast<Tier>(rng.uniform_int(0, tiers - 1));
    switch (weight_mode) {
      case 0: f.weight = 1.0; break;
      case 1: f.weight = static_cast<double>(rng.uniform_int(1, 4)); break;
      default: f.weight = log_uniform(rng, -6.0, 6.0); break;
    }
    f.rate = -1.0;  // overwritten by the kernel
  }
  std::sort(inst.flows.begin(), inst.flows.end(),
            [](const SimFlow& a, const SimFlow& b) {
              if (a.tier != b.tier) return a.tier < b.tier;
              return a.id < b.id;
            });

  inst.caps.resize(topo.link_count());
  for (std::size_t l = 0; l < inst.caps.size(); ++l) {
    const Rate nominal = topo.link(LinkId{l}).capacity;
    Rate c = nominal;
    const bool mixed = mode == CapMode::kMixed;
    // Failed links; half are -0.0, which passes the allocator's c >= 0
    // check and makes the sign of a zero bottleneck share observable.
    if ((mode == CapMode::kZeros || mixed) && rng.next_double() < 0.1)
      c = rng.next_double() < 0.5 ? 0.0 : -0.0;
    if ((mode == CapMode::kTiny || mixed) && rng.next_double() < 0.15) {
      // At, just below and well below the 1e-9 cut-off.
      const double pick = rng.next_double();
      c = pick < 0.3 ? 1e-9 : pick < 0.6 ? 1e-9 * (1 - 1e-15) : 1e-12;
    }
    if (mode == CapMode::kNearTie || (mixed && rng.next_double() < 0.5)) {
      // Relative offsets in steps of 1e-13, so equal-weight links with the
      // same flow count land within, at and beyond the 1e-12 tolerance.
      const double step = static_cast<double>(rng.uniform_int(0, 30)) - 15.0;
      c = nominal * (1 + step * 1e-13);
    }
    inst.caps[l] = c;
  }
  return inst;
}

std::vector<SimFlow*> pointers(std::vector<SimFlow>& flows) {
  std::vector<SimFlow*> out;
  out.reserve(flows.size());
  for (SimFlow& f : flows) out.push_back(&f);
  return out;
}

/// Sets every weight of `flows[begin, end)` to 1 when they are all
/// bitwise equal.
void unit_weight_if_equal(std::vector<SimFlow>& flows, std::size_t begin,
                          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (std::bit_cast<std::uint64_t>(flows[i].weight) !=
        std::bit_cast<std::uint64_t>(flows[begin].weight))
      return;
  }
  for (std::size_t i = begin; i < end; ++i) flows[i].weight = 1.0;
}

/// The reference's input for a (tier, id)-sorted component: each tier
/// group of equal weights at weight 1.
std::vector<SimFlow> reference_input(const std::vector<SimFlow>& flows) {
  std::vector<SimFlow> out = flows;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= out.size(); ++i) {
    if (i == out.size() || out[i].tier != out[begin].tier) {
      unit_weight_if_equal(out, begin, i);
      begin = i;
    }
  }
  return out;
}

/// Solves `inst` with both kernels on separate copies and compares rate
/// bits; `scratch` is the production scratch, reused across instances as
/// the allocator reuses it. Returns the number of tier groups solved.
std::size_t expect_same_bits(const Topology& topo, const Instance& inst,
                             WaterfillScratch& scratch) {
  std::vector<SimFlow> ref_flows = reference_input(inst.flows);
  std::vector<SimFlow> new_flows = inst.flows;
  std::vector<SimFlow*> ref_ptrs = pointers(ref_flows);
  std::vector<SimFlow*> new_ptrs = pointers(new_flows);
  reference::RefScratch ref_scratch;
  reference::ref_solve_component(topo, ref_ptrs.data(), ref_ptrs.size(),
                                 inst.caps, ref_scratch);
  solve_component(topo, new_ptrs.data(), new_ptrs.size(), inst.caps, scratch);
  std::size_t groups = 0;
  for (std::size_t i = 0; i < ref_flows.size(); ++i) {
    if (i == 0 || ref_flows[i].tier != ref_flows[i - 1].tier) ++groups;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref_flows[i].rate),
              std::bit_cast<std::uint64_t>(new_flows[i].rate))
        << inst.label << ", flow " << i << ": reference "
        << ref_flows[i].rate << " vs dense " << new_flows[i].rate;
  }
  return groups;
}

TEST(WaterfillKernel, SolveComponentMatchesReferenceBits) {
  WaterfillScratch scratch;
  std::size_t groups = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    const Instance inst = make_instance(seed);
    groups += expect_same_bits(fabrics().pick(seed).topology(), inst,
                               scratch);
    if (HasFailure()) break;  // one instance's diff is enough to read
  }
  // One shared non-unit weight per instance (solved at unit weight), and
  // the same with one flow per tier group a ulp above or below it (solved
  // weighted).
  const double shared[] = {1e-6, 0.37, 1e6};
  for (std::uint64_t seed = 0; seed < 600 && !HasFailure(); ++seed) {
    Instance inst = make_instance(seed);
    const double w = shared[seed % 3];
    const bool off_by_ulp = (seed / 3) % 2 == 1;
    inst.label += ", weight " + std::to_string(w) +
                  (off_by_ulp ? " with one ulp off per tier" : "");
    for (std::size_t i = 0; i < inst.flows.size(); ++i) {
      SimFlow& f = inst.flows[i];
      f.weight = w;
      const bool group_end =
          i + 1 == inst.flows.size() || inst.flows[i + 1].tier != f.tier;
      if (off_by_ulp && group_end)
        f.weight = std::nextafter(w, seed % 2 == 0 ? 0.0 : 2 * w);
    }
    groups += expect_same_bits(fabrics().pick(seed).topology(), inst,
                               scratch);
  }
  EXPECT_GT(groups, 6000u);
}

TEST(WaterfillKernel, LargeMultiTierComponentsMatchReferenceBits) {
  // Paper-sized components: hundreds of flows over the whole 8-pod
  // fabric in four tiers; with equal weights many links tie or nearly
  // tie for the bottleneck.
  const FatTree& ft = fabrics().k8;
  WaterfillScratch scratch;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed + 1000);
    Instance inst;
    inst.label = "large seed " + std::to_string(seed);
    inst.flows.resize(512);
    for (std::size_t i = 0; i < inst.flows.size(); ++i) {
      SimFlow& f = inst.flows[i];
      f.id = FlowId{i};
      f.size = f.remaining = 1e6;
      const int src = static_cast<int>(rng.uniform_int(0, 127));
      const int dst =
          (src + 1 + static_cast<int>(rng.uniform_int(0, 126))) % 128;
      f.path = ft.route(f.id, src, dst);
      f.tier = static_cast<Tier>(i % 4);
      f.weight = seed % 2 == 0 ? 1.0 : log_uniform(rng, -3.0, 3.0);
    }
    std::sort(inst.flows.begin(), inst.flows.end(),
              [](const SimFlow& a, const SimFlow& b) {
                if (a.tier != b.tier) return a.tier < b.tier;
                return a.id < b.id;
              });
    inst.caps.assign(ft.topology().link_count(), gbps(10.0));
    expect_same_bits(ft.topology(), inst, scratch);
  }
}

TEST(WaterfillKernel, StampWrapKeepsBits) {
  // The link -> slot map is invalidated by bumping a 32-bit stamp. An
  // instance solved under stamp 1 leaves stamp 1 on all its links; when
  // the stamp wraps round to 1 again, the map must have been cleared
  // rather than revive those stale slots for the same links.
  for (std::uint64_t seed = 0; seed < 24; seed += 3) {  // the k = 4 tree
    const Instance inst = make_instance(seed);
    const Topology& topo = fabrics().pick(seed).topology();
    WaterfillScratch scratch;
    expect_same_bits(topo, inst, scratch);
    ASSERT_EQ(scratch.stamp, 1u);
    scratch.stamp = std::numeric_limits<std::uint32_t>::max() - 1;
    solve_component(topo, nullptr, 0, inst.caps, scratch);  // stamp max
    expect_same_bits(topo, inst, scratch);
    EXPECT_EQ(scratch.stamp, 1u);
  }
}

TEST(WaterfillKernel, WaterfillConsumesReferenceResiduals) {
  // waterfill() treats its input as one group whatever the tiers and
  // consumes a caller-owned, link-indexed residual vector in place.
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const Instance inst = make_instance(seed + 5000);
    const Topology& topo = fabrics().pick(seed + 5000).topology();
    // waterfill() solves its input as one group whatever the tiers.
    std::vector<SimFlow> ref_flows = inst.flows;
    unit_weight_if_equal(ref_flows, 0, ref_flows.size());
    std::vector<SimFlow> new_flows = inst.flows;
    std::vector<SimFlow*> ref_group = pointers(ref_flows);
    std::vector<SimFlow*> new_group = pointers(new_flows);
    std::vector<Rate> ref_residual = inst.caps;
    std::vector<Rate> new_residual = inst.caps;
    reference::ref_waterfill(topo, ref_group, ref_residual);
    waterfill(topo, new_group, new_residual);
    for (std::size_t i = 0; i < ref_flows.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_flows[i].rate),
                std::bit_cast<std::uint64_t>(new_flows[i].rate))
          << inst.label << ", flow " << i;
    }
    for (std::size_t l = 0; l < ref_residual.size(); ++l) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ref_residual[l]),
                std::bit_cast<std::uint64_t>(new_residual[l]))
          << inst.label << ", link " << l;
    }
  }
}

TEST(WaterfillKernel, InvalidFlowsThrowLikeTheReference) {
  const FatTree& ft = fabrics().k4;
  std::vector<Rate> caps(ft.topology().link_count(), gbps(10.0));
  SimFlow empty;
  empty.id = FlowId{0};
  SimFlow weightless;
  weightless.id = FlowId{1};
  weightless.path = ft.route(weightless.id, 0, 5);
  weightless.weight = 0;
  SimFlow good;
  good.id = FlowId{2};
  good.path = ft.route(good.id, 0, 5);
  for (SimFlow* bad : {&empty, &weightless}) {
    // The valid flow first, so the failure strikes mid-way through a group.
    SimFlow* flows[] = {&good, bad};
    WaterfillScratch scratch;
    reference::RefScratch ref_scratch;
    EXPECT_THROW(solve_component(ft.topology(), flows, 2, caps, scratch),
                 std::logic_error);
    EXPECT_THROW(reference::ref_solve_component(ft.topology(), flows, 2, caps,
                                                ref_scratch),
                 std::logic_error);
    // The production scratch stays usable after a failed solve.
    const Instance inst = make_instance(0);
    expect_same_bits(fabrics().pick(0).topology(), inst, scratch);
  }
}

TEST(WaterfillScratchMemory, CountsEveryOwnedArray) {
  // After one large multi-tier solve every scratch array holds storage,
  // and memory_bytes() must be exactly their sum.
  const FatTree& ft = fabrics().k8;
  std::vector<SimFlow> flows(512);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].id = FlowId{i};
    flows[i].path = ft.route(flows[i].id, static_cast<int>(i % 128),
                             static_cast<int>((i * 37 + 5) % 128) ==
                                     static_cast<int>(i % 128)
                                 ? static_cast<int>((i + 1) % 128)
                                 : static_cast<int>((i * 37 + 5) % 128));
    flows[i].tier = static_cast<Tier>(i / 128);
  }
  std::vector<SimFlow*> ptrs = pointers(flows);
  const std::vector<Rate> caps(ft.topology().link_count(), gbps(10.0));
  WaterfillScratch s;
  solve_component(ft.topology(), ptrs.data(), ptrs.size(), caps, s);

  std::size_t sum = 0;
  std::size_t listed = 0;
  auto count = [&](const auto& v) {
    EXPECT_GT(v.capacity(), 0u) << "array " << listed << " is empty";
    sum += v.capacity() * sizeof(v[0]);
    ++listed;
  };
  count(s.link_slot);
  count(s.link_stamp);
  count(s.slot_residual);
  count(s.slot_pos);
  count(s.path_off);
  count(s.path);
  count(s.frozen);
  count(s.pos_slot);
  count(s.weight);
  count(s.residual);
  count(s.unfrozen);
  count(s.csr_off);
  count(s.csr);
  count(s.scan_index);
  count(s.share);
  count(s.tiny);
  count(s.scan_pos);
  EXPECT_EQ(s.memory_bytes(), sum);
  // Every member besides the 32-bit stamp is one of the vectors above: a
  // new array added to the struct without being listed here (and in
  // memory_bytes()) makes it at least one vector larger.
  EXPECT_LT(sizeof(WaterfillScratch), (listed + 1) * sizeof(std::vector<char>));
  // Only the slot map scales with the fabric: 8 bytes per link.
  EXPECT_EQ(s.link_slot.size() + s.link_stamp.size(),
            2 * ft.topology().link_count());
}

}  // namespace
}  // namespace gurita
