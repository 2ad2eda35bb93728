// Test-only reference water-filling kernel.
//
// This is the link-indexed progressive-filling kernel the allocator used
// before the dense-slot rewrite, kept verbatim (arithmetic, subtraction
// order, bottleneck tolerance clauses, first-touch freeze order) so the
// production kernel (flowsim/allocator.h: solve_component, waterfill) can
// be held bit-identical to it. It deliberately shares no code with src/:
// only the data types (SimFlow, Topology, LinkId) are common, and its
// consistency checks throw through a local helper.
//
// Used by tests/waterfill_kernel_test.cpp and the side-by-side
// BM_SolveComponent rows of bench/bench_micro.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "flowsim/state.h"
#include "topology/graph.h"

namespace gurita::reference {

inline void ref_check(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(msg);
}

/// Per-link accumulators sized to the topology plus the CSR flow lists.
struct RefScratch {
  std::vector<double> link_weight;
  std::vector<std::uint32_t> link_unfrozen;
  std::vector<std::uint32_t> link_nflows;
  std::vector<std::uint32_t> link_off;
  std::vector<std::uint32_t> link_cur;
  std::vector<std::uint32_t> csr;
  std::vector<LinkId> touched;
  std::vector<char> frozen;
  std::vector<Rate> residual;
  std::vector<char> residual_init;
  std::vector<LinkId> residual_links;

  void ensure(std::size_t links) {
    if (link_weight.size() < links) {
      link_weight.resize(links, 0.0);
      link_unfrozen.resize(links, 0);
      link_nflows.resize(links, 0);
      link_off.resize(links, 0);
      link_cur.resize(links, 0);
      residual.resize(links, 0.0);
      residual_init.resize(links, 0);
    }
  }
};

/// One tier group's progressive filling over link-indexed `residual`.
inline void ref_waterfill_group(SimFlow* const* group, std::size_t n,
                                Rate* residual, RefScratch& s) {
  s.touched.clear();
  for (std::size_t i = 0; i < n; ++i) {
    SimFlow* f = group[i];
    ref_check(!f->path.empty(), "active flow with empty path");
    ref_check(f->weight > 0, "flow weight must be positive");
    f->rate = 0;
    for (LinkId l : f->path) {
      if (s.link_nflows[l.value()] == 0) s.touched.push_back(l);
      ++s.link_nflows[l.value()];
      s.link_weight[l.value()] += f->weight;
      ++s.link_unfrozen[l.value()];
    }
  }
  std::uint32_t base = 0;
  for (LinkId l : s.touched) {
    s.link_off[l.value()] = base;
    s.link_cur[l.value()] = base;
    base += s.link_nflows[l.value()];
  }
  if (s.csr.size() < base) s.csr.resize(base);
  for (std::size_t i = 0; i < n; ++i) {
    for (LinkId l : group[i]->path)
      s.csr[s.link_cur[l.value()]++] = static_cast<std::uint32_t>(i);
  }

  s.frozen.assign(n, 0);
  std::size_t remaining = n;

  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (LinkId l : s.touched) {
      if (s.link_unfrozen[l.value()] == 0) continue;
      const double w = std::max(s.link_weight[l.value()], 1e-300);
      best_share = std::min(best_share, residual[l.value()] / w);
    }
    ref_check(best_share < std::numeric_limits<double>::infinity(),
              "unfrozen flows but no carrying link");
    best_share = std::max(best_share, 0.0);

    bool froze_any = false;
    for (LinkId l : s.touched) {
      if (s.link_unfrozen[l.value()] == 0) continue;
      const double w = std::max(s.link_weight[l.value()], 1e-300);
      if (residual[l.value()] / w > best_share * (1 + 1e-12) &&
          residual[l.value()] > 1e-9)
        continue;
      const std::uint32_t off = s.link_off[l.value()];
      const std::uint32_t cnt = s.link_nflows[l.value()];
      for (std::uint32_t k = 0; k < cnt; ++k) {
        const std::uint32_t idx = s.csr[off + k];
        if (s.frozen[idx]) continue;
        SimFlow* f = group[idx];
        f->rate = f->weight * best_share;
        s.frozen[idx] = 1;
        froze_any = true;
        --remaining;
        for (LinkId pl : f->path) {
          s.link_weight[pl.value()] -= f->weight;
          --s.link_unfrozen[pl.value()];
          residual[pl.value()] -= f->rate;
          if (residual[pl.value()] < 0) residual[pl.value()] = 0;
        }
      }
    }
    ref_check(froze_any, "waterfill failed to make progress");
  }

  for (LinkId l : s.touched) {
    s.link_weight[l.value()] = 0.0;
    s.link_unfrozen[l.value()] = 0;
    s.link_nflows[l.value()] = 0;
  }
  s.touched.clear();
}

/// One link-connected component, `flows[0..n)` sorted by (tier, id); tier
/// groups are filled in order, each consuming what the previous left.
inline void ref_solve_component(const Topology& topo, SimFlow* const* flows,
                                std::size_t n,
                                const std::vector<Rate>& capacities,
                                RefScratch& scratch) {
  scratch.ensure(topo.link_count());
  for (std::size_t i = 0; i < n; ++i) {
    for (LinkId l : flows[i]->path) {
      if (scratch.residual_init[l.value()]) continue;
      scratch.residual_init[l.value()] = 1;
      scratch.residual[l.value()] = capacities[l.value()];
      scratch.residual_links.push_back(l);
    }
  }
  std::size_t i = 0;
  while (i < n) {
    const std::size_t start = i;
    const Tier tier = flows[i]->tier;
    while (i < n && flows[i]->tier == tier) ++i;
    ref_waterfill_group(flows + start, i - start, scratch.residual.data(),
                        scratch);
  }
  for (LinkId l : scratch.residual_links)
    scratch.residual_init[l.value()] = 0;
  scratch.residual_links.clear();
}

/// Single-group filling against a link-indexed residual, consumed in place.
inline void ref_waterfill(const Topology& topo, std::vector<SimFlow*>& group,
                          std::vector<Rate>& residual) {
  ref_check(residual.size() == topo.link_count(),
            "residual vector must cover every link");
  RefScratch scratch;
  scratch.ensure(topo.link_count());
  ref_waterfill_group(group.data(), group.size(), residual.data(), scratch);
}

}  // namespace gurita::reference
