#include "flowsim/allocator.h"

#include <algorithm>
#include <limits>

namespace gurita {

void WaterfillScratch::ensure(std::size_t links) {
  if (link_slot.size() < links) {
    link_slot.resize(links, 0);
    link_stamp.resize(links, 0);
  }
}

namespace {

constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The bottleneck scans run in blocks of kLanes scan indices; the scan
/// arrays carry up to kLanes - 1 dead entries (+inf, not tiny) of padding.
constexpr std::uint32_t kLanes = 4;

std::uint32_t padded(std::uint32_t n) {
  return (n + kLanes - 1) & ~(kLanes - 1);
}

/// Starts a new solve: bumps the link stamp (clearing the map on wrap),
/// then gives every path link of `flows[0..n)` a dense slot in first-touch
/// order, seeds its residual from `initial` (indexed by LinkId value) and
/// writes each flow's path as slot indices. Sizes the slot and position
/// arrays.
void map_slots(SimFlow* const* flows, std::size_t n, const Rate* initial,
               WaterfillScratch& s) {
  if (++s.stamp == 0) {
    std::fill(s.link_stamp.begin(), s.link_stamp.end(), 0);
    s.stamp = 1;
  }
  s.slot_residual.clear();
  s.path.clear();
  s.path_off.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    s.path_off[i] = static_cast<std::uint32_t>(s.path.size());
    for (LinkId l : flows[i]->path) {
      const std::size_t lv = l.value();
      if (s.link_stamp[lv] != s.stamp) {
        s.link_stamp[lv] = s.stamp;
        s.link_slot[lv] = static_cast<std::uint32_t>(s.slot_residual.size());
        s.slot_residual.push_back(initial[lv]);
      }
      s.path.push_back(s.link_slot[lv]);
    }
  }
  s.path_off[n] = static_cast<std::uint32_t>(s.path.size());
  const std::size_t slots = s.slot_residual.size();
  s.slot_pos.assign(slots, kNoPos);
  if (s.csr_off.size() <= slots) {
    s.pos_slot.resize(slots);
    s.weight.resize(slots);
    s.residual.resize(slots);
    s.unfrozen.resize(slots);
    s.csr_off.resize(slots + 1);
    s.scan_index.resize(slots);
    s.share.resize(slots + kLanes - 1);
    s.tiny.resize(slots + kLanes - 1);
    s.scan_pos.resize(slots);
  }
}

/// Refreshes the cached bottleneck test inputs of scan index `c` from its
/// position's residual and weight. These exact expressions define the
/// bits (the 1e-300 weight floor and the 1e-9 "tiny" residual cut-off).
/// Recomputing on every change, never updating incrementally, keeps them
/// equal to a from-scratch evaluation.
inline void refresh_share(WaterfillScratch& s, std::uint32_t c, Rate residual,
                          double weight) {
  s.share[c] = residual / std::max(weight, 1e-300);
  s.tiny[c] = !(residual > 1e-9);
}

/// The smallest of `share[0..n)`, `n` a multiple of kLanes: bitwise what
/// the sequential scan `best = std::min(best, share[c])` from +inf
/// returns. Independent lanes hide the compare latency. Their result can
/// differ from the sequential scan's only in the sign of a zero minimum
/// (sequentially the first zero wins; equal nonzero doubles have equal bits
/// and NaN never wins), so a zero minimum is settled by the sequential scan.
double min_share(const double* share, std::uint32_t n) {
  double m[kLanes] = {kInf, kInf, kInf, kInf};
  for (std::uint32_t c = 0; c < n; c += kLanes) {
    for (std::uint32_t j = 0; j < kLanes; ++j)
      m[j] = std::min(m[j], share[c + j]);
  }
  const double best = std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
  if (best != 0) return best;
  double first = kInf;
  for (std::uint32_t c = 0; c < n; ++c) first = std::min(first, share[c]);
  return first;
}

/// Pads the scan arrays after `nscan` live entries up to the block size.
void pad_scan(WaterfillScratch& s, std::uint32_t nscan) {
  for (std::uint32_t c = nscan; c < padded(nscan); ++c) {
    s.share[c] = kInf;
    s.tiny[c] = 0;
  }
}

/// One tier group's progressive filling. `group[0..n)` all share one tier;
/// `path_off[0..n]` locates their slot paths in `s.path`, and the residual
/// of every slot they touch is read from and written back to
/// `s.slot_residual`. The rates are bit-identical to the link-indexed
/// reference kernel (tests/reference_waterfill.h, held to this one by
/// tests/waterfill_kernel_test.cpp): positions follow the group's
/// first-touch link order, weights are summed and subtracted in flow order
/// and path order, and each round takes the same minimum and freezes links
/// in position order. Shares are divided out only when a freeze changes
/// them, never in the scans.
///
/// A group whose flows all carry one weight is solved at weight 1, in the
/// sums and in `rate = w * share` alike. Weighted max-min with equal
/// weights is unweighted max-min, so this changes no rate beyond rounding,
/// and it makes the group's rates and residuals independent of the shared
/// weight: RateAllocator relies on that to keep a rescaled single-weight
/// component's cached rates (DESIGN.md §13).
void waterfill_group(SimFlow* const* group, const std::uint32_t* path_off,
                     std::size_t n, WaterfillScratch& s) {
  bool unit = true;
  for (std::size_t i = 1; i < n && unit; ++i)
    unit = group[i]->weight == group[0]->weight;
  const auto weight_of = [unit](const SimFlow* f) {
    return unit ? 1.0 : f->weight;
  };
  // Positions in first-touch order; each flow's path rewritten from slots
  // to positions (a flow belongs to exactly one group).
  std::uint32_t npos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SimFlow* f = group[i];
    GURITA_CHECK_MSG(!f->path.empty(), "active flow with empty path");
    GURITA_CHECK_MSG(f->weight > 0, "flow weight must be positive");
    f->rate = 0;
    for (std::uint32_t k = path_off[i]; k < path_off[i + 1]; ++k) {
      const std::uint32_t slot = s.path[k];
      std::uint32_t p = s.slot_pos[slot];
      if (p == kNoPos) {
        p = npos++;
        s.slot_pos[slot] = p;
        s.pos_slot[p] = slot;
        s.weight[p] = 0.0;
        s.residual[p] = s.slot_residual[slot];
        s.unfrozen[p] = 0;
      }
      s.path[k] = p;
      s.weight[p] += weight_of(f);
      ++s.unfrozen[p];
    }
  }
  // CSR: slice ends by prefix sum, then a reverse fill leaves each slice
  // in ascending flow order with csr_off[p] at its start.
  std::uint32_t total = 0;
  for (std::uint32_t p = 0; p < npos; ++p) {
    total += s.unfrozen[p];
    s.csr_off[p] = total;
  }
  s.csr_off[npos] = total;
  if (s.csr.size() < total) s.csr.resize(total);
  for (std::size_t i = n; i-- > 0;) {
    for (std::uint32_t k = path_off[i]; k < path_off[i + 1]; ++k)
      s.csr[--s.csr_off[s.path[k]]] = static_cast<std::uint32_t>(i);
  }
  for (std::uint32_t p = 0; p < npos; ++p) {
    s.scan_pos[p] = p;
    s.scan_index[p] = p;
    refresh_share(s, p, s.residual[p], s.weight[p]);
  }
  std::uint32_t nscan = npos;
  std::uint32_t dead = 0;
  pad_scan(s, nscan);

  s.frozen.assign(n, 0);
  std::size_t remaining = n;

  // Freezes every unfrozen flow crossing position `p` at `share` and
  // consumes its capacity along its path, refreshing the cached share of
  // each link it changes (+inf once the link has no unfrozen flow left).
  const auto freeze_link = [&](std::uint32_t p, double share) {
    for (std::uint32_t k = s.csr_off[p]; k < s.csr_off[p + 1]; ++k) {
      const std::uint32_t idx = s.csr[k];
      if (s.frozen[idx]) continue;
      SimFlow* f = group[idx];
      const double w = weight_of(f);
      const Rate rate = w * share;
      f->rate = rate;
      s.frozen[idx] = 1;
      --remaining;
      for (std::uint32_t e = path_off[idx]; e < path_off[idx + 1]; ++e) {
        const std::uint32_t q = s.path[e];
        s.weight[q] -= w;
        Rate r = s.residual[q] - rate;
        if (r < 0) r = 0;
        s.residual[q] = r;
        const std::uint32_t c = s.scan_index[q];
        if (--s.unfrozen[q] == 0) {
          s.share[c] = kInf;
          s.tiny[c] = 0;
          ++dead;
        } else {
          refresh_share(s, c, r, s.weight[q]);
        }
      }
    }
  };

  // Progressive filling: each round finds the bottleneck share, freezes
  // every flow crossing a bottleneck link, consumes capacity, repeats.
  while (remaining > 0) {
    double best_share = min_share(s.share.data(), padded(nscan));
    GURITA_CHECK_MSG(best_share < kInf, "unfrozen flows but no carrying link");
    best_share = std::max(best_share, 0.0);
    const double threshold = best_share * (1 + 1e-12);

    // Links are tested in scan order against their current share, so a
    // freeze earlier in this pass is seen by every later link. A block is
    // skipped whole only when none of its links passes: nothing can freeze
    // between that test and the visits it stands for. Dead links and
    // padding read +inf and never pass.
    const std::size_t before = remaining;
    for (std::uint32_t b = 0; b < nscan; b += kLanes) {
      bool any = false;
      for (std::uint32_t c = b; c < b + kLanes; ++c)
        any |= !(s.share[c] > threshold) | (s.tiny[c] != 0);
      if (!any) continue;
      for (std::uint32_t c = b; c < b + kLanes; ++c) {
        if (s.share[c] > threshold && !s.tiny[c]) continue;
        freeze_link(s.scan_pos[c], best_share);
      }
    }
    const bool froze_any = remaining < before;
    GURITA_CHECK_MSG(froze_any, "waterfill failed to make progress");

    // Drop saturated links from the scans once a quarter are dead; order
    // is preserved, so the minimum and the freeze order are unchanged.
    if (dead * 4 > nscan) {
      std::uint32_t live = 0;
      for (std::uint32_t c = 0; c < nscan; ++c) {
        const std::uint32_t p = s.scan_pos[c];
        if (s.unfrozen[p] == 0) continue;
        s.share[live] = s.share[c];
        s.tiny[live] = s.tiny[c];
        s.scan_pos[live] = p;
        s.scan_index[p] = live;
        ++live;
      }
      nscan = live;
      dead = 0;
      pad_scan(s, nscan);
    }
  }

  for (std::uint32_t p = 0; p < npos; ++p) {
    const std::uint32_t slot = s.pos_slot[p];
    s.slot_residual[slot] = s.residual[p];
    s.slot_pos[slot] = kNoPos;
  }
}

}  // namespace

void solve_component(const Topology& topo, SimFlow* const* flows,
                     std::size_t n, const std::vector<Rate>& capacities,
                     WaterfillScratch& scratch) {
  scratch.ensure(topo.link_count());
  // Residual capacity per slot, carried across the component's tier
  // groups (SPQ: lower tiers consume first).
  map_slots(flows, n, capacities.data(), scratch);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t start = i;
    const Tier tier = flows[i]->tier;
    while (i < n && flows[i]->tier == tier) ++i;
    waterfill_group(flows + start, scratch.path_off.data() + start,
                    i - start, scratch);
  }
}

void waterfill(const Topology& topo, std::vector<SimFlow*>& group,
               std::vector<Rate>& residual) {
  GURITA_CHECK_MSG(residual.size() == topo.link_count(),
                   "residual vector must cover every link");
  WaterfillScratch scratch;
  scratch.ensure(topo.link_count());
  map_slots(group.data(), group.size(), residual.data(), scratch);
  waterfill_group(group.data(), scratch.path_off.data(), group.size(),
                  scratch);
  for (const SimFlow* f : group) {
    for (LinkId l : f->path)
      residual[l.value()] = scratch.slot_residual[scratch.link_slot[l.value()]];
  }
}

namespace {

std::uint32_t uf_find(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

}  // namespace

void allocate_rates(const Topology& topo, const std::vector<Rate>& capacities,
                    const std::vector<SimFlow*>& flows,
                    std::vector<RateChange>* changed) {
  GURITA_CHECK_MSG(capacities.size() == topo.link_count(),
                   "capacity vector must cover every link");
  for (Rate c : capacities) GURITA_CHECK_MSG(c >= 0, "negative capacity");

  std::vector<Rate> old_rates;
  if (changed != nullptr) {
    changed->clear();
    old_rates.reserve(flows.size());
    for (const SimFlow* f : flows) old_rates.push_back(f->rate);
  }

  // Stable order: by tier, then by flow id for determinism. Sorting a copy
  // keeps the caller's order intact (the engine hands in its persistent
  // active list); the total order depends only on (tier, id), so the rates
  // produced are independent of the caller's order.
  std::vector<SimFlow*> order(flows);
  std::sort(order.begin(), order.end(), [](const SimFlow* a, const SimFlow* b) {
    if (a->tier != b->tier) return a->tier < b->tier;
    return a->id < b->id;
  });

  // Link-connected components via union-find: flows sharing any link share
  // a component. Bucketing in `order` keeps each component (tier, id)
  // sorted, as solve_component requires.
  const std::uint32_t n = static_cast<std::uint32_t>(order.size());
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> link_first(topo.link_count(), kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (LinkId l : order[i]->path) {
      std::uint32_t& first = link_first[l.value()];
      if (first == kNone) {
        first = i;
      } else {
        const std::uint32_t a = uf_find(parent, i);
        const std::uint32_t b = uf_find(parent, first);
        if (a != b) parent[a] = b;
      }
    }
  }
  std::vector<std::uint32_t> comp_of_root(n, kNone);
  std::vector<std::vector<SimFlow*>> comps;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = uf_find(parent, i);
    if (comp_of_root[r] == kNone) {
      comp_of_root[r] = static_cast<std::uint32_t>(comps.size());
      comps.emplace_back();
    }
    comps[comp_of_root[r]].push_back(order[i]);
  }

  WaterfillScratch scratch;
  for (std::vector<SimFlow*>& comp : comps)
    solve_component(topo, comp.data(), comp.size(), capacities, scratch);

  if (changed != nullptr) {
    for (std::size_t j = 0; j < flows.size(); ++j) {
      if (flows[j]->rate != old_rates[j])
        changed->push_back(RateChange{flows[j], old_rates[j]});
    }
  }
}

void allocate_rates(const Topology& topo, const std::vector<SimFlow*>& flows) {
  std::vector<Rate> capacities(topo.link_count());
  for (std::size_t i = 0; i < capacities.size(); ++i)
    capacities[i] = topo.link(LinkId{i}).capacity;
  allocate_rates(topo, capacities, flows);
}

// --- RateAllocator -----------------------------------------------------------

void RateAllocator::reset(const Topology* topo, std::size_t flow_capacity) {
  topo_ = topo;
  stats_ = AllocStats{};
  const std::size_t links = topo->link_count();
  head_.assign(links, kNil);
  link_mark_.assign(links, 0);
  dirty_list_.clear();
  claimed_links_.clear();
  ent_flow_.clear();
  ent_next_.clear();
  ent_prev_.clear();
  slot_offset_.clear();
  in_.clear();
  tier_mirror_.clear();
  weight_mirror_.clear();
  old_rate_.clear();
  flow_mark_.clear();
  affected_.clear();
  reweighted_.clear();
  slot_offset_.reserve(flow_capacity);
  in_.reserve(flow_capacity);
  tier_mirror_.reserve(flow_capacity);
  weight_mirror_.reserve(flow_capacity);
  old_rate_.reserve(flow_capacity);
  flow_mark_.reserve(flow_capacity);
  scratch_.ensure(links);
}

void RateAllocator::ensure_flow(std::size_t fid) {
  if (fid < in_.size()) return;
  const std::size_t n = std::max(fid + 1, in_.size() * 2);
  in_.resize(n, 0);
  slot_offset_.resize(n, kNil);
  tier_mirror_.resize(n, 0);
  weight_mirror_.resize(n, 0.0);
  old_rate_.resize(n, 0.0);
  flow_mark_.resize(n, 0);
}

void RateAllocator::dirty_link(LinkId link) {
  if (link_mark_[link.value()] != 0) return;
  link_mark_[link.value()] = kDirty;
  dirty_list_.push_back(link);
}

void RateAllocator::add_flow(SimFlow* flow) {
  const std::size_t fid = flow->id.value();
  ensure_flow(fid);
  std::int32_t slot = slot_offset_[fid];
  if (slot == kNil) {
    slot = static_cast<std::int32_t>(ent_flow_.size());
    slot_offset_[fid] = slot;
    ent_flow_.resize(ent_flow_.size() + flow->path.size(), nullptr);
    ent_next_.resize(ent_flow_.size(), kNil);
    ent_prev_.resize(ent_flow_.size(), kNil);
  }
  for (std::size_t k = 0; k < flow->path.size(); ++k) {
    const std::int32_t e = slot + static_cast<std::int32_t>(k);
    const std::size_t l = flow->path[k].value();
    ent_flow_[e] = flow;
    ent_prev_[e] = kNil;
    ent_next_[e] = head_[l];
    if (head_[l] != kNil) ent_prev_[head_[l]] = e;
    head_[l] = e;
    dirty_link(flow->path[k]);
  }
  in_[fid] = 1;
  tier_mirror_[fid] = flow->tier;
  weight_mirror_[fid] = flow->weight;
}

void RateAllocator::remove_flow(SimFlow* flow) {
  const std::size_t fid = flow->id.value();
  if (fid >= in_.size() || !in_[fid]) return;
  const std::int32_t slot = slot_offset_[fid];
  for (std::size_t k = 0; k < flow->path.size(); ++k) {
    const std::int32_t e = slot + static_cast<std::int32_t>(k);
    const std::size_t l = flow->path[k].value();
    if (ent_prev_[e] != kNil)
      ent_next_[ent_prev_[e]] = ent_next_[e];
    else
      head_[l] = ent_next_[e];
    if (ent_next_[e] != kNil) ent_prev_[ent_next_[e]] = ent_prev_[e];
    ent_next_[e] = kNil;
    ent_prev_[e] = kNil;
    dirty_link(flow->path[k]);
  }
  in_[fid] = 0;
}

void RateAllocator::touch_flow(SimFlow* flow) {
  const std::size_t fid = flow->id.value();
  if (fid >= in_.size() || !in_[fid]) return;
  for (LinkId l : flow->path) dirty_link(l);
}

void RateAllocator::rebuild(const std::vector<SimFlow*>& active) {
  std::fill(head_.begin(), head_.end(), kNil);
  std::fill(link_mark_.begin(), link_mark_.end(), 0);
  dirty_list_.clear();
  ent_flow_.clear();
  ent_next_.clear();
  ent_prev_.clear();
  std::fill(in_.begin(), in_.end(), 0);
  std::fill(slot_offset_.begin(), slot_offset_.end(), kNil);
  std::fill(flow_mark_.begin(), flow_mark_.end(), 0);
  for (SimFlow* f : active) add_flow(f);
}

void RateAllocator::converge(LinkId seed, bool weight_only,
                             const std::vector<Rate>& capacities) {
  link_mark_[seed.value()] = kClaimed;
  std::size_t queue = claimed_links_.size();
  claimed_links_.push_back(seed);
  const std::size_t begin = affected_.size();
  for (; queue < claimed_links_.size(); ++queue) {
    const std::size_t l = claimed_links_[queue].value();
    for (std::int32_t e = head_[l]; e != kNil; e = ent_next_[e]) {
      SimFlow* f = ent_flow_[e];
      const std::size_t fid = f->id.value();
      if (flow_mark_[fid]) continue;
      flow_mark_[fid] = 1;
      old_rate_[fid] = f->rate;
      affected_.push_back(f);
      for (LinkId pl : f->path) {
        if (link_mark_[pl.value()] == kClaimed) continue;
        link_mark_[pl.value()] = kClaimed;
        claimed_links_.push_back(pl);
      }
    }
  }
  if (affected_.size() == begin) return;  // a link no flow crosses
  SimFlow** comp = affected_.data() + begin;
  const std::size_t size = affected_.size() - begin;
  // Same flows, tiers and caps as at the last allocation (no link of the
  // component is dirty): with one weight then and one now, the kernel's
  // unit-weight rule makes the cached rates the bits a re-solve would give.
  bool one_weight = weight_only;
  const double mirror = weight_mirror_[comp[0]->id.value()];
  for (std::size_t i = 1; i < size && one_weight; ++i) {
    one_weight = comp[i]->weight == comp[0]->weight &&
                 weight_mirror_[comp[i]->id.value()] == mirror;
  }
  if (one_weight) {
    ++stats_.components_skipped;
    return;
  }
  std::sort(comp, comp + size, [](const SimFlow* a, const SimFlow* b) {
    if (a->tier != b->tier) return a->tier < b->tier;
    return a->id < b->id;
  });
  solve_component(*topo_, comp, size, capacities, scratch_);
  ++stats_.components_solved;
  stats_.flows_solved += size;
  stats_.component_flows.add(static_cast<double>(size));
}

void RateAllocator::allocate(const std::vector<Rate>& capacities,
                             const std::vector<SimFlow*>& active,
                             std::vector<RateChange>* changed,
                             obs::PhaseProfiler* profiler) {
  ++stats_.allocations;

  {
    obs::ScopedPhase frontier(profiler, obs::Phase::kAllocFrontier);
    // Priority rewrites leave no event trail of their own: schedulers
    // mutate tier/weight in place during assign(). One O(active) mirror
    // scan per recomputation catches them — still O(1) per flow, versus
    // a full sort + re-solve. A tier change dirties the flow's path; a
    // weight-only change is kept for the second pass below, its old
    // weight still in the mirror.
    for (SimFlow* f : active) {
      const std::size_t fid = f->id.value();
      if (f->tier != tier_mirror_[fid]) {
        tier_mirror_[fid] = f->tier;
        weight_mirror_[fid] = f->weight;
        for (LinkId l : f->path) dirty_link(l);
      } else if (f->weight != weight_mirror_[fid]) {
        reweighted_.push_back(f);
      }
    }
  }

  obs::ScopedPhase converge_phase(profiler, obs::Phase::kAllocConverge);
  // First pass over the frontier: each dirty link no earlier search
  // reached seeds a breadth-first search over the link <-> flow membership
  // lists (claimed_links_ is its queue). The search claims its whole
  // component — every flow whose rate can legally change with that link —
  // records the flows' old rates, then the component is sorted and
  // re-solved with the shared kernel at once. The union of the components
  // is the fixpoint of the dirty-link closure.
  for (LinkId seed : dirty_list_) {
    if (link_mark_[seed.value()] != kClaimed) converge(seed, false, capacities);
  }
  // Second pass: a reweighted flow no search reached lies in a component
  // with no dirty link, so its flows, tiers and caps are those of the last
  // allocation and only weights moved. Its search solves the component
  // unless one weight was shared then and is shared now.
  for (SimFlow* f : reweighted_) {
    if (!flow_mark_[f->id.value()]) converge(f->path.front(), true, capacities);
  }
  for (SimFlow* f : reweighted_) weight_mirror_[f->id.value()] = f->weight;
  reweighted_.clear();
  stats_.dirty_links += claimed_links_.size();

  // Changed flows, in active order — the exact list (content and order)
  // allocate_rates() reports: an unaffected or skipped flow's cached rate
  // is bitwise what a re-solve would produce, so it cannot have "changed".
  if (changed != nullptr) {
    changed->clear();
    for (SimFlow* f : active) {
      const std::size_t fid = f->id.value();
      if (flow_mark_[fid] && f->rate != old_rate_[fid])
        changed->push_back(RateChange{f, old_rate_[fid]});
    }
    stats_.flows_changed += changed->size();
    stats_.changed_flows.add(static_cast<double>(changed->size()));
  }

  for (const SimFlow* f : affected_) flow_mark_[f->id.value()] = 0;
  affected_.clear();
  // Every seed was claimed, so clearing the claimed links clears them all.
  for (LinkId l : claimed_links_) link_mark_[l.value()] = 0;
  claimed_links_.clear();
  dirty_list_.clear();
}

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t WaterfillScratch::memory_bytes() const {
  return vec_bytes(link_slot) + vec_bytes(link_stamp) +
         vec_bytes(slot_residual) + vec_bytes(slot_pos) +
         vec_bytes(path_off) + vec_bytes(path) + vec_bytes(frozen) +
         vec_bytes(pos_slot) + vec_bytes(weight) + vec_bytes(residual) +
         vec_bytes(unfrozen) + vec_bytes(csr_off) + vec_bytes(csr) +
         vec_bytes(scan_index) + vec_bytes(share) + vec_bytes(tiny) +
         vec_bytes(scan_pos);
}

std::size_t RateAllocator::memory_bytes() const {
  return vec_bytes(head_) + vec_bytes(ent_flow_) + vec_bytes(ent_next_) +
         vec_bytes(ent_prev_) + vec_bytes(slot_offset_) + vec_bytes(in_) +
         vec_bytes(tier_mirror_) + vec_bytes(weight_mirror_) +
         vec_bytes(old_rate_) + vec_bytes(flow_mark_) +
         vec_bytes(link_mark_) + vec_bytes(dirty_list_) +
         vec_bytes(claimed_links_) + vec_bytes(affected_) +
         vec_bytes(reweighted_) + scratch_.memory_bytes();
}

}  // namespace gurita
