// Tiered weighted max-min rate allocation.
//
// All six schedulers in the reproduction share one allocation mechanism:
//
//   1. Active flows are grouped by `tier` (ascending). Tier t is allocated
//      only the capacity tiers < t left unused — this is strict priority
//      queuing (SPQ), the enforcement primitive the paper relies on, and
//      also expresses Baraat's FIFO-LM (tier = batch serial) and Aalo's
//      priority queues.
//   2. Within one tier, rates follow *weighted max-min fairness* computed by
//      progressive filling (water-filling): repeatedly find the bottleneck
//      link (smallest residual capacity per unit weight), freeze its flows
//      at their fair share, and continue. Weight 1 everywhere reproduces
//      per-flow fair sharing (the PFS baseline / TCP approximation); the
//      WRR starvation-mitigation mode maps queue weights onto flow weights.
//
// The result is work-conserving: no link with an unfrozen flow is left with
// spare capacity.
//
// Two callers share one convergence kernel (solve_component):
//
//   * RateAllocator — the engine's allocator: event hooks (flow
//     add/remove, link capacity change, priority change) seed a dirty-link
//     frontier; allocate() re-solves only the link-connected components
//     that contain a dirty link. Unaffected flows keep their cached rates,
//     which purity (rates are a function of (component flows, tiers,
//     weights, caps) only) guarantees are the bits a full re-solve would
//     produce.
//   * allocate_rates — a from-scratch re-solve of every link-connected
//     component of a flow set. The engine never calls it; it is the
//     reference the allocator-level tests and benchmarks hold RateAllocator
//     byte-identical to (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "flowsim/state.h"
#include "obs/profiler.h"
#include "topology/graph.h"

namespace gurita {

/// One flow whose allocated rate differs (bitwise) from the rate it carried
/// going into the recomputation, together with that previous rate. The old
/// rate is what the engine needs to settle the flow's lazy byte drain over
/// the interval the flow actually transmitted at it.
struct RateChange {
  SimFlow* flow = nullptr;
  Rate old_rate = 0;
};

/// Work counters for one run's allocations. Diagnostic only: they are not
/// part of the determinism contract (a restored run re-solves everything on
/// its first allocation, so its counters differ from the uninterrupted
/// run's even though every simulation byte matches) and therefore live
/// outside SimResults, like the phase profiler.
struct AllocStats {
  std::uint64_t allocations = 0;       ///< allocate() calls
  std::uint64_t flows_solved = 0;      ///< flows passed through the kernel
  std::uint64_t components_solved = 0; ///< components re-converged
  /// Components a weight-only change reached but left alone: every flow
  /// shared one weight before and after, so the kernel's rates cannot move.
  std::uint64_t components_skipped = 0;
  std::uint64_t dirty_links = 0;       ///< links the frontier BFS claimed
  std::uint64_t flows_changed = 0;     ///< flows whose rate moved (bits)
  /// Distribution of re-converged component sizes (flows per
  /// solve_component call), log2-bucketed. Like the counters above this is
  /// diagnostic only — it surfaces through the --diagnostics export, never
  /// through fingerprinted registries.
  LogHistogram component_flows{2.0};
  /// Flows whose rate moved, one sample per allocation that asked for the
  /// changed list (the engine's always do), log2-bucketed.
  LogHistogram changed_flows{2.0};

  /// Sums another run's counters and distributions in (the diagnostics
  /// pooling ComparisonResult::absorb performs).
  void merge(const AllocStats& other) {
    allocations += other.allocations;
    flows_solved += other.flows_solved;
    components_solved += other.components_solved;
    components_skipped += other.components_skipped;
    dirty_links += other.dirty_links;
    flows_changed += other.flows_changed;
    component_flows.merge(other.component_flows);
    changed_flows.merge(other.changed_flows);
  }
};

/// Reusable scratch for the water-filling kernel (DESIGN.md §13). Only
/// the stamped link -> slot map is sized to the topology (8 B/link); every
/// other array is indexed densely and sized to the largest component or
/// tier group solved so far, so a solve costs O(component), not O(links).
///
/// Three index spaces: a component's links get *slots* in first-touch
/// order; each tier group numbers the slots it uses as *positions*, again
/// in first-touch order; and the bottleneck scans run over *scan* indices,
/// the live positions in position order, compacted as links saturate.
struct WaterfillScratch {
  // Per topology link.
  std::vector<std::uint32_t> link_slot;  ///< slot, valid if link_stamp == stamp
  std::vector<std::uint32_t> link_stamp; ///< solve that assigned link_slot
  // Per component slot.
  std::vector<Rate> slot_residual;       ///< residual, carried across tiers
  std::vector<std::uint32_t> slot_pos;   ///< position in the current group
  // Per component flow.
  std::vector<std::uint32_t> path_off;   ///< flow i: path[off[i], off[i+1])
  std::vector<std::uint32_t> path;       ///< slots, then group positions
  std::vector<char> frozen;              ///< per-flow freeze bit (one group)
  // Per group position.
  std::vector<std::uint32_t> pos_slot;   ///< position -> slot
  std::vector<double> weight;            ///< sum of unfrozen weights
  std::vector<Rate> residual;            ///< residual capacity
  std::vector<std::uint32_t> unfrozen;   ///< count of unfrozen flows
  std::vector<std::uint32_t> csr_off;    ///< CSR: slice [off[p], off[p+1])
  std::vector<std::uint32_t> csr;        ///< flow indices, position-major
  std::vector<std::uint32_t> scan_index; ///< position -> scan index
  // Per scan index.
  std::vector<double> share;             ///< residual/weight, +inf if dead
  std::vector<char> tiny;                ///< residual <= 1e-9
  std::vector<std::uint32_t> scan_pos;   ///< scan index -> position
  std::uint32_t stamp = 0;               ///< current solve's link stamp

  /// Sizes the per-link slot map for `links`; cheap after the first call.
  void ensure(std::size_t links);

  /// Reserved bytes across all scratch arrays (obs/memory.h accounting).
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Solves one link-connected component: `flows[0..n)` sorted by (tier, id),
/// tier groups filled in order with each group consuming the residual the
/// previous groups left (SPQ). Residual capacity starts at `capacities` for
/// every link the component touches. Writes flow rates.
void solve_component(const Topology& topo, SimFlow* const* flows,
                     std::size_t n, const std::vector<Rate>& capacities,
                     WaterfillScratch& scratch);

/// Computes and writes `rate` for every flow in `flows` (all must be
/// active, with non-empty paths). Rates of flows not in `flows` are not
/// touched; the order of `flows` is preserved. `capacities` overrides the
/// links' nominal capacities (indexed by LinkId value; entries may be 0 for
/// a failed link) — the engine uses this for failure injection.
///
/// When `changed` is non-null it is cleared and filled (in `flows` order)
/// with the flows whose rate actually moved. Identical inputs produce
/// bit-identical rates, so an event that does not disturb the allocation
/// reports no changes — the hook the event-calendar engine uses to touch
/// only flows whose projected finish time shifted.
///
/// This is the test and benchmark reference: link-connected components are
/// split out and each is solved independently by the shared kernel, so its
/// bits are — by construction — the ones RateAllocator's partial re-solves
/// produce.
void allocate_rates(const Topology& topo, const std::vector<Rate>& capacities,
                    const std::vector<SimFlow*>& flows,
                    std::vector<RateChange>* changed = nullptr);

/// Convenience overload using the topology's nominal capacities.
void allocate_rates(const Topology& topo, const std::vector<SimFlow*>& flows);

/// Weighted max-min within a single group, honoring `residual` capacities
/// (indexed by LinkId value). Consumes capacity from `residual` and writes
/// flow rates. Exposed separately for unit testing.
void waterfill(const Topology& topo, std::vector<SimFlow*>& group,
               std::vector<Rate>& residual);

/// Incremental water-filling allocator (DESIGN.md §13).
///
/// The engine notifies it of every event that can change an allocation:
/// flow arrival/finish/abort (add_flow/remove_flow), link capacity changes
/// (dirty_link) and direct rate caps (touch_flow); scheduler priority
/// rewrites are caught by allocate()'s tier/weight mirror scan. allocate()
/// then grows one breadth-first search over the link <-> flow adjacency
/// (flat SoA membership lists) from each dirty link no earlier search
/// reached, solves each component so found with the shared kernel, and
/// reports exactly the flows whose rate moved — in active-list order,
/// bitwise identical to what allocate_rates() would report. A flow whose
/// only change is its weight seeds a second pass of the same search; the
/// component it claims is solved unless all its flows shared one weight
/// at the last allocation and still share one, since the kernel solves
/// such components at unit weight.
///
/// The class owns no simulation state that cannot be rebuilt: a restored
/// simulator calls rebuild(active) and the first allocation re-solves
/// everything (purity makes that byte-identical to the uninterrupted run),
/// so snapshots need not serialize any of this.
class RateAllocator {
 public:
  RateAllocator() = default;
  RateAllocator(RateAllocator&&) = default;
  RateAllocator& operator=(RateAllocator&&) = default;
  RateAllocator(const RateAllocator&) = delete;
  RateAllocator& operator=(const RateAllocator&) = delete;

  /// (Re-)initializes for a run: sizes per-link arrays, clears membership
  /// and the frontier, reserves per-flow arrays for `flow_capacity` ids.
  /// Reuses existing vector capacity, so pooled reuse allocates nothing.
  void reset(const Topology* topo, std::size_t flow_capacity);

  [[nodiscard]] const AllocStats& stats() const { return stats_; }

  /// Reserved bytes of the membership lists, per-flow arrays, worklists and
  /// kernel scratch — the allocator's real footprint for the memory
  /// accountant (obs/memory.h). Diagnostic only.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Flow entered the active set: links into every path link's membership
  /// list (O(path)) and dirties those links. Entry slots are assigned once
  /// per flow id and reused on retry re-entry (the path is stable).
  void add_flow(SimFlow* flow);
  /// Flow left the active set (finish/abort/cancel): unlinks and dirties.
  void remove_flow(SimFlow* flow);
  /// The flow's stored rate was changed outside the allocator (straggler
  /// caps) or differs from its pure allocation (TCP ramp / straggler
  /// windows): dirty its links so the next allocate() re-reports it.
  void touch_flow(SimFlow* flow);
  /// The link's capacity changed (a link fault or kLinkCapacity): seed the
  /// frontier with it.
  void dirty_link(LinkId link);

  /// Recomputes rates: mirror-scans `active` for tier/weight changes,
  /// re-solves every component a dirty link touches and every component
  /// a weight change can move, and fills `changed`
  /// (cleared first) with the flows whose rate moved, in `active` order —
  /// the same list allocate_rates() would produce. `profiler` (may be
  /// null) receives the kAllocFrontier / kAllocConverge sub-phases.
  void allocate(const std::vector<Rate>& capacities,
                const std::vector<SimFlow*>& active,
                std::vector<RateChange>* changed,
                obs::PhaseProfiler* profiler);

  /// Rebuilds membership from scratch after a snapshot restore: re-adds
  /// every active flow, leaving all their links dirty, so the next
  /// allocate() re-solves the full active set. Purity makes the result —
  /// and the reported changes — byte-identical to the uninterrupted run's.
  void rebuild(const std::vector<SimFlow*>& active);

 private:
  static constexpr std::int32_t kNil = -1;

  /// Grows the per-flow-id arrays to cover `fid`.
  void ensure_flow(std::size_t fid);
  /// Claims the unclaimed component that `seed` (an unclaimed link) lies
  /// in by breadth-first search, appending its flows to affected_ with
  /// their old rates recorded, and solves it unless `weight_only` and its
  /// flows share one weight both in weight_mirror_ and now.
  void converge(LinkId seed, bool weight_only,
                const std::vector<Rate>& capacities);

  const Topology* topo_ = nullptr;
  AllocStats stats_;

  // --- flat SoA membership: per link an intrusive doubly-linked list of
  // entries, one entry per (flow, path link). A flow's entries occupy the
  // contiguous slot range [slot_offset_[fid], slot_offset_[fid] + path
  // length), assigned at first add and reused on retry re-entry.
  std::vector<std::int32_t> head_;       ///< per link: first entry or kNil
  std::vector<SimFlow*> ent_flow_;       ///< entry -> flow
  std::vector<std::int32_t> ent_next_;   ///< entry -> next on same link
  std::vector<std::int32_t> ent_prev_;   ///< entry -> previous on same link

  // --- per-flow-id state (grown on demand) ---
  std::vector<std::int32_t> slot_offset_;///< first entry slot, kNil if none
  std::vector<char> in_;                 ///< currently a member
  std::vector<Tier> tier_mirror_;        ///< tier at last allocation
  std::vector<double> weight_mirror_;    ///< weight at last allocation
                                         ///< (reweighted_ flows: until the
                                         ///< weight-only pass is done)
  std::vector<Rate> old_rate_;           ///< rate when claimed by a BFS
  std::vector<char> flow_mark_;          ///< claimed by this allocation

  // --- dirty frontier + per-allocation worklists ---
  static constexpr char kDirty = 1;      ///< link_mark_: in dirty_list_
  static constexpr char kClaimed = 2;    ///< link_mark_: visited by a BFS
  std::vector<char> link_mark_;          ///< 0, kDirty or kClaimed
  std::vector<LinkId> dirty_list_;       ///< seeds, in dirtying order
  std::vector<LinkId> claimed_links_;    ///< BFS queue; all claimed links
  std::vector<SimFlow*> affected_;       ///< claimed flows, one component
                                         ///< after another
  std::vector<SimFlow*> reweighted_;     ///< weight-only changes, seeds of
                                         ///< the second pass

  WaterfillScratch scratch_;
};

}  // namespace gurita
