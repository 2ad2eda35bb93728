// Deterministic fault-injection model (DESIGN.md §11).
//
// A FaultPlan is a seeded, pre-compiled list of timed fault events the
// engine executes alongside its regular calendar: host crash/recovery,
// link down/up, straggler slowdown windows and scheduler-state loss. The
// plan is plain data — generating it (fault/plan.h) is separate from
// executing it (flowsim/simulator.cpp), so the identical plan can be
// replayed under every scheduler of a comparison and across worker counts,
// keeping resilience results bit-identical (the determinism contract of
// DESIGN.md §9 extends to faults).
//
// Semantics implemented by the engine:
//  * kHostDown aborts every in-flight flow touching the host; the bytes in
//    flight are lost (the coflow's delivered-byte aggregates roll back).
//  * Aborted flows park until every blocking entity recovers, then re-enter
//    through RetryPolicy (fixed/exponential backoff, jitter drawn from the
//    plan's seed per (flow, attempt) — never from a shared stream, so retry
//    timing is independent of event interleaving).
//  * A flow that exhausts max_attempts fails its whole job: remaining flows
//    are cancelled and the job is marked failed instead of simulated
//    forever. The same happens when a needed recovery never comes.
//  * kStragglerStart caps the rates of flows touching the host at
//    factor × allocation until kStragglerEnd.
//  * kSchedulerStateLoss is delivered to the scheduler (on_fault): learned
//    priority state is dropped and live coflows re-enter the highest queue.
//  * kLinkCapacity sets a link to factor × its nominal capacity (degrade a
//    link mid-run, restore it later). It aborts nothing and is not
//    delivered to the scheduler. On a downed link it only changes the
//    capacity the link returns at on kLinkUp. A factor of 0 models a hard
//    failure without retry semantics: flows routed across the link can
//    never finish and the engine's stall guard throws (no re-routing).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace gurita {

/// Kind of one fault event. Down/start kinds are "faults" (delivered to
/// Scheduler::on_fault), up/end kinds are "recoveries" (on_recover);
/// kLinkCapacity is neither.
enum class FaultKind : std::uint8_t {
  kHostDown = 0,            ///< host crashes; flows touching it abort
  kHostUp = 1,              ///< host rejoins; parked flows may retry
  kLinkDown = 2,            ///< link fails hard; flows crossing it abort
  kLinkUp = 3,              ///< link restored at its pre-fault capacity
  kStragglerStart = 4,      ///< host degrades: flow rates capped at factor
  kStragglerEnd = 5,        ///< straggler window ends
  kSchedulerStateLoss = 6,  ///< scheduler control state vanishes
  kLinkCapacity = 7,        ///< link set to factor × nominal capacity
};

/// Printable name ("host_down", "straggler_start", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// True for the kinds delivered via Scheduler::on_recover (kHostUp,
/// kLinkUp, kStragglerEnd).
[[nodiscard]] constexpr bool is_recovery(FaultKind kind) {
  return kind == FaultKind::kHostUp || kind == FaultKind::kLinkUp ||
         kind == FaultKind::kStragglerEnd;
}

/// One timed fault event. Which entity field is meaningful depends on the
/// kind: host events use `host`, link events use `link`, straggler events
/// use `host` + `factor`, kLinkCapacity uses `link` + `factor`;
/// kSchedulerStateLoss uses neither.
struct FaultEvent {
  Time time = 0;
  FaultKind kind = FaultKind::kHostDown;
  int host = -1;
  LinkId link;  ///< default-constructs to the invalid sentinel
  /// kStragglerStart: surviving fraction of the allocated rate, in (0, 1).
  /// kLinkCapacity: fraction of the link's nominal capacity, in [0, 1].
  double factor = 1.0;
};

/// How aborted flows re-enter after the blocking fault recovers.
struct RetryPolicy {
  enum class Backoff : std::uint8_t {
    kFixed = 0,        ///< every attempt waits base_delay
    kExponential = 1,  ///< base_delay × multiplier^(attempt-1), capped
  };
  Backoff backoff = Backoff::kExponential;
  Time base_delay = 2 * kMillisecond;
  double multiplier = 2.0;
  /// Upper bound on the deterministic part of the delay (0 = no cap).
  Time max_delay = 0.5;
  /// Jitter fraction: the final delay is d × (1 + jitter × u) with
  /// u ∈ [0, 1) drawn deterministically from (seed, stream, attempt).
  double jitter = 0.1;
  /// A flow aborted this many times fails its job instead of retrying.
  int max_attempts = 8;

  /// Backoff delay before retry number `attempt` (1-based; values < 1 are
  /// clamped to 1 — a flow parked before it ever transmitted waits one
  /// base delay). `seed` is the plan's seed, `stream` the flow id: the
  /// jitter depends only on these three values, never on shared RNG state.
  [[nodiscard]] Time delay(int attempt, std::uint64_t seed,
                           std::uint64_t stream) const;
};

/// A complete, executable fault schedule for one run.
struct FaultPlan {
  std::vector<FaultEvent> events;  ///< any order; the engine sorts by time
  RetryPolicy retry;
  std::uint64_t seed = 0;  ///< jitter stream seed (see RetryPolicy::delay)

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// Structured setup-validation failure: aggregates every problem found in a
/// config (not just the first) so a caller can report them all. Derives
/// from std::logic_error — existing EXPECT_THROW(std::logic_error) call
/// sites keep working — and what() embeds every issue.
class ConfigError : public std::logic_error {
 public:
  struct Issue {
    std::string where;  ///< e.g. "fault_plan.events[0]", "--num-jobs"
    std::string what;   ///< human-readable description of the problem
  };

  ConfigError(const std::string& context, std::vector<Issue> issues);

  [[nodiscard]] const std::vector<Issue>& issues() const { return issues_; }

 private:
  static std::string format(const std::string& context,
                            const std::vector<Issue>& issues);
  std::vector<Issue> issues_;
};

}  // namespace gurita
