#include "fault/validation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

namespace gurita {

namespace {

std::string at(const char* array, std::size_t index) {
  std::ostringstream os;
  os << array << '[' << index << ']';
  return os.str();
}

}  // namespace

void validate_fault_plan(const FaultPlan& plan, int num_hosts,
                         std::size_t link_count) {
  std::vector<ConfigError::Issue> issues;

  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    const std::string where = at("fault_plan.events", i);
    if (!std::isfinite(e.time) || e.time < 0) {
      std::ostringstream os;
      os << "time must be finite and >= 0, got " << e.time;
      issues.push_back({where, os.str()});
    }
    switch (e.kind) {
      case FaultKind::kHostDown:
      case FaultKind::kHostUp:
      case FaultKind::kStragglerStart:
      case FaultKind::kStragglerEnd:
        if (e.host < 0 || e.host >= num_hosts) {
          std::ostringstream os;
          os << "host " << e.host << " does not exist (fabric has "
             << num_hosts << " hosts)";
          issues.push_back({where, os.str()});
        }
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLinkCapacity:
        if (!e.link.valid() || e.link.value() >= link_count) {
          std::ostringstream os;
          os << "link " << e.link << " does not exist (fabric has "
             << link_count << " links)";
          issues.push_back({where, os.str()});
        }
        break;
      case FaultKind::kSchedulerStateLoss:
        break;
    }
    if (e.kind == FaultKind::kStragglerStart &&
        (!std::isfinite(e.factor) || e.factor <= 0 || e.factor >= 1)) {
      std::ostringstream os;
      os << "straggler factor must lie in (0, 1), got " << e.factor;
      issues.push_back({where, os.str()});
    }
    if (e.kind == FaultKind::kLinkCapacity &&
        !(e.factor >= 0 && e.factor <= 1)) {
      std::ostringstream os;
      os << "link capacity factor must lie in [0, 1], got " << e.factor;
      issues.push_back({where, os.str()});
    }
  }

  // Pairing discipline, checked in execution order. Only meaningful if the
  // per-event fields were sane, so skip when field errors exist (the indices
  // reported above are the actionable ones).
  if (issues.empty()) {
    std::vector<std::size_t> order(plan.events.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return plan.events[a].time < plan.events[b].time;
                     });
    // Tracks the down/up (or straggling/nominal) state per entity. Keys:
    // hosts and straggler windows by host index, links by link id.
    std::map<int, bool> host_down;
    std::map<int, bool> straggling;
    std::map<std::uint64_t, bool> link_down;
    for (std::size_t idx : order) {
      const FaultEvent& e = plan.events[idx];
      const std::string where = at("fault_plan.events", idx);
      switch (e.kind) {
        case FaultKind::kHostDown:
          if (host_down[e.host]) {
            std::ostringstream os;
            os << "host " << e.host << " is already down at t=" << e.time;
            issues.push_back({where, os.str()});
          }
          host_down[e.host] = true;
          break;
        case FaultKind::kHostUp:
          if (!host_down[e.host]) {
            std::ostringstream os;
            os << "host " << e.host << " is not down at t=" << e.time;
            issues.push_back({where, os.str()});
          }
          host_down[e.host] = false;
          break;
        case FaultKind::kLinkDown:
          if (link_down[e.link.value()]) {
            std::ostringstream os;
            os << "link " << e.link << " is already down at t=" << e.time;
            issues.push_back({where, os.str()});
          }
          link_down[e.link.value()] = true;
          break;
        case FaultKind::kLinkUp:
          if (!link_down[e.link.value()]) {
            std::ostringstream os;
            os << "link " << e.link << " is not down at t=" << e.time;
            issues.push_back({where, os.str()});
          }
          link_down[e.link.value()] = false;
          break;
        case FaultKind::kStragglerStart:
          if (straggling[e.host]) {
            std::ostringstream os;
            os << "host " << e.host << " is already straggling at t="
               << e.time;
            issues.push_back({where, os.str()});
          }
          straggling[e.host] = true;
          break;
        case FaultKind::kStragglerEnd:
          if (!straggling[e.host]) {
            std::ostringstream os;
            os << "host " << e.host << " is not straggling at t=" << e.time;
            issues.push_back({where, os.str()});
          }
          straggling[e.host] = false;
          break;
        case FaultKind::kSchedulerStateLoss:
        case FaultKind::kLinkCapacity:
          break;
      }
    }
  }

  const RetryPolicy& r = plan.retry;
  if (!std::isfinite(r.base_delay) || r.base_delay <= 0) {
    std::ostringstream os;
    os << "base_delay must be finite and > 0, got " << r.base_delay;
    issues.push_back({"fault_plan.retry", os.str()});
  }
  if (!std::isfinite(r.multiplier) || r.multiplier < 1) {
    std::ostringstream os;
    os << "multiplier must be finite and >= 1, got " << r.multiplier;
    issues.push_back({"fault_plan.retry", os.str()});
  }
  if (!std::isfinite(r.max_delay) || r.max_delay < 0) {
    std::ostringstream os;
    os << "max_delay must be finite and >= 0 (0 disables the cap), got "
       << r.max_delay;
    issues.push_back({"fault_plan.retry", os.str()});
  }
  if (!std::isfinite(r.jitter) || r.jitter < 0) {
    std::ostringstream os;
    os << "jitter must be finite and >= 0, got " << r.jitter;
    issues.push_back({"fault_plan.retry", os.str()});
  }
  if (r.max_attempts < 1) {
    std::ostringstream os;
    os << "max_attempts must be >= 1, got " << r.max_attempts;
    issues.push_back({"fault_plan.retry", os.str()});
  }

  if (!issues.empty())
    throw ConfigError("invalid fault plan", std::move(issues));
}

}  // namespace gurita
