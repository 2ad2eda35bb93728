// Forwarding Scheduler decorator that times every call into the policy it
// wraps. The benchmark's traced run slips it between the engine and the
// real scheduler, so per-layer scheduler costs (assign, coordination ticks,
// event hooks, snapshot hooks) are measured from outside src/ without
// touching the policy. It forwards every virtual of the Scheduler
// interface and changes no decision: a traced run must produce the same
// result bytes as an untraced one, which the benchmark checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flowsim/scheduler.h"

namespace paperbench {

/// Accumulated cost of the calls a TimingScheduler forwarded.
struct SchedulerTimes {
  std::uint64_t assign_ns = 0;
  std::uint64_t assign_calls = 0;
  std::uint64_t assign_flows = 0;  ///< active flows handed to assign()
  std::uint64_t tick_ns = 0;
  /// Arrival/release/finish/fault/compaction hooks.
  std::uint64_t hooks_ns = 0;
  /// save_state/load_state (checkpoint and restore of policy state).
  std::uint64_t state_ns = 0;

  void merge(const SchedulerTimes& o) {
    assign_ns += o.assign_ns;
    assign_calls += o.assign_calls;
    assign_flows += o.assign_flows;
    tick_ns += o.tick_ns;
    hooks_ns += o.hooks_ns;
    state_ns += o.state_ns;
  }
};

class TimingScheduler final : public gurita::Scheduler {
 public:
  explicit TimingScheduler(std::unique_ptr<gurita::Scheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const SchedulerTimes& times() const { return times_; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void attach(const gurita::SimState& state) override {
    Scheduler::attach(state);
    inner_->attach(state);
  }

  void on_job_arrival(const gurita::SimJob& job, gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_job_arrival(job, now);
  }
  void on_coflow_release(const gurita::SimCoflow& coflow,
                         gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_coflow_release(coflow, now);
  }
  void on_flow_finish(const gurita::SimFlow& flow, gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_flow_finish(flow, now);
  }
  void on_coflow_finish(const gurita::SimCoflow& coflow,
                        gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_coflow_finish(coflow, now);
  }
  void on_job_finish(const gurita::SimJob& job, gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_job_finish(job, now);
  }
  void on_fault(const gurita::FaultEvent& event, gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_fault(event, now);
  }
  void on_recover(const gurita::FaultEvent& event, gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_recover(event, now);
  }
  void on_job_fail(const gurita::SimJob& job, gurita::Time now) override {
    const Span span(times_.hooks_ns);
    inner_->on_job_fail(job, now);
  }
  void on_compact(const gurita::CompactionRemap& remap) override {
    const Span span(times_.hooks_ns);
    inner_->on_compact(remap);
  }

  [[nodiscard]] gurita::Time tick_interval() const override {
    return inner_->tick_interval();
  }
  bool on_tick(gurita::Time now) override {
    const Span span(times_.tick_ns);
    return inner_->on_tick(now);
  }

  void assign(gurita::Time now,
              const std::vector<gurita::SimFlow*>& active) override {
    const Span span(times_.assign_ns);
    ++times_.assign_calls;
    times_.assign_flows += active.size();
    inner_->assign(now, active);
  }

  void save_state(gurita::snapshot::Writer& w) const override {
    const Span span(times_.state_ns);
    inner_->save_state(w);
  }
  void load_state(gurita::snapshot::Reader& r) override {
    const Span span(times_.state_ns);
    inner_->load_state(r);
  }

  void set_trace_recorder(gurita::obs::TraceRecorder* recorder) override {
    Scheduler::set_trace_recorder(recorder);
    inner_->set_trace_recorder(recorder);
  }

 private:
  /// Adds the lifetime of the span to `ns`.
  class Span {
   public:
    explicit Span(std::uint64_t& ns)
        : ns_(ns), start_(std::chrono::steady_clock::now()) {}
    ~Span() {
      ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    std::uint64_t& ns_;
    std::chrono::steady_clock::time_point start_;
  };

  std::unique_ptr<gurita::Scheduler> inner_;
  /// Mutable so the const save_state hook can be timed too.
  mutable SchedulerTimes times_;
};

}  // namespace paperbench
