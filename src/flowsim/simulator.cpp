#include "flowsim/simulator.h"
#include <sstream>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "fault/validation.h"
#include "flowsim/allocator.h"

namespace gurita {

double SimResults::average_jct() const {
  double s = 0;
  std::size_t n = 0;
  for (const JobResult& j : jobs) {
    if (j.failed) continue;  // abandonment time is not a completion
    s += j.jct();
    ++n;
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

double SimResults::average_cct() const {
  double s = 0;
  std::size_t n = 0;
  for (const CoflowResult& c : coflows) {
    if (c.failed) continue;
    s += c.cct();
    ++n;
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

void SimResults::merge_counters(const SimResults& other) {
  makespan = std::max(makespan, other.makespan);
  rate_recomputations += other.rate_recomputations;
  events += other.events;
  flow_touches += other.flow_touches;
  flow_aborts += other.flow_aborts;
  flow_retries += other.flow_retries;
  failed_jobs += other.failed_jobs;
  bytes_lost += other.bytes_lost;
  bytes_retransmitted += other.bytes_retransmitted;
  total_recovery_latency += other.total_recovery_latency;
}

void SimResults::export_counters(obs::Registry& registry) const {
  registry.add("engine.events", events);
  registry.add("engine.flow_touches", flow_touches);
  registry.add("engine.rate_recomputations", rate_recomputations);
  registry.add("fault.flow_aborts", flow_aborts);
  registry.add("fault.flow_retries", flow_retries);
  registry.add("fault.failed_jobs", failed_jobs);
  registry.set_gauge("engine.makespan", makespan);
}

double SimResults::link_utilization(LinkId id, Rate capacity) const {
  GURITA_CHECK_MSG(id.value() < link_bytes.size(),
                   "link stats not collected or id out of range");
  GURITA_CHECK_MSG(capacity > 0, "capacity must be positive");
  if (makespan <= 0) return 0.0;
  return link_bytes[id.value()] / (capacity * makespan);
}

namespace {

/// The adopt/return primitive of buffer recycling: `dst` takes over `src`'s
/// allocation and is cleared — capacity is reused, values never are. `src`
/// is left moved-from (empty), which is what makes a double-borrowed pool
/// safe: the second borrower adopts nothing and allocates fresh.
template <typename T>
void adopt_cleared(std::vector<T>& dst, std::vector<T>& src) {
  dst = std::move(src);
  dst.clear();
}

}  // namespace

void Simulator::adopt_buffers(SimBufferPool& pool) {
  adopt_cleared(state_.flows_, pool.flows);
  adopt_cleared(state_.coflows_, pool.coflows);
  adopt_cleared(state_.jobs_, pool.jobs);
  adopt_cleared(state_.aggregates_, pool.aggregates);
  adopt_cleared(active_, pool.active);
  adopt_cleared(pos_in_active_, pool.pos_in_active);
  adopt_cleared(gen_, pool.gen);
  adopt_cleared(rate_changes_, pool.rate_changes);
  adopt_cleared(arrival_order_, pool.arrival_order);
  adopt_cleared(done_, pool.done);
  adopt_cleared(capacities_, pool.capacities);
  adopt_cleared(fault_events_, pool.fault_events);
  adopt_cleared(host_down_, pool.host_down);
  adopt_cleared(link_down_, pool.link_down);
  adopt_cleared(straggler_, pool.straggler);
  adopt_cleared(saved_capacity_, pool.saved_capacity);
  adopt_cleared(parked_, pool.parked);
  adopt_cleared(capped_, pool.capped);
  // The allocator recycles whole: reset() (prepare_structures) clears it
  // while reusing its per-link and per-flow array capacity.
  alloc_ = std::move(pool.allocator);
  pool.allocator = RateAllocator{};
  // Heaps restore a cleared array — an empty array is a valid layout.
  pool.calendar.clear();
  calendar_.restore(std::move(pool.calendar));
  pool.retries.clear();
  retries_.restore(std::move(pool.retries));
}

void Simulator::return_buffers(SimBufferPool& pool) {
  pool.flows = std::move(state_.flows_);
  pool.coflows = std::move(state_.coflows_);
  pool.jobs = std::move(state_.jobs_);
  pool.aggregates = std::move(state_.aggregates_);
  pool.active = std::move(active_);
  pool.pos_in_active = std::move(pos_in_active_);
  pool.gen = std::move(gen_);
  pool.rate_changes = std::move(rate_changes_);
  pool.arrival_order = std::move(arrival_order_);
  pool.done = std::move(done_);
  pool.capacities = std::move(capacities_);
  pool.fault_events = std::move(fault_events_);
  pool.host_down = std::move(host_down_);
  pool.link_down = std::move(link_down_);
  pool.straggler = std::move(straggler_);
  pool.saved_capacity = std::move(saved_capacity_);
  pool.parked = std::move(parked_);
  pool.capped = std::move(capped_);
  pool.allocator = std::move(alloc_);
  pool.calendar = calendar_.take_container();
  pool.retries = retries_.take_container();
}

Simulator::~Simulator() {
  if (config_.recycle != nullptr) return_buffers(*config_.recycle);
}

Simulator::Simulator(const Fabric& fabric, Scheduler& scheduler,
                     Config config)
    : fabric_(&fabric), scheduler_(&scheduler), config_(std::move(config)) {
  // Adopt before any container is touched so every resize/assign below
  // lands in recycled capacity instead of a fresh multi-megabyte mmap.
  if (config_.recycle != nullptr) adopt_buffers(*config_.recycle);
  capacities_.resize(fabric.topology().link_count());
  for (std::size_t i = 0; i < capacities_.size(); ++i)
    capacities_[i] = fabric.topology().link(LinkId{i}).capacity;
  // The plan is validated up front (fault/validation.h) so a bad config
  // throws a ConfigError listing every problem before any event executes —
  // never mid-run.
  validate_fault_plan(config_.faults, fabric.num_hosts(), capacities_.size());

  have_faults_ = !config_.faults.events.empty();
  if (have_faults_) {
    fault_events_ = config_.faults.events;
    std::stable_sort(fault_events_.begin(), fault_events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.time < b.time;
                     });
    host_down_.assign(fabric.num_hosts(), 0);
    straggler_.assign(fabric.num_hosts(), 1.0);
    link_down_.assign(capacities_.size(), 0);
    saved_capacity_.assign(capacities_.size(), 0.0);
  }
}

JobId Simulator::submit(const JobSpec& spec) {
  GURITA_CHECK_MSG(!ran_, "submit after run()");
  validate(spec, fabric_->num_hosts());
  return register_job(spec);
}

JobId Simulator::register_job(const JobSpec& spec) {
  const JobId jid{state_.jobs_.size()};
  SimJob job;
  job.id = jid;
  job.spec = spec;
  job.arrival_time = spec.arrival_time;
  job.stage_of = stages_of(spec);
  job.num_stages = 0;
  for (int s : job.stage_of) job.num_stages = std::max(job.num_stages, s);
  job.coflows_remaining = static_cast<int>(spec.coflows.size());
  job.total_bytes = spec.total_bytes();

  for (std::size_t i = 0; i < spec.coflows.size(); ++i) {
    const CoflowId cid{state_.coflows_.size()};
    SimCoflow c;
    c.id = cid;
    c.job = jid;
    c.index = static_cast<int>(i);
    c.stage = job.stage_of[i];
    c.deps_remaining = static_cast<int>(spec.deps[i].size());
    state_.coflows_.push_back(std::move(c));
    state_.aggregates_.emplace_back();
    job.coflows.push_back(cid);
  }
  state_.jobs_.push_back(std::move(job));
  return jid;
}

SimState::CoflowAggregate& Simulator::aggregate_of(const SimFlow& flow) {
  const CoflowId cid =
      state_.jobs_[flow.job.value()].coflows[flow.coflow_index];
  return state_.aggregates_[cid.value()];
}

void Simulator::settle(SimFlow& flow) {
  const Time elapsed = now_ - flow.last_touched;
  if (elapsed > 0 && flow.rate > 0) {
    if (config_.collect_link_stats) {
      for (LinkId l : flow.path)
        live_results_->link_bytes[l.value()] += flow.rate * elapsed;
    }
    const Bytes after = std::max(0.0, flow.remaining - flow.rate * elapsed);
    SimState::CoflowAggregate& agg = aggregate_of(flow);
    agg.base_bytes += flow.remaining - after;
    // The flow's rate·last_touched contribution moves to rate·now_, so the
    // aggregate's linear form keeps reporting the same bytes_sent(now_).
    agg.rate_time_sum += flow.rate * elapsed;
    flow.remaining = after;
  }
  flow.last_touched = now_;
}

void Simulator::set_rate(SimFlow& flow, Rate new_rate) {
  // Requires a settled flow (last_touched == now_), so the old rate's
  // drain has already been folded into the aggregate.
  SimState::CoflowAggregate& agg = aggregate_of(flow);
  agg.rate_sum += new_rate - flow.rate;
  agg.rate_time_sum += (new_rate - flow.rate) * now_;
  flow.rate = new_rate;
}

void Simulator::push_key(SimFlow& flow) {
  const std::uint32_t gen = ++gen_[flow.id.value()];
  if (flow.remaining <= kByteEpsilon) {
    // Already drained (zero-size flows, epsilon residue): due immediately.
    calendar_.push(CalendarEntry{now_, gen, flow.id});
  } else if (flow.rate > 0) {
    calendar_.push(
        CalendarEntry{now_ + flow.remaining / flow.rate, gen, flow.id});
  }
  // rate == 0 with real bytes left: no projected finish. The flow re-enters
  // the calendar when a recomputation next gives it a rate; if nothing ever
  // does (e.g. a dead link), the engine's stall guard fires as before.
}

void Simulator::remove_from_active(SimFlow& flow) {
  const std::uint32_t pos = pos_in_active_[flow.id.value()];
  SimFlow* last = active_.back();
  active_[pos] = last;
  pos_in_active_[last->id.value()] = pos;
  active_.pop_back();
  // Every departure path (finish, abort, job failure) funnels through
  // here, so this is the single point the allocator learns a flow left.
  alloc_.remove_flow(&flow);
}

void Simulator::release_coflow(SimCoflow& coflow) {
  obs::ScopedPhase phase(config_.profiler, obs::Phase::kDagRelease);
  GURITA_CHECK_MSG(!coflow.released(), "double release");
  const SimJob& job = state_.jobs_[coflow.job.value()];
  const CoflowSpec& spec = job.spec.coflows[coflow.index];

  coflow.release_time = now_;
  coflow.flows_remaining = static_cast<int>(spec.flows.size());
  obs::TraceRecorder* tr = config_.trace;
  if (tr && tr->wants(obs::TraceEventKind::kCoflowRelease)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kCoflowRelease;
    r.time = now_;
    r.job = coflow.job.value();
    r.coflow = coflow.id.value();
    r.i0 = coflow.stage;
    r.i1 = static_cast<std::int32_t>(spec.flows.size());
    tr->emit(r);
  }
  SimState::CoflowAggregate& agg = state_.aggregates_[coflow.id.value()];
  for (const FlowSpec& fs : spec.flows) {
    GURITA_CHECK_MSG(state_.flows_.size() < state_.flows_.capacity(),
                     "flow store would reallocate under the active list");
    const FlowId fid{state_.flows_.size()};
    SimFlow f;
    f.id = fid;
    f.job = coflow.job;
    f.coflow_index = coflow.index;
    f.src_host = fs.src_host;
    f.dst_host = fs.dst_host;
    f.size = fs.size;
    f.remaining = fs.size;
    f.start_time = now_;
    f.last_touched = now_;
    f.path = fabric_->route(fid, fs.src_host, fs.dst_host);
    state_.flows_.push_back(std::move(f));
    coflow.flows.push_back(fid);

    SimFlow& stored = state_.flows_.back();
    pos_in_active_.push_back(static_cast<std::uint32_t>(active_.size()));
    gen_.push_back(0);
    active_.push_back(&stored);
    alloc_.add_flow(&stored);
    ++agg.open_connections;
    push_key(stored);
    ++live_results_->flow_touches;
    if (tr && tr->wants(obs::TraceEventKind::kFlowRelease)) {
      obs::TraceRecord r;
      r.kind = obs::TraceEventKind::kFlowRelease;
      r.time = now_;
      r.job = coflow.job.value();
      r.coflow = coflow.id.value();
      r.flow = fid.value();
      r.i0 = fs.src_host;
      r.i1 = fs.dst_host;
      r.v0 = fs.size;
      tr->emit(r);
    }
    // A flow born onto a dead host or link cannot transmit: it parks
    // immediately (no retry attempt consumed — park-at-release is the
    // fault's fault, not the flow's) and re-enters on recovery.
    if (have_faults_ && flow_blocked(stored)) {
      const FaultKind cause =
          (host_down_[stored.src_host] || host_down_[stored.dst_host])
              ? FaultKind::kHostDown
              : FaultKind::kLinkDown;
      abort_flow(stored, cause, /*count_attempt=*/false);
    }
  }
  scheduler_->on_coflow_release(coflow, now_);
}

void Simulator::finish_coflow(SimCoflow& coflow) {
  coflow.finish_time = now_;
  obs::TraceRecorder* tr = config_.trace;
  if (tr && tr->wants(obs::TraceEventKind::kCoflowFinish)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kCoflowFinish;
    r.time = now_;
    r.job = coflow.job.value();
    r.coflow = coflow.id.value();
    r.i0 = coflow.stage;
    r.v0 = coflow.release_time;
    tr->emit(r);
  }
  scheduler_->on_coflow_finish(coflow, now_);

  SimJob& job = state_.jobs_[coflow.job.value()];
  --job.coflows_remaining;
  const int prev_stages = job.completed_stages;

  // Release dependents whose dependencies are now all complete.
  const JobSpec& spec = job.spec;
  for (std::size_t i = 0; i < spec.coflows.size(); ++i) {
    SimCoflow& cand = state_.coflows_[job.coflows[i].value()];
    if (cand.released()) continue;
    bool depends = false;
    for (int d : spec.deps[i]) {
      if (d == coflow.index) {
        depends = true;
        break;
      }
    }
    if (!depends) continue;
    if (--cand.deps_remaining == 0) release_coflow(cand);
  }

  if (job.coflows_remaining == 0) {
    job.finish_time = now_;
    job.completed_stages = job.num_stages;
    scheduler_->on_job_finish(job, now_);
  } else {
    // Update completed stages by scanning (jobs are small DAGs; this is
    // O(coflows) on coflow completion only).
    int k = job.num_stages;
    for (std::size_t i = 0; i < job.coflows.size(); ++i) {
      const SimCoflow& c = state_.coflows_[job.coflows[i].value()];
      if (!c.finished()) k = std::min(k, job.stage_of[i] - 1);
    }
    job.completed_stages = k;
  }
  if (tr != nullptr) {
    if (job.completed_stages > prev_stages &&
        tr->wants(obs::TraceEventKind::kStageComplete)) {
      obs::TraceRecord r;
      r.kind = obs::TraceEventKind::kStageComplete;
      r.time = now_;
      r.job = job.id.value();
      r.i0 = job.completed_stages;
      tr->emit(r);
    }
    if (job.finished() && tr->wants(obs::TraceEventKind::kJobFinish)) {
      obs::TraceRecord r;
      r.kind = obs::TraceEventKind::kJobFinish;
      r.time = now_;
      r.job = job.id.value();
      r.v0 = job.arrival_time;
      tr->emit(r);
    }
  }
}

void Simulator::finish_flow(SimFlow& flow) {
  settle(flow);
  set_rate(flow, 0.0);
  SimState::CoflowAggregate& agg = aggregate_of(flow);
  // The negligible residual (completion predicate) counts as delivered, so
  // a finished flow reports bytes_sent() == size, as before.
  agg.base_bytes += flow.remaining;
  flow.remaining = 0;
  agg.ell_max_settled = std::max(agg.ell_max_settled, flow.size);
  --agg.open_connections;
  ++gen_[flow.id.value()];  // invalidate any pending calendar entry
  remove_from_active(flow);
  flow.finish_time = now_;
  // Bytes this flow lost to aborts were all re-sent by the time it finished.
  live_results_->bytes_retransmitted += flow.lost_bytes;
  ++live_results_->flow_touches;
  obs::TraceRecorder* tr = config_.trace;
  if (tr && tr->wants(obs::TraceEventKind::kFlowFinish)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kFlowFinish;
    r.time = now_;
    r.job = flow.job.value();
    r.coflow =
        state_.jobs_[flow.job.value()].coflows[flow.coflow_index].value();
    r.flow = flow.id.value();
    r.v0 = flow.size;
    tr->emit(r);
  }

  SimCoflow& coflow =
      state_.coflows_[state_.jobs_[flow.job.value()].coflows[flow.coflow_index].value()];
  --coflow.flows_remaining;
  scheduler_->on_flow_finish(flow, now_);
  if (coflow.flows_remaining == 0) finish_coflow(coflow);
}

void Simulator::arrive_job(SimJob& job) {
  if (config_.trace &&
      config_.trace->wants(obs::TraceEventKind::kJobArrival)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kJobArrival;
    r.time = now_;
    r.job = job.id.value();
    r.i0 = job.num_stages;
    config_.trace->emit(r);
  }
  scheduler_->on_job_arrival(job, now_);
  for (std::size_t i = 0; i < job.coflows.size(); ++i) {
    SimCoflow& c = state_.coflows_[job.coflows[i].value()];
    if (c.deps_remaining == 0) release_coflow(c);
  }
}

// --- run-loop decomposition --------------------------------------------------
//
// A run is prepare(), then one event at a time, then collect(). Every event
// goes through one boundary: next_event() brings the rates up to date and
// returns the time of the next event, counting and advancing nothing, and
// execute(t) moves the clock to t and runs that event. run(), run_until(),
// finish() and run_to() are loops over this pair, so each pause lands on
// that boundary with no phase open. Loop-carried state lives in members,
// which checkpoint() serializes; restore() plus any drive call continues
// byte-identically.

void Simulator::prepare_structures() {
  // Hand the recorder to the scheduler so its decision records (queue
  // transitions, WRR weights) interleave with engine records in emission
  // order. Only wired when tracing is on, so a scheduler driven by another
  // engine (the differential oracle) can be given a recorder directly.
  if (config_.trace != nullptr)
    scheduler_->set_trace_recorder(config_.trace);
  scheduler_->attach(state_);

  // active_ holds raw pointers into flows_; reserve the backing store up
  // front so it never reallocates mid-run.
  std::size_t total_flows = 0;
  for (const SimJob& j : state_.jobs_)
    for (const CoflowSpec& c : j.spec.coflows) total_flows += c.flows.size();
  flows_reserved_ = total_flows;
  state_.flows_.reserve(total_flows);
  pos_in_active_.reserve(total_flows);
  gen_.reserve(total_flows);
  alloc_.reset(&fabric_->topology(), total_flows);
  capped_.clear();

  arrival_order_.clear();
  arrival_order_.reserve(state_.jobs_.size());
  for (const SimJob& j : state_.jobs_) arrival_order_.push_back(j.id);
  std::sort(arrival_order_.begin(), arrival_order_.end(),
            [this](JobId a, JobId b) {
              const Time ta = state_.jobs_[a.value()].arrival_time;
              const Time tb = state_.jobs_[b.value()].arrival_time;
              if (ta != tb) return ta < tb;
              return a < b;
            });

  tick_ = scheduler_->tick_interval();
  GURITA_CHECK_MSG(tick_ >= 0, "negative tick interval");

  live_results_ = &results_;
}

void Simulator::prepare() {
  GURITA_CHECK_MSG(!ran_, "run() called twice");
  GURITA_CHECK_MSG(config_.sampler == nullptr || config_.trace != nullptr,
                   "interval sampler requires a trace recorder");
  ran_ = true;
  prepared_ = true;
  if (config_.sampler != nullptr) config_.sampler->start_wall();
  obs::PhaseProfiler* prof = config_.profiler;
  if (prof != nullptr) prof->begin_run();
  const int setup_prev =
      prof != nullptr ? prof->enter(obs::Phase::kSetup) : -1;
  prepare_structures();
  next_arrival_ = 0;
  next_tick_ = std::numeric_limits<Time>::infinity();
  iterations_ = 0;
  dirty_ = true;
  if (config_.collect_link_stats)
    results_.link_bytes.assign(fabric_->topology().link_count(), 0.0);
  if (prof != nullptr) prof->leave(setup_prev);
}

Time Simulator::next_wakeup() const {
  const Time t_arr =
      next_arrival_ < arrival_order_.size()
          ? state_.jobs_[arrival_order_[next_arrival_].value()].arrival_time
          : std::numeric_limits<Time>::infinity();
  if (!have_faults_) return t_arr;
  const Time t_fault = next_fault_ < fault_events_.size()
                           ? fault_events_[next_fault_].time
                           : std::numeric_limits<Time>::infinity();
  return std::min({t_arr, t_fault, next_retry_time()});
}

Time Simulator::next_event() {
  if (active_.empty()) {
    // Idle network: the next event is whatever wakes it. Parked flows that
    // nothing in the plan will ever wake are failed by an event at the
    // current clock (execute() spots that case the same way).
    const Time t_idle = next_wakeup();
    return std::isfinite(t_idle) ? t_idle : now_;
  }
  obs::PhaseProfiler* prof = config_.profiler;
  if (dirty_) {
    {
      obs::ScopedPhase assign_phase(prof, obs::Phase::kSchedulerAssign);
      scheduler_->assign(now_, active_);
    }
    obs::ScopedPhase alloc_phase(prof, obs::Phase::kAllocator);
    // Capped flows carry a stored rate below their pure allocation, so
    // the unchanged-component cache must not skip them: re-dirty their
    // links so the allocator re-reports them (allocation != stored rate),
    // exactly as a from-scratch re-solve does every recomputation.
    for (const FlowId fid : capped_)
      alloc_.touch_flow(&state_.flows_[fid.value()]);
    capped_.clear();
    alloc_.allocate(capacities_, active_, &rate_changes_, prof);
    ++results_.rate_recomputations;
    // Only flows whose rate actually moved need settling and a new
    // calendar entry; everything else keeps draining on its old line.
    for (const RateChange& rc : rate_changes_) {
      SimFlow& f = *rc.flow;
      const Rate allocated = f.rate;  // the allocator's pure output
      Rate target = allocated;
      f.rate = rc.old_rate;  // restore: the flow drained at the old rate
      settle(f);
      // Straggler windows cap a touching flow at factor × allocation.
      // Unlike the TCP ramp the cap is constant while the window lasts,
      // so no refresh loop: straggler start/end marks dirty and forces
      // affected flows into this report (see apply_fault).
      if (have_faults_) {
        const double sf =
            std::min(straggler_[f.src_host], straggler_[f.dst_host]);
        if (sf < 1.0) target *= sf;
      }
      // TCP slow-start ramp: cap the flow at its window-growth rate. A
      // capped flow's allowance grows as it sends, so while any flow is
      // capped the engine refreshes rates at ramp-time granularity. A
      // flow whose allocation did not change cannot become newly capped:
      // the cap is non-decreasing in bytes sent, and its current rate
      // already satisfied the older, smaller cap.
      if (config_.tcp_ramp_time > 0) {
        const Rate cap = (config_.tcp_initial_window + f.bytes_sent()) /
                         config_.tcp_ramp_time;
        if (target > cap) {
          target = cap;
          ramp_due_ = true;
        }
      }
      set_rate(f, target);
      push_key(f);
      if (target != allocated) capped_.push_back(f.id);
      ++results_.flow_touches;
      if (config_.trace &&
          config_.trace->wants(obs::TraceEventKind::kFlowRateChange)) {
        obs::TraceRecord r;
        r.kind = obs::TraceEventKind::kFlowRateChange;
        r.time = now_;
        r.job = f.job.value();
        r.coflow = state_.jobs_[f.job.value()].coflows[f.coflow_index].value();
        r.flow = f.id.value();
        r.v0 = rc.old_rate;
        r.v1 = target;
        config_.trace->emit(r);
      }
    }
    dirty_ = false;
  }

  obs::ScopedPhase drain_phase(prof, obs::Phase::kCalendarDrain);
  // Next completion: discard stale calendar tops (their flow's rate
  // changed since the entry was pushed, or the flow already finished),
  // then the top key is the earliest projected finish.
  while (!calendar_.empty() &&
         calendar_.top().gen != gen_[calendar_.top().flow.value()]) {
    calendar_.pop();
    ++results_.flow_touches;
  }
  const Time t_complete = calendar_.empty()
                              ? std::numeric_limits<Time>::infinity()
                              : calendar_.top().key;
  const Time t_tick =
      tick_ > 0 ? next_tick_ : std::numeric_limits<Time>::infinity();
  Time t_next = std::min({t_complete, next_wakeup(), t_tick});
  // Refresh while ramping so capped flows pick up their grown windows.
  if (ramp_due_) t_next = std::min(t_next, now_ + config_.tcp_ramp_time);
  GURITA_CHECK_MSG(std::isfinite(t_next),
                   "simulation stalled: active flows but no next event");
  return t_next;
}

void Simulator::execute(Time t) {
  obs::PhaseProfiler* prof = config_.profiler;
  if (++iterations_ > config_.max_iterations) {
    std::ostringstream os;
    os << "simulation live-lock guard tripped: now=" << now_
       << " active_flows=" << active_.size()
       << " pending_arrivals=" << (arrival_order_.size() - next_arrival_)
       << " recomputations=" << results_.rate_recomputations;
    throw std::logic_error(os.str());
  }
  ++results_.events;
  // A ramp-capped allocation is refreshed at the next event.
  if (ramp_due_) dirty_ = true;
  ramp_due_ = false;

  if (active_.empty()) {
    obs::ScopedPhase arrival_phase(prof, obs::Phase::kArrival);
    if (!std::isfinite(next_wakeup())) {
      // Flows are parked but nothing in the plan will ever wake them:
      // their jobs can never finish, so fail them instead of spinning.
      fail_stranded_jobs();
    } else {
      now_ = std::max(now_, t);
      state_.now_ = now_;
      // Fault state must be current before any flow releases (a job
      // arriving onto a crashed host parks its flows at release).
      if (have_faults_) {
        apply_due_faults();
        fire_due_retries();
      }
      while (next_arrival_ < arrival_order_.size()) {
        SimJob& j = state_.jobs_[arrival_order_[next_arrival_].value()];
        if (j.arrival_time > now_ + kTimeEpsilon) break;
        ++next_arrival_;
        arrive_job(j);
      }
      if (tick_ > 0) next_tick_ = now_ + tick_;
      dirty_ = true;
    }
  } else {
    GURITA_CHECK_MSG(t <= config_.max_time, "simulation exceeded max_time");
    const int drain_prev =
        prof != nullptr ? prof->enter(obs::Phase::kCalendarDrain) : -1;
    // No per-flow drain sweep: every flow keeps draining linearly from its
    // (last_touched, rate) settle point; advancing the clock is O(1).
    now_ = std::max(t, now_);
    state_.now_ = now_;
    // Faults and retries fire before completion processing: a flow whose
    // host dies at the very instant it would have finished is aborted (the
    // pop loop then discards its stale calendar entry). "Fault beats
    // completion" keeps the tie-break deterministic and pessimistic.
    if (have_faults_) {
      apply_due_faults();
      fire_due_retries();
    }

    // Completions (deterministic order: ascending flow id). A flow is done
    // when its residual bytes are negligible OR its residual transfer time
    // falls below the clock's floating-point resolution at `now_` — without
    // the second clause a nearly-drained flow whose remaining/rate is
    // smaller than one ulp of now_ would stall the clock forever. Calendar
    // keys are projected zero-drain times, so due entries form a prefix of
    // the heap order and the pop loop stops at the first entry still in the
    // future.
    const Time quantum = std::max(1.0, now_) * 1e-12;
    done_.clear();
    while (!calendar_.empty()) {
      const CalendarEntry top = calendar_.top();
      if (top.gen != gen_[top.flow.value()]) {
        calendar_.pop();
        ++results_.flow_touches;
        continue;
      }
      const SimFlow& f = state_.flows_[top.flow.value()];
      const Bytes rem = f.remaining_at(now_);
      if (!(rem <= kByteEpsilon || rem <= f.rate * quantum)) break;
      calendar_.pop();
      ++results_.flow_touches;
      done_.push_back(top.flow);
    }
    if (prof != nullptr) prof->leave(drain_prev);
    if (!done_.empty()) {
      obs::ScopedPhase completion_phase(prof, obs::Phase::kCompletion);
      std::sort(done_.begin(), done_.end());
      for (FlowId id : done_) {
        // A completion-tied fault may have aborted or cancelled the flow
        // after its entry was popped above; skip it (gen was bumped, but
        // the pop happened first).
        SimFlow& f = state_.flows_[id.value()];
        if (f.finished() || f.cancelled || f.abort_time >= 0) continue;
        finish_flow(f);
      }
      dirty_ = true;
    }

    // Arrivals due now.
    if (next_arrival_ < arrival_order_.size()) {
      obs::ScopedPhase arrival_phase(prof, obs::Phase::kArrival);
      while (next_arrival_ < arrival_order_.size()) {
        SimJob& j = state_.jobs_[arrival_order_[next_arrival_].value()];
        if (j.arrival_time > now_ + kTimeEpsilon) break;
        ++next_arrival_;
        arrive_job(j);
        dirty_ = true;
      }
    }

    // Coordination tick; only a changed priority forces a rate recompute.
    if (tick_ > 0 && now_ + kTimeEpsilon >= next_tick_) {
      obs::ScopedPhase tick_phase(prof, obs::Phase::kTick);
      if (scheduler_->on_tick(now_)) dirty_ = true;
      next_tick_ += tick_;
    }
  }
  // Poll after the event body so every kind of event hits the same poll
  // point an uninterrupted run does.
  if (config_.sampler != nullptr) poll_sampler();
}

void Simulator::poll_sampler() {
  obs::IntervalSampler& sampler = *config_.sampler;
  if (sampler.next_due() > now_) return;
  obs::ScopedPhase sample_phase(config_.profiler, obs::Phase::kSampling);

  // Every field below is a pure function of (serialized state, now_):
  // counters from results_, logical container sizes and live-entity counts
  // — identical across worker counts and checkpoint/restore splits.
  obs::IntervalSampler::SimSample sim;
  sim.events = results_.events;
  sim.flow_touches = results_.flow_touches;
  sim.rate_recomputations = results_.rate_recomputations;
  sim.active_flows = active_.size();
  for (const SimCoflow& c : state_.coflows_)
    if (c.released() && !c.finished()) ++sim.active_coflows;
  for (const SimJob& j : state_.jobs_)
    if (j.arrival_time <= now_ + kTimeEpsilon && !j.finished())
      ++sim.active_jobs;
  sim.calendar_entries = calendar_.size();
  sim.trace_records = config_.trace->records().size();

  obs::IntervalSampler::MemSample mem;
  mem.state_bytes = state_.flows_.size() * sizeof(SimFlow) +
                    state_.coflows_.size() * sizeof(SimCoflow) +
                    state_.jobs_.size() * sizeof(SimJob) +
                    state_.aggregates_.size() *
                        sizeof(SimState::CoflowAggregate);
  mem.calendar_bytes = calendar_.size() * sizeof(CalendarEntry);
  mem.retry_bytes = retries_.size() * sizeof(RetryEntry) +
                    parked_.size() * sizeof(FlowId);
  mem.active_set_bytes = active_.size() * sizeof(SimFlow*) +
                         pos_in_active_.size() * sizeof(std::uint32_t) +
                         gen_.size() * sizeof(std::uint32_t);

  // The clock can jump several boundaries in one event (idle gaps); each
  // gets its own sample, stamped at its grid time. Trace size moves as
  // samples are emitted, so it is refreshed per boundary.
  while (sampler.next_due() <= now_) {
    mem.trace_bytes =
        config_.trace->records().size() * sizeof(obs::TraceRecord);
    sim.trace_records = config_.trace->records().size();
    sampler.emit(*config_.trace, sim, mem);
  }
  if (config_.memory != nullptr) account_memory();
}

void Simulator::account_memory() {
  obs::MemoryAccountant& acct = *config_.memory;
  using S = obs::MemoryAccountant::Subsystem;

  std::size_t state_bytes =
      state_.flows_.capacity() * sizeof(SimFlow) +
      state_.coflows_.capacity() * sizeof(SimCoflow) +
      state_.jobs_.capacity() * sizeof(SimJob) +
      state_.aggregates_.capacity() * sizeof(SimState::CoflowAggregate);
  for (const SimFlow& f : state_.flows_)
    state_bytes += f.path.capacity() * sizeof(LinkId);
  for (const SimCoflow& c : state_.coflows_)
    state_bytes += c.flows.capacity() * sizeof(FlowId);
  acct.observe(S::kState, state_bytes);

  acct.observe(S::kCalendar,
               calendar_.container().capacity() * sizeof(CalendarEntry));
  acct.observe(S::kAllocator, alloc_.memory_bytes());
  acct.observe(S::kTrace,
               config_.trace != nullptr
                   ? config_.trace->records().capacity() *
                         sizeof(obs::TraceRecord)
                   : 0);
  acct.observe(S::kActiveSet,
               active_.capacity() * sizeof(SimFlow*) +
                   pos_in_active_.capacity() * sizeof(std::uint32_t) +
                   gen_.capacity() * sizeof(std::uint32_t) +
                   done_.capacity() * sizeof(FlowId) +
                   capped_.capacity() * sizeof(FlowId) +
                   rate_changes_.capacity() * sizeof(RateChange));
  acct.observe(S::kFaultRuntime,
               fault_events_.capacity() * sizeof(FaultEvent) +
                   host_down_.capacity() + link_down_.capacity() +
                   straggler_.capacity() * sizeof(double) +
                   saved_capacity_.capacity() * sizeof(Rate) +
                   parked_.capacity() * sizeof(FlowId) +
                   retries_.container().capacity() * sizeof(RetryEntry));
}

SimResults Simulator::collect() {
  GURITA_CHECK_MSG(prepared_ && !collected_, "collect before the run drained");
  collected_ = true;
  if (config_.memory != nullptr) account_memory();
  obs::PhaseProfiler* prof = config_.profiler;
  const int results_prev =
      prof != nullptr ? prof->enter(obs::Phase::kResults) : -1;
  results_.makespan = now_;
  results_.jobs.reserve(state_.jobs_.size());
  for (const SimJob& j : state_.jobs_) {
    // Failed jobs set finish_time at abandonment, so every job has a
    // terminal timestamp here either way.
    GURITA_CHECK_MSG(j.finished(), "job left unfinished at end of run");
    SimResults::JobResult jr{j.id, j.arrival_time, j.finish_time,
                             j.total_bytes, j.num_stages};
    jr.failed = j.failed;
    results_.jobs.push_back(jr);
  }
  results_.coflows.reserve(state_.coflows_.size());
  for (const SimCoflow& c : state_.coflows_) {
    SimResults::CoflowResult cr{c.id,          c.job,
                                c.stage,       c.release_time,
                                c.finish_time, state_.coflow_total_bytes(c.id)};
    cr.failed = state_.jobs_[c.job.value()].failed && !c.finished();
    results_.coflows.push_back(cr);
  }
  live_results_ = nullptr;
  if (prof != nullptr) {
    prof->leave(results_prev);
    prof->end_run();
  }
  return std::move(results_);
}

SimResults Simulator::run() {
  prepare();
  return finish();
}

bool Simulator::run_until(Time deadline) {
  if (!prepared_) prepare();
  GURITA_CHECK_MSG(!collected_, "run_until after results were collected");
  while (pending() && now_ < deadline) execute(next_event());
  return pending();
}

SimResults Simulator::finish() {
  GURITA_CHECK_MSG(prepared_, "finish() before run_until()/restore()");
  (void)run_to(std::numeric_limits<Time>::infinity());
  return collect();
}

// --- open-horizon extension (streaming admission; DESIGN.md §15) -------------

bool Simulator::run_to(Time bound) {
  if (!prepared_) prepare();
  GURITA_CHECK_MSG(!collected_, "run_to after results were collected");
  while (pending()) {
    const Time t = next_event();
    if (t >= bound) break;
    execute(t);
  }
  return pending();
}

JobId Simulator::admit(const JobSpec& spec) {
  GURITA_CHECK_MSG(prepared_ && !collected_,
                   "admit() outside an open run (prepare/restore first)");
  validate(spec, fabric_->num_hosts());

  std::size_t spec_flows = 0;
  for (const CoflowSpec& c : spec.coflows) spec_flows += c.flows.size();
  flows_reserved_ += spec_flows;
  if (flows_reserved_ > state_.flows_.capacity()) grow_flow_store();
  pos_in_active_.reserve(flows_reserved_);
  gen_.reserve(flows_reserved_);

  const JobId jid = register_job(spec);

  // Keep the unconsumed suffix of the arrival order sorted by
  // (arrival_time, id) — the invariant prepare_structures establishes. The
  // new id is the largest, so among equal arrival times it goes last.
  const Time at = state_.jobs_[jid.value()].arrival_time;
  const auto begin = arrival_order_.begin() +
                     static_cast<std::ptrdiff_t>(next_arrival_);
  const auto pos = std::lower_bound(
      begin, arrival_order_.end(), at, [this](JobId a, Time t) {
        return state_.jobs_[a.value()].arrival_time <= t;
      });
  arrival_order_.insert(pos, jid);
  return jid;
}

void Simulator::grow_flow_store() {
  // Reallocation moves every SimFlow, so raw pointers into the store (the
  // active set, the allocator's membership lists) must be re-seeded. The
  // rebuild is a pure re-solve: the next allocation recomputes every
  // component from the same stored rates and reports exactly the changes
  // the incremental path would have — byte-identical results (the same
  // argument that makes restore() exact).
  std::vector<FlowId> active_ids;
  active_ids.reserve(active_.size());
  for (const SimFlow* f : active_) active_ids.push_back(f->id);
  const std::size_t target =
      std::max(flows_reserved_, 2 * state_.flows_.capacity());
  state_.flows_.reserve(target);
  for (std::size_t i = 0; i < active_ids.size(); ++i)
    active_[i] = &state_.flows_[active_ids[i].value()];
  alloc_.rebuild(active_);
}

Simulator::Compaction Simulator::compact() {
  GURITA_CHECK_MSG(prepared_ && !collected_,
                   "compact() outside an open run");
  Compaction out;
  CompactionRemap remap;

  // Survivors: every job not yet terminal. Terminal (finished or failed)
  // jobs have no active, parked or retrying flows left, so eviction never
  // touches live engine state. Renumbering is monotone (stable compaction).
  remap.job_map.assign(state_.jobs_.size(), CompactionRemap::kEvicted);
  std::uint64_t next_job = 0;
  for (const SimJob& j : state_.jobs_)
    if (!j.finished()) remap.job_map[j.id.value()] = next_job++;
  out.jobs_evicted = state_.jobs_.size() - next_job;
  if (out.jobs_evicted == 0) return out;  // nothing to do

  remap.coflow_map.assign(state_.coflows_.size(), CompactionRemap::kEvicted);
  std::uint64_t next_coflow = 0;
  for (const SimCoflow& c : state_.coflows_)
    if (remap.job_map[c.job.value()] != CompactionRemap::kEvicted)
      remap.coflow_map[c.id.value()] = next_coflow++;
  out.coflows_evicted = state_.coflows_.size() - next_coflow;

  remap.flow_map.assign(state_.flows_.size(), CompactionRemap::kEvicted);
  std::uint64_t next_flow = 0;
  for (const SimFlow& f : state_.flows_)
    if (remap.job_map[f.job.value()] != CompactionRemap::kEvicted)
      remap.flow_map[f.id.value()] = next_flow++;
  out.flows_evicted = state_.flows_.size() - next_flow;

  // Harvest the evicted results exactly as collect() reports them, before
  // the stores move (coflow_total_bytes reads the owning job's spec).
  out.jobs.reserve(out.jobs_evicted);
  for (const SimJob& j : state_.jobs_) {
    if (remap.job_map[j.id.value()] != CompactionRemap::kEvicted) continue;
    SimResults::JobResult jr{j.id, j.arrival_time, j.finish_time,
                             j.total_bytes, j.num_stages};
    jr.failed = j.failed;
    out.jobs.push_back(jr);
  }
  out.coflows.reserve(out.coflows_evicted);
  for (const SimCoflow& c : state_.coflows_) {
    if (remap.coflow_map[c.id.value()] != CompactionRemap::kEvicted) continue;
    SimResults::CoflowResult cr{c.id,          c.job,
                                c.stage,       c.release_time,
                                c.finish_time, state_.coflow_total_bytes(c.id)};
    cr.failed = state_.jobs_[c.job.value()].failed && !c.finished();
    out.coflows.push_back(cr);
  }

  // Flows: stable in-place compaction; pos/gen stay parallel. Active flows
  // all belong to surviving jobs, so none is evicted.
  std::vector<FlowId> active_ids;
  active_ids.reserve(active_.size());
  for (const SimFlow* f : active_) active_ids.push_back(f->id);
  std::size_t w = 0;
  for (std::size_t i = 0; i < state_.flows_.size(); ++i) {
    if (remap.flow_map[i] == CompactionRemap::kEvicted) continue;
    if (w != i) {
      state_.flows_[w] = std::move(state_.flows_[i]);
      pos_in_active_[w] = pos_in_active_[i];
      gen_[w] = gen_[i];
    }
    SimFlow& f = state_.flows_[w];
    f.id = FlowId{w};
    f.job = JobId{remap.job_map[f.job.value()]};
    ++w;
  }
  state_.flows_.resize(w);
  pos_in_active_.resize(w);
  gen_.resize(w);

  // Coflows + aggregates (parallel arrays).
  w = 0;
  for (std::size_t i = 0; i < state_.coflows_.size(); ++i) {
    if (remap.coflow_map[i] == CompactionRemap::kEvicted) continue;
    if (w != i) {
      state_.coflows_[w] = std::move(state_.coflows_[i]);
      state_.aggregates_[w] = state_.aggregates_[i];
    }
    SimCoflow& c = state_.coflows_[w];
    c.id = CoflowId{w};
    c.job = JobId{remap.job_map[c.job.value()]};
    for (FlowId& fid : c.flows) fid = FlowId{remap.flow_map[fid.value()]};
    ++w;
  }
  state_.coflows_.resize(w);
  state_.aggregates_.resize(w);

  // Jobs (specs are retained — snapshots resubmit them on recovery).
  w = 0;
  for (std::size_t i = 0; i < state_.jobs_.size(); ++i) {
    if (remap.job_map[i] == CompactionRemap::kEvicted) continue;
    if (w != i) state_.jobs_[w] = std::move(state_.jobs_[i]);
    SimJob& j = state_.jobs_[w];
    j.id = JobId{w};
    for (CoflowId& cid : j.coflows)
      cid = CoflowId{remap.coflow_map[cid.value()]};
    ++w;
  }
  state_.jobs_.resize(w);

  // Flow-store reservation: released survivors plus the unreleased flows
  // of surviving jobs. Shrink the heavyweight stores once their capacity
  // dwarfs what steady state needs — the trigger and target are pure
  // functions of logical sizes, so reserved footprint stays deterministic.
  flows_reserved_ = state_.flows_.size();
  for (const SimJob& j : state_.jobs_)
    for (CoflowId cid : j.coflows) {
      const SimCoflow& c = state_.coflows_[cid.value()];
      if (!c.released())
        flows_reserved_ += j.spec.coflows[c.index].flows.size();
    }
  const auto shrink = [](auto& v, std::size_t need) {
    using V = std::remove_reference_t<decltype(v)>;
    const std::size_t floor = std::max<std::size_t>(need, 64);
    if (v.capacity() <= 4 * floor) return;
    V tmp;
    tmp.reserve(2 * floor);
    for (auto& e : v) tmp.push_back(std::move(e));
    v = std::move(tmp);
  };
  shrink(state_.flows_, flows_reserved_);
  shrink(state_.coflows_, state_.coflows_.size());
  shrink(state_.aggregates_, state_.aggregates_.size());
  shrink(state_.jobs_, state_.jobs_.size());
  shrink(pos_in_active_, flows_reserved_);
  shrink(gen_, flows_reserved_);

  // Re-point the active set (same order) at the moved flows.
  for (std::size_t i = 0; i < active_ids.size(); ++i)
    active_[i] =
        &state_.flows_[remap.flow_map[active_ids[i].value()]];

  // Calendar: drop entries of evicted flows (all stale — their flows
  // finished, which bumped gen), remap the rest and re-heapify. Stale
  // entries of *surviving* flows are kept so their eventual pops count
  // flow_touches exactly as without compaction. Equal-key layout changes
  // cannot affect results: every due entry pops regardless of order and
  // completions are processed in sorted flow-id order.
  std::vector<CalendarEntry> cal = calendar_.take_container();
  w = 0;
  for (CalendarEntry& e : cal) {
    const std::uint64_t nf = remap.flow_map[e.flow.value()];
    if (nf == CompactionRemap::kEvicted) continue;
    e.flow = FlowId{nf};
    cal[w++] = e;
  }
  cal.resize(w);
  shrink(cal, cal.size());
  std::make_heap(cal.begin(), cal.end(), CalendarLater{});
  calendar_.restore(std::move(cal));

  // Retry heap and parking lot: entries of evicted (cancelled) flows drop,
  // survivors remap; parked keeps its order.
  if (have_faults_ || !retries_.empty() || !parked_.empty()) {
    std::vector<RetryEntry> rt = retries_.take_container();
    w = 0;
    for (RetryEntry& e : rt) {
      const std::uint64_t nf = remap.flow_map[e.flow.value()];
      if (nf == CompactionRemap::kEvicted) continue;
      e.flow = FlowId{nf};
      rt[w++] = e;
    }
    rt.resize(w);
    std::make_heap(rt.begin(), rt.end(), RetryLater{});
    retries_.restore(std::move(rt));

    w = 0;
    for (const FlowId fid : parked_) {
      const std::uint64_t nf = remap.flow_map[fid.value()];
      if (nf == CompactionRemap::kEvicted) continue;
      parked_[w++] = FlowId{nf};
    }
    parked_.resize(w);
  }

  // Capped flows (stored rate below pure allocation): finished ones drop,
  // survivors remap. done_ is per-event scratch; clear defensively.
  w = 0;
  for (const FlowId fid : capped_) {
    const std::uint64_t nf = remap.flow_map[fid.value()];
    if (nf == CompactionRemap::kEvicted) continue;
    capped_[w++] = FlowId{nf};
  }
  capped_.resize(w);
  done_.clear();

  // Arrival cursor: every evicted job had arrived (it finished), so the
  // consumed prefix shrinks by exactly the eviction count. Monotone
  // renumbering keeps the filtered order sorted by (arrival_time, id) —
  // the same order a restore-side recomputation produces.
  w = 0;
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < arrival_order_.size(); ++i) {
    const std::uint64_t nj = remap.job_map[arrival_order_[i].value()];
    if (nj == CompactionRemap::kEvicted) continue;
    if (i < next_arrival_) ++consumed;
    arrival_order_[w++] = JobId{nj};
  }
  arrival_order_.resize(w);
  next_arrival_ = consumed;

  // The allocator holds raw flow pointers and id-indexed arrays: re-seed
  // it from the compacted active set. Pure re-solve, identical rates.
  alloc_.rebuild(active_);
  scheduler_->on_compact(remap);

  obs::TraceRecorder* tr = config_.trace;
  if (tr && tr->wants(obs::TraceEventKind::kCompact)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kCompact;
    r.time = now_;
    r.i0 = static_cast<std::int32_t>(out.jobs_evicted);
    r.i1 = static_cast<std::int32_t>(out.coflows_evicted);
    r.i2 = static_cast<std::int32_t>(out.flows_evicted);
    r.v0 = static_cast<double>(state_.jobs_.size());
    tr->emit(r);
  }
  return out;
}

// --- fault injection (fault/fault.h, DESIGN.md §11) -------------------------

bool Simulator::flow_blocked(const SimFlow& flow) const {
  if (host_down_[flow.src_host] || host_down_[flow.dst_host]) return true;
  for (LinkId l : flow.path)
    if (link_down_[l.value()]) return true;
  return false;
}

Time Simulator::next_retry_time() const {
  // The top entry may belong to a cancelled flow; fire_due_retries pops and
  // skips those, so using its time here costs at most a no-op wakeup.
  return retries_.empty() ? std::numeric_limits<Time>::infinity()
                          : retries_.top().time;
}

void Simulator::abort_flow(SimFlow& flow, FaultKind cause,
                           bool count_attempt) {
  settle(flow);
  set_rate(flow, 0.0);
  const Bytes sent = flow.size - flow.remaining;
  SimState::CoflowAggregate& agg = aggregate_of(flow);
  // In-flight bytes are destroyed: roll the coflow's delivered-byte
  // aggregate back and rewind the flow to byte zero for its retry.
  agg.base_bytes -= sent;
  flow.remaining = flow.size;
  flow.lost_bytes += sent;
  live_results_->bytes_lost += sent;
  --agg.open_connections;
  ++gen_[flow.id.value()];  // invalidate any pending calendar entry
  remove_from_active(flow);
  if (count_attempt) ++flow.attempts;
  flow.abort_time = now_;
  ++live_results_->flow_aborts;
  ++live_results_->flow_touches;
  dirty_ = true;
  obs::TraceRecorder* tr = config_.trace;
  if (tr && tr->wants(obs::TraceEventKind::kFlowAbort)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kFlowAbort;
    r.time = now_;
    r.job = flow.job.value();
    r.coflow =
        state_.jobs_[flow.job.value()].coflows[flow.coflow_index].value();
    r.flow = flow.id.value();
    r.v0 = sent;
    r.i0 = flow.attempts;
    r.i1 = static_cast<std::int32_t>(cause);
    tr->emit(r);
  }
  if (flow.attempts >= config_.faults.retry.max_attempts) {
    // Retry budget exhausted: the whole job is abandoned. This flow was
    // never parked, so mark it cancelled before fail_job — it must not be
    // counted as outstanding.
    flow.cancelled = true;
    flow.abort_time = -1;
    fail_job(state_.jobs_[flow.job.value()]);
  } else {
    parked_.push_back(flow.id);
    ++outstanding_;
  }
}

void Simulator::fail_job(SimJob& job) {
  GURITA_CHECK_MSG(!job.finished(), "fail_job on a finished job");
  std::int32_t cancelled_coflows = 0;
  std::int32_t cancelled_running = 0;
  std::int32_t cancelled_parked = 0;
  for (CoflowId cid : job.coflows) {
    SimCoflow& c = state_.coflows_[cid.value()];
    if (c.released() && !c.finished()) ++cancelled_coflows;
    for (FlowId fid : c.flows) {
      SimFlow& f = state_.flows_[fid.value()];
      if (f.finished() || f.cancelled) continue;
      if (f.abort_time >= 0) {
        // Parked, or waiting out its retry backoff.
        f.cancelled = true;
        f.abort_time = -1;
        --outstanding_;
        ++cancelled_parked;
      } else {
        // Transmitting: destroy the in-flight bytes and remove it.
        settle(f);
        set_rate(f, 0.0);
        const Bytes sent = f.size - f.remaining;
        SimState::CoflowAggregate& agg = aggregate_of(f);
        agg.base_bytes -= sent;
        f.remaining = f.size;
        f.lost_bytes += sent;
        live_results_->bytes_lost += sent;
        --agg.open_connections;
        ++gen_[fid.value()];
        remove_from_active(f);
        f.cancelled = true;
        ++cancelled_running;
        ++live_results_->flow_touches;
        dirty_ = true;
      }
    }
  }
  job.failed = true;
  job.finish_time = now_;
  ++live_results_->failed_jobs;
  obs::TraceRecorder* tr = config_.trace;
  if (tr && tr->wants(obs::TraceEventKind::kJobFail)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kJobFail;
    r.time = now_;
    r.job = job.id.value();
    r.i0 = cancelled_coflows;
    r.i1 = cancelled_running;
    r.i2 = cancelled_parked;
    r.v0 = job.arrival_time;
    tr->emit(r);
  }
  scheduler_->on_job_fail(job, now_);
}

void Simulator::schedule_retry(SimFlow& flow) {
  const Time d = config_.faults.retry.delay(flow.attempts, config_.faults.seed,
                                            flow.id.value());
  retries_.push(RetryEntry{now_ + d, flow.id});
}

void Simulator::reconsider_parked() {
  std::size_t w = 0;
  for (FlowId fid : parked_) {
    SimFlow& f = state_.flows_[fid.value()];
    if (f.cancelled) continue;  // dropped when its job failed
    if (flow_blocked(f)) {
      parked_[w++] = fid;  // some other blocker is still down
      continue;
    }
    schedule_retry(f);
  }
  parked_.resize(w);
}

void Simulator::fire_due_retries() {
  if (retries_.empty() || retries_.top().time > now_ + kTimeEpsilon) return;
  obs::ScopedPhase phase(config_.profiler, obs::Phase::kFault);
  while (!retries_.empty() && retries_.top().time <= now_ + kTimeEpsilon) {
    const RetryEntry e = retries_.top();
    retries_.pop();
    SimFlow& f = state_.flows_[e.flow.value()];
    if (f.cancelled) continue;  // its job failed while the timer ran
    if (flow_blocked(f)) {
      // Something on its path went down again during the backoff: back to
      // the parking lot until the next recovery.
      parked_.push_back(e.flow);
      continue;
    }
    // Restart from byte zero (abort_flow already rewound the byte state).
    const Time latency = now_ - f.abort_time;
    live_results_->total_recovery_latency += latency;
    f.abort_time = -1;
    f.last_touched = now_;
    SimState::CoflowAggregate& agg = aggregate_of(f);
    ++agg.open_connections;
    pos_in_active_[f.id.value()] = static_cast<std::uint32_t>(active_.size());
    active_.push_back(&f);
    alloc_.add_flow(&f);
    push_key(f);
    --outstanding_;
    ++live_results_->flow_retries;
    ++live_results_->flow_touches;
    dirty_ = true;
    obs::TraceRecorder* tr = config_.trace;
    if (tr && tr->wants(obs::TraceEventKind::kFlowRetry)) {
      obs::TraceRecord r;
      r.kind = obs::TraceEventKind::kFlowRetry;
      r.time = now_;
      r.job = f.job.value();
      r.coflow = state_.jobs_[f.job.value()].coflows[f.coflow_index].value();
      r.flow = f.id.value();
      r.i0 = f.attempts;
      r.v0 = latency;
      tr->emit(r);
    }
  }
}

void Simulator::apply_due_faults() {
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].time <= now_ + kTimeEpsilon)
    apply_fault(fault_events_[next_fault_++]);
}

void Simulator::apply_fault(const FaultEvent& event) {
  obs::ScopedPhase phase(config_.profiler, obs::Phase::kFault);
  obs::TraceRecorder* tr = config_.trace;
  if (event.kind == FaultKind::kLinkCapacity) {
    // A capacity change aborts nothing and is not delivered to the
    // scheduler. A downed link keeps capacity 0 and returns at the new
    // value on kLinkUp.
    const std::size_t l = event.link.value();
    const Rate capacity =
        fabric_->topology().link(event.link).capacity * event.factor;
    if (link_down_[l]) {
      saved_capacity_[l] = capacity;
    } else {
      capacities_[l] = capacity;
      alloc_.dirty_link(event.link);
    }
    if (tr && tr->wants(obs::TraceEventKind::kCapacityChange)) {
      obs::TraceRecord r;
      r.kind = obs::TraceEventKind::kCapacityChange;
      r.time = now_;
      r.i0 = static_cast<std::int32_t>(l);
      r.v0 = capacity;
      tr->emit(r);
    }
    dirty_ = true;
    return;
  }
  if (tr && tr->wants(obs::TraceEventKind::kFault)) {
    obs::TraceRecord r;
    r.kind = obs::TraceEventKind::kFault;
    r.time = now_;
    r.i0 = static_cast<std::int32_t>(event.kind);
    r.i1 = event.host;
    r.i2 = event.link.valid() ? static_cast<std::int32_t>(event.link.value())
                              : -1;
    r.v0 = event.factor;
    tr->emit(r);
  }
  // Aborts run in ascending flow-id order (active_ order is arbitrary), and
  // skip flows a nested fail_job already tore down.
  std::vector<FlowId> affected;
  const auto abort_affected = [&] {
    std::sort(affected.begin(), affected.end());
    for (FlowId fid : affected) {
      SimFlow& f = state_.flows_[fid.value()];
      if (f.finished() || f.cancelled || f.abort_time >= 0) continue;
      abort_flow(f, event.kind, /*count_attempt=*/true);
    }
  };
  switch (event.kind) {
    case FaultKind::kHostDown: {
      host_down_[event.host] = 1;
      for (const SimFlow* f : active_)
        if (f->src_host == event.host || f->dst_host == event.host)
          affected.push_back(f->id);
      abort_affected();
      break;
    }
    case FaultKind::kLinkDown: {
      const std::size_t l = event.link.value();
      link_down_[l] = 1;
      saved_capacity_[l] = capacities_[l];
      capacities_[l] = 0.0;
      alloc_.dirty_link(event.link);
      for (const SimFlow* f : active_) {
        for (LinkId pl : f->path) {
          if (pl.value() == l) {
            affected.push_back(f->id);
            break;
          }
        }
      }
      abort_affected();
      break;
    }
    case FaultKind::kHostUp:
      host_down_[event.host] = 0;
      break;
    case FaultKind::kLinkUp: {
      const std::size_t l = event.link.value();
      link_down_[l] = 0;
      capacities_[l] = saved_capacity_[l];
      alloc_.dirty_link(event.link);
      break;
    }
    case FaultKind::kStragglerStart: {
      straggler_[event.host] = event.factor;
      // Force every touching flow into the next rate-change report by
      // capping its stored rate now. The reallocation this marks dirty runs
      // at this same timestamp, so no bytes drain at the temporary value —
      // but without this, a flow whose max-min allocation happens to be
      // unchanged would never enter rate_changes_ and would dodge the cap.
      for (const SimFlow* f : active_)
        if (f->src_host == event.host || f->dst_host == event.host)
          affected.push_back(f->id);
      std::sort(affected.begin(), affected.end());
      for (FlowId fid : affected) {
        SimFlow& f = state_.flows_[fid.value()];
        settle(f);
        set_rate(f, f.rate * event.factor);
        push_key(f);
        // The cap bypassed the allocator (no rate_changes_ entry), so the
        // stored rate now disagrees with the cached allocation: dirty the
        // flow's links or the next recomputation would never re-report it.
        alloc_.touch_flow(&f);
        ++live_results_->flow_touches;
      }
      break;
    }
    case FaultKind::kStragglerEnd:
      straggler_[event.host] = 1.0;
      break;
    case FaultKind::kSchedulerStateLoss:
    case FaultKind::kLinkCapacity:  // returned above
      break;
  }
  if (is_recovery(event.kind)) {
    scheduler_->on_recover(event, now_);
    reconsider_parked();
  } else {
    scheduler_->on_fault(event, now_);
  }
  dirty_ = true;
}

void Simulator::fail_stranded_jobs() {
  obs::ScopedPhase phase(config_.profiler, obs::Phase::kFault);
  std::vector<JobId> stranded;
  for (FlowId fid : parked_) {
    const SimFlow& f = state_.flows_[fid.value()];
    if (!f.cancelled) stranded.push_back(f.job);
  }
  std::sort(stranded.begin(), stranded.end());
  stranded.erase(std::unique(stranded.begin(), stranded.end()),
                 stranded.end());
  for (JobId jid : stranded) fail_job(state_.jobs_[jid.value()]);
  parked_.clear();
  GURITA_CHECK_MSG(outstanding_ == 0,
                   "stranded flows survived fail_stranded_jobs");
}

}  // namespace gurita
