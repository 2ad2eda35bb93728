#include "snapshot/snapshot.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"

namespace gurita {

namespace {

using snapshot::Reader;
using snapshot::SnapshotError;
using snapshot::Writer;

/// FNV-1a over 64-bit words; doubles are mixed via their bit pattern so the
/// fingerprint is exact, not format-rounded.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

/// Serializer for the simulator's private dynamic state. A separate class
/// (befriended by Simulator and SimState) keeps the field-by-field encoding
/// knowledge out of the engine: simulator.cpp never mentions the snapshot
/// format, and this file never duplicates engine logic — it copies state.
class SnapshotCodec {
 public:
  /// Everything the snapshot does NOT carry but correctness depends on:
  /// the restoring simulator must be built from the same fabric, scheduler,
  /// config and submitted job set. Mismatches throw SnapshotError before
  /// any state is touched.
  static void save_fingerprint(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    w.str(s.scheduler_->name());
    w.u64(static_cast<std::uint64_t>(s.fabric_->num_hosts()));
    w.u64(s.fabric_->topology().link_count());
    w.u64(s.state_.jobs_.size());
    w.u64(s.state_.coflows_.size());
    w.boolean(s.config_.collect_link_stats);
    w.f64(s.config_.tcp_ramp_time);
    w.f64(s.config_.tcp_initial_window);
    w.boolean(s.config_.trace != nullptr);
    w.u32(s.config_.trace != nullptr ? s.config_.trace->mask() : 0);
    // Sampler presence + config: a resumed run with a different sampling
    // grid would interleave different kSample records into the trace, so
    // it is structure, not just telemetry.
    const obs::IntervalSampler* sampler = s.config_.sampler;
    w.boolean(sampler != nullptr);
    w.f64(sampler != nullptr ? sampler->config().every : 0.0);
    w.boolean(sampler != nullptr && sampler->config().memory);
    w.boolean(sampler != nullptr && sampler->config().wall);
    w.u64(static_fingerprint(s));
    w.end_section(token);
  }

  static void verify_fingerprint(const Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    check(r.str() == s.scheduler_->name(), "scheduler mismatch");
    check(r.u64() == static_cast<std::uint64_t>(s.fabric_->num_hosts()),
          "host count mismatch");
    check(r.u64() == s.fabric_->topology().link_count(),
          "link count mismatch");
    check(r.u64() == s.state_.jobs_.size(), "job population mismatch");
    check(r.u64() == s.state_.coflows_.size(), "coflow population mismatch");
    check(r.boolean() == s.config_.collect_link_stats,
          "link-stats setting mismatch");
    check(r.f64() == s.config_.tcp_ramp_time, "tcp_ramp_time mismatch");
    check(r.f64() == s.config_.tcp_initial_window,
          "tcp_initial_window mismatch");
    check(r.boolean() == (s.config_.trace != nullptr),
          "trace recorder attached on one side only");
    check(r.u32() ==
              (s.config_.trace != nullptr ? s.config_.trace->mask() : 0),
          "trace filter mask mismatch");
    const obs::IntervalSampler* sampler = s.config_.sampler;
    check(r.boolean() == (sampler != nullptr),
          "interval sampler attached on one side only");
    check(r.f64() == (sampler != nullptr ? sampler->config().every : 0.0),
          "sampler interval mismatch");
    check(r.boolean() == (sampler != nullptr && sampler->config().memory),
          "sampler memory setting mismatch");
    check(r.boolean() == (sampler != nullptr && sampler->config().wall),
          "sampler wall setting mismatch");
    check(r.u64() == static_fingerprint(s),
          "job/fault inputs mismatch");
    r.end_section(end);
  }

  static void save(const Simulator& s, Writer& w) {
    save_engine(s, w);
    save_trace(s, w);
    save_sampler(s, w);
    const std::size_t token = w.begin_section();
    s.scheduler_->save_state(w);
    w.end_section(token);
  }

  static void load(Simulator& s, Reader& r) {
    load_engine(s, r);
    load_trace(s, r);
    load_sampler(s, r);
    const std::size_t end = r.begin_section();
    s.scheduler_->load_state(r);
    r.end_section(end);
  }

 private:
  static void check(bool ok, const char* what) {
    if (!ok)
      throw SnapshotError(std::string("snapshot fingerprint rejected: ") +
                          what);
  }

  /// Hash of the static inputs reconstructed (not serialized) on restore:
  /// submitted jobs and the fault plan (capacity changes included). The flow
  /// population and routes derive from these plus the topology, which the
  /// explicit host/link counts already pin down.
  static std::uint64_t static_fingerprint(const Simulator& s) {
    Fnv h;
    for (const SimJob& j : s.state_.jobs_) {
      h.mix(j.arrival_time);
      h.mix(j.total_bytes);
      h.mix(static_cast<std::uint64_t>(j.num_stages));
      h.mix(static_cast<std::uint64_t>(j.coflows.size()));
    }
    h.mix(static_cast<std::uint64_t>(s.config_.faults.events.size()));
    for (const FaultEvent& e : s.config_.faults.events) {
      h.mix(e.time);
      h.mix(static_cast<std::uint64_t>(e.kind));
      h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.host)));
      h.mix(e.link.value());
      h.mix(e.factor);
    }
    h.mix(s.config_.faults.seed);
    h.mix(static_cast<std::uint64_t>(s.config_.faults.retry.max_attempts));
    h.mix(s.config_.faults.retry.base_delay);
    return h.value();
  }

  static void save_engine(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    w.f64(s.now_);
    w.boolean(s.dirty_);
    // A run_to pause can fall after an allocation that capped a flow at
    // its TCP-ramp window and before the event that refreshes it.
    w.boolean(s.ramp_due_);
    w.u64(s.iterations_);
    w.u64(s.next_arrival_);
    w.f64(s.next_tick_);

    w.u64(s.capacities_.size());
    for (Rate c : s.capacities_) w.f64(c);

    // Flow store: everything except the id (the index). The route travels
    // verbatim (v3): it was drawn by ECMP-hashing the flow's id at release,
    // and compaction renumbers ids — recomputing from the current id would
    // silently re-route every compacted flow.
    w.u64(s.state_.flows_.size());
    for (const SimFlow& f : s.state_.flows_) {
      w.u64(f.job.value());
      w.i32(f.coflow_index);
      w.i32(f.src_host);
      w.i32(f.dst_host);
      w.u64(f.path.size());
      for (LinkId l : f.path) w.u64(l.value());
      w.f64(f.size);
      w.f64(f.remaining);
      w.f64(f.start_time);
      w.f64(f.finish_time);
      w.f64(f.rate);
      w.f64(f.last_touched);
      w.i64(f.tier);
      w.f64(f.weight);
      w.i32(f.attempts);
      w.f64(f.lost_bytes);
      w.f64(f.abort_time);
      w.boolean(f.cancelled);
    }

    // Coflow/job dynamic fields (static fields are rebuilt by submit()).
    w.u64(s.state_.coflows_.size());
    for (const SimCoflow& c : s.state_.coflows_) {
      w.u64(c.flows.size());
      for (FlowId fid : c.flows) w.u64(fid.value());
      w.i32(c.flows_remaining);
      w.i32(c.deps_remaining);
      w.f64(c.release_time);
      w.f64(c.finish_time);
    }
    w.u64(s.state_.jobs_.size());
    for (const SimJob& j : s.state_.jobs_) {
      w.i32(j.coflows_remaining);
      w.f64(j.finish_time);
      w.boolean(j.failed);
      w.i32(j.completed_stages);
    }
    for (const SimState::CoflowAggregate& a : s.state_.aggregates_) {
      w.f64(a.base_bytes);
      w.f64(a.rate_sum);
      w.f64(a.rate_time_sum);
      w.f64(a.ell_max_settled);
      w.i32(a.open_connections);
    }

    w.u64(s.gen_.size());
    for (std::uint32_t g : s.gen_) w.u32(g);

    // Active set in its exact order (arrival order modulo swap-with-last
    // removals): the order feeds the allocator and scheduler, so it is
    // state, not an implementation detail.
    w.u64(s.active_.size());
    for (const SimFlow* f : s.active_) w.u64(f->id.value());

    // Calendar heap array VERBATIM, tombstones included: pop order among
    // equal keys depends on the array layout, and the layout encodes the
    // whole push/pop history (see SnapshotableHeap).
    w.u64(s.calendar_.container().size());
    for (const Simulator::CalendarEntry& e : s.calendar_.container()) {
      w.f64(e.key);
      w.u32(e.gen);
      w.u64(e.flow.value());
    }

    // Partial result counters of the paused run.
    w.u64(s.results_.rate_recomputations);
    w.u64(s.results_.events);
    w.u64(s.results_.flow_touches);
    w.u64(s.results_.flow_aborts);
    w.u64(s.results_.flow_retries);
    w.u64(s.results_.failed_jobs);
    w.f64(s.results_.bytes_lost);
    w.f64(s.results_.bytes_retransmitted);
    w.f64(s.results_.total_recovery_latency);
    w.u64(s.results_.link_bytes.size());
    for (Bytes b : s.results_.link_bytes) w.f64(b);

    // Fault-injection runtime.
    w.boolean(s.have_faults_);
    if (s.have_faults_) {
      w.u64(s.next_fault_);
      w.u64(s.host_down_.size());
      for (char d : s.host_down_) w.u8(static_cast<std::uint8_t>(d));
      w.u64(s.link_down_.size());
      for (char d : s.link_down_) w.u8(static_cast<std::uint8_t>(d));
      for (double f : s.straggler_) w.f64(f);
      for (Rate c : s.saved_capacity_) w.f64(c);
      w.u64(s.parked_.size());
      for (FlowId fid : s.parked_) w.u64(fid.value());
      w.u64(s.retries_.container().size());
      for (const Simulator::RetryEntry& e : s.retries_.container()) {
        w.f64(e.time);
        w.u64(e.flow.value());
      }
      w.u64(s.outstanding_);
    }
    w.end_section(token);
  }

  static void load_engine(Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    s.now_ = r.f64();
    s.dirty_ = r.boolean();
    s.ramp_due_ = r.boolean();
    s.iterations_ = r.u64();
    s.next_arrival_ = r.u64();
    s.next_tick_ = r.f64();

    const std::uint64_t n_caps = r.u64();
    check(n_caps == s.capacities_.size(), "link capacity vector size");
    for (Rate& c : s.capacities_) c = r.f64();

    // prepare_structures() reserved the flow store for the full population;
    // refill it with the serialized routes (v3, see save_engine).
    const std::uint64_t n_flows = r.u64();
    check(n_flows <= s.state_.flows_.capacity(),
          "flow count exceeds the submitted population");
    s.state_.flows_.clear();
    for (std::uint64_t i = 0; i < n_flows; ++i) {
      SimFlow f;
      f.id = FlowId{i};
      f.job = JobId{r.u64()};
      f.coflow_index = r.i32();
      f.src_host = r.i32();
      f.dst_host = r.i32();
      const std::uint64_t n_hops = r.u64();
      f.path.reserve(n_hops);
      for (std::uint64_t h = 0; h < n_hops; ++h)
        f.path.push_back(LinkId{r.u64()});
      f.size = r.f64();
      f.remaining = r.f64();
      f.start_time = r.f64();
      f.finish_time = r.f64();
      f.rate = r.f64();
      f.last_touched = r.f64();
      f.tier = r.i64();
      f.weight = r.f64();
      f.attempts = r.i32();
      f.lost_bytes = r.f64();
      f.abort_time = r.f64();
      f.cancelled = r.boolean();
      s.state_.flows_.push_back(std::move(f));
    }

    check(r.u64() == s.state_.coflows_.size(), "coflow count");
    for (SimCoflow& c : s.state_.coflows_) {
      c.flows.clear();
      const std::uint64_t n = r.u64();
      for (std::uint64_t i = 0; i < n; ++i) c.flows.push_back(FlowId{r.u64()});
      c.flows_remaining = r.i32();
      c.deps_remaining = r.i32();
      c.release_time = r.f64();
      c.finish_time = r.f64();
    }
    check(r.u64() == s.state_.jobs_.size(), "job count");
    for (SimJob& j : s.state_.jobs_) {
      j.coflows_remaining = r.i32();
      j.finish_time = r.f64();
      j.failed = r.boolean();
      j.completed_stages = r.i32();
    }
    for (SimState::CoflowAggregate& a : s.state_.aggregates_) {
      a.base_bytes = r.f64();
      a.rate_sum = r.f64();
      a.rate_time_sum = r.f64();
      a.ell_max_settled = r.f64();
      a.open_connections = r.i32();
    }

    const std::uint64_t n_gen = r.u64();
    check(n_gen == n_flows, "generation vector size");
    s.gen_.clear();
    for (std::uint64_t i = 0; i < n_gen; ++i) s.gen_.push_back(r.u32());

    const std::uint64_t n_active = r.u64();
    check(n_active <= n_flows, "active set larger than the flow store");
    s.active_.clear();
    s.pos_in_active_.assign(s.state_.flows_.size(), 0);
    for (std::uint64_t i = 0; i < n_active; ++i) {
      const std::uint64_t fid = r.u64();
      check(fid < s.state_.flows_.size(), "active flow id out of range");
      s.pos_in_active_[fid] = static_cast<std::uint32_t>(i);
      s.active_.push_back(&s.state_.flows_[fid]);
    }

    const std::uint64_t n_cal = r.u64();
    std::vector<Simulator::CalendarEntry> calendar;
    calendar.reserve(n_cal);
    for (std::uint64_t i = 0; i < n_cal; ++i) {
      Simulator::CalendarEntry e;
      e.key = r.f64();
      e.gen = r.u32();
      e.flow = FlowId{r.u64()};
      calendar.push_back(e);
    }
    s.calendar_.restore(std::move(calendar));

    s.results_.rate_recomputations = r.u64();
    s.results_.events = r.u64();
    s.results_.flow_touches = r.u64();
    s.results_.flow_aborts = r.u64();
    s.results_.flow_retries = r.u64();
    s.results_.failed_jobs = r.u64();
    s.results_.bytes_lost = r.f64();
    s.results_.bytes_retransmitted = r.f64();
    s.results_.total_recovery_latency = r.f64();
    const std::uint64_t n_links = r.u64();
    s.results_.link_bytes.resize(n_links);
    for (Bytes& b : s.results_.link_bytes) b = r.f64();

    check(r.boolean() == s.have_faults_, "fault plan presence");
    if (s.have_faults_) {
      s.next_fault_ = r.u64();
      check(r.u64() == s.host_down_.size(), "host vector size");
      for (char& d : s.host_down_) d = static_cast<char>(r.u8());
      check(r.u64() == s.link_down_.size(), "link vector size");
      for (char& d : s.link_down_) d = static_cast<char>(r.u8());
      for (double& f : s.straggler_) f = r.f64();
      for (Rate& c : s.saved_capacity_) c = r.f64();
      const std::uint64_t n_parked = r.u64();
      s.parked_.clear();
      for (std::uint64_t i = 0; i < n_parked; ++i)
        s.parked_.push_back(FlowId{r.u64()});
      const std::uint64_t n_retries = r.u64();
      std::vector<Simulator::RetryEntry> retries;
      retries.reserve(n_retries);
      for (std::uint64_t i = 0; i < n_retries; ++i) {
        Simulator::RetryEntry e;
        e.time = r.f64();
        e.flow = FlowId{r.u64()};
        retries.push_back(e);
      }
      s.retries_.restore(std::move(retries));
      s.outstanding_ = r.u64();
    }
    s.state_.now_ = s.now_;
    r.end_section(end);
  }

  static void save_trace(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    const obs::TraceRecorder* tr = s.config_.trace;
    w.boolean(tr != nullptr);
    if (tr != nullptr) {
      w.u64(tr->dropped());
      w.u64(tr->records().size());
      for (const obs::TraceRecord& rec : tr->records())
        snapshot::write_trace_record(w, rec);
    }
    w.end_section(token);
  }

  static void load_trace(Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    const bool attached = r.boolean();
    // Presence already fingerprint-checked; re-check defensively.
    check(attached == (s.config_.trace != nullptr),
          "trace recorder presence");
    if (attached) {
      const std::uint64_t dropped = r.u64();
      const std::uint64_t n = r.u64();
      std::vector<obs::TraceRecord> records;
      records.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        records.push_back(snapshot::read_trace_record(r));
      s.config_.trace->restore(std::move(records), dropped);
    }
    r.end_section(end);
  }

  /// Sampler boundary cursor: grid index and the event count at the last
  /// emitted boundary. Already-emitted sample records ride the trace
  /// section; the cursor makes the *next* boundary land exactly where the
  /// uninterrupted run's would. Wall-clock state is deliberately absent
  /// (DESIGN.md §14).
  static void save_sampler(const Simulator& s, Writer& w) {
    const std::size_t token = w.begin_section();
    const obs::IntervalSampler* sampler = s.config_.sampler;
    w.boolean(sampler != nullptr);
    if (sampler != nullptr) {
      const obs::IntervalSampler::Cursor c = sampler->cursor();
      w.u64(c.k);
      w.u64(c.last_events);
    }
    w.end_section(token);
  }

  static void load_sampler(Simulator& s, Reader& r) {
    const std::size_t end = r.begin_section();
    const bool attached = r.boolean();
    check(attached == (s.config_.sampler != nullptr),
          "interval sampler presence");
    if (attached) {
      obs::IntervalSampler::Cursor c;
      c.k = r.u64();
      c.last_events = r.u64();
      s.config_.sampler->restore_cursor(c);
    }
    r.end_section(end);
  }
};

void Simulator::checkpoint(snapshot::Writer& w) const {
  GURITA_CHECK_MSG(prepared_ && !collected_,
                   "checkpoint() outside an open run (use run_to first)");
  snapshot::write_header(w, snapshot::PayloadKind::kSimulatorState);
  SnapshotCodec::save_fingerprint(*this, w);
  SnapshotCodec::save(*this, w);
}

void Simulator::restore(snapshot::Reader& r) {
  GURITA_CHECK_MSG(!prepared_ && !ran_,
                   "restore() into a simulator that already ran");
  const snapshot::PayloadKind kind = snapshot::read_header(r);
  if (kind != snapshot::PayloadKind::kSimulatorState)
    throw snapshot::SnapshotError("not a simulator-state snapshot");
  obs::PhaseProfiler* prof = config_.profiler;
  if (prof != nullptr) prof->begin_run();
  const int setup_prev =
      prof != nullptr ? prof->enter(obs::Phase::kSetup) : -1;
  // Same static setup as a fresh run; the fingerprint then proves the
  // reconstructed structures match what the checkpointed run was built on,
  // and the codec overwrites every dynamic field.
  prepare_structures();
  SnapshotCodec::verify_fingerprint(*this, r);
  SnapshotCodec::load(*this, r);
  // The incremental allocator's membership/frontier state is not
  // serialized: rebuilding it from the restored active set leaves every
  // member link dirty, so the first allocation re-solves the whole set —
  // byte-identical to the cached rates an uninterrupted run carries,
  // because allocation is a pure function of (flows, tiers, weights, caps).
  alloc_.rebuild(active_);
  ran_ = true;
  prepared_ = true;
  // Wall deltas restart from the resume point (wall state is not part of
  // the snapshot; only sim-time samples are deterministic).
  if (config_.sampler != nullptr) config_.sampler->start_wall();
  if (prof != nullptr) prof->leave(setup_prev);
}

namespace snapshot {

void write_header(Writer& w, PayloadKind kind) {
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(kind));
}

PayloadKind read_header(Reader& r) {
  if (r.u32() != kMagic)
    throw SnapshotError("bad snapshot magic (not a snapshot file?)");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(PayloadKind::kSimulatorState) &&
      kind != static_cast<std::uint8_t>(PayloadKind::kResultsCache) &&
      kind != static_cast<std::uint8_t>(PayloadKind::kServiceState))
    throw SnapshotError("unknown snapshot payload kind " +
                        std::to_string(kind));
  return static_cast<PayloadKind>(kind);
}

void write_trace_record(Writer& w, const obs::TraceRecord& record) {
  w.f64(record.time);
  w.u64(record.job);
  w.u64(record.coflow);
  w.u64(record.flow);
  w.f64(record.v0);
  w.f64(record.v1);
  w.f64(record.v2);
  w.f64(record.v3);
  w.f64(record.v4);
  w.f64(record.v5);
  w.i32(record.i0);
  w.i32(record.i1);
  w.i32(record.i2);
  w.u8(static_cast<std::uint8_t>(record.kind));
}

obs::TraceRecord read_trace_record(Reader& r) {
  obs::TraceRecord rec;
  rec.time = r.f64();
  rec.job = r.u64();
  rec.coflow = r.u64();
  rec.flow = r.u64();
  rec.v0 = r.f64();
  rec.v1 = r.f64();
  rec.v2 = r.f64();
  rec.v3 = r.f64();
  rec.v4 = r.f64();
  rec.v5 = r.f64();
  rec.i0 = r.i32();
  rec.i1 = r.i32();
  rec.i2 = r.i32();
  const std::uint8_t kind = r.u8();
  if (kind >= obs::kNumTraceEventKinds)
    throw SnapshotError("unknown trace record kind in snapshot");
  rec.kind = static_cast<obs::TraceEventKind>(kind);
  return rec;
}

void write_job_spec(Writer& w, const JobSpec& spec) {
  w.f64(spec.arrival_time);
  w.f64(spec.deadline);
  w.u64(spec.coflows.size());
  for (const CoflowSpec& c : spec.coflows) {
    w.u64(c.flows.size());
    for (const FlowSpec& f : c.flows) {
      w.i32(f.src_host);
      w.i32(f.dst_host);
      w.f64(f.size);
    }
  }
  w.u64(spec.deps.size());
  for (const std::vector<int>& d : spec.deps) {
    w.u64(d.size());
    for (int dep : d) w.i32(dep);
  }
}

JobSpec read_job_spec(Reader& r) {
  JobSpec spec;
  spec.arrival_time = r.f64();
  spec.deadline = r.f64();
  spec.coflows.resize(r.u64());
  for (CoflowSpec& c : spec.coflows) {
    c.flows.resize(r.u64());
    for (FlowSpec& f : c.flows) {
      f.src_host = r.i32();
      f.dst_host = r.i32();
      f.size = r.f64();
    }
  }
  spec.deps.resize(r.u64());
  for (std::vector<int>& d : spec.deps) {
    d.resize(r.u64());
    for (int& dep : d) dep = r.i32();
  }
  return spec;
}

void save_results(Writer& w, const SimResults& results) {
  write_header(w, PayloadKind::kResultsCache);
  const std::size_t token = w.begin_section();
  w.u64(results.jobs.size());
  for (const SimResults::JobResult& j : results.jobs) {
    w.u64(j.id.value());
    w.f64(j.arrival);
    w.f64(j.finish);
    w.f64(j.total_bytes);
    w.i32(j.num_stages);
    w.boolean(j.failed);
  }
  w.u64(results.coflows.size());
  for (const SimResults::CoflowResult& c : results.coflows) {
    w.u64(c.id.value());
    w.u64(c.job.value());
    w.i32(c.stage);
    w.f64(c.release);
    w.f64(c.finish);
    w.f64(c.total_bytes);
    w.boolean(c.failed);
  }
  w.f64(results.makespan);
  w.u64(results.rate_recomputations);
  w.u64(results.events);
  w.u64(results.flow_touches);
  w.u64(results.flow_aborts);
  w.u64(results.flow_retries);
  w.u64(results.failed_jobs);
  w.f64(results.bytes_lost);
  w.f64(results.bytes_retransmitted);
  w.f64(results.total_recovery_latency);
  w.u64(results.link_bytes.size());
  for (Bytes b : results.link_bytes) w.f64(b);
  w.u64(results.trace.size());
  for (const obs::TraceRecord& rec : results.trace)
    write_trace_record(w, rec);
  // The profile is intentionally absent (wall-clock telemetry; see header).
  w.end_section(token);
}

SimResults load_results(Reader& r) {
  if (read_header(r) != PayloadKind::kResultsCache)
    throw SnapshotError("not a results-cache snapshot");
  const std::size_t end = r.begin_section();
  SimResults results;
  const std::uint64_t n_jobs = r.u64();
  results.jobs.reserve(n_jobs);
  for (std::uint64_t i = 0; i < n_jobs; ++i) {
    SimResults::JobResult j;
    j.id = JobId{r.u64()};
    j.arrival = r.f64();
    j.finish = r.f64();
    j.total_bytes = r.f64();
    j.num_stages = r.i32();
    j.failed = r.boolean();
    results.jobs.push_back(j);
  }
  const std::uint64_t n_coflows = r.u64();
  results.coflows.reserve(n_coflows);
  for (std::uint64_t i = 0; i < n_coflows; ++i) {
    SimResults::CoflowResult c;
    c.id = CoflowId{r.u64()};
    c.job = JobId{r.u64()};
    c.stage = r.i32();
    c.release = r.f64();
    c.finish = r.f64();
    c.total_bytes = r.f64();
    c.failed = r.boolean();
    results.coflows.push_back(c);
  }
  results.makespan = r.f64();
  results.rate_recomputations = r.u64();
  results.events = r.u64();
  results.flow_touches = r.u64();
  results.flow_aborts = r.u64();
  results.flow_retries = r.u64();
  results.failed_jobs = r.u64();
  results.bytes_lost = r.f64();
  results.bytes_retransmitted = r.f64();
  results.total_recovery_latency = r.f64();
  const std::uint64_t n_links = r.u64();
  results.link_bytes.resize(n_links);
  for (Bytes& b : results.link_bytes) b = r.f64();
  const std::uint64_t n_trace = r.u64();
  results.trace.reserve(n_trace);
  for (std::uint64_t i = 0; i < n_trace; ++i)
    results.trace.push_back(read_trace_record(r));
  r.end_section(end);
  return results;
}

void write_snapshot_file(const std::string& path,
                         const std::string& payload) {
  write_file_atomic(path, /*binary=*/true, [&](std::ostream& out) {
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
  });
}

std::string read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw SnapshotError("cannot open snapshot file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    throw SnapshotError("error reading snapshot file: " + path);
  return std::move(buf).str();
}

}  // namespace snapshot
}  // namespace gurita
