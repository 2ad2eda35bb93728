// Event-driven flow-level network simulator.
//
// This is the evaluation substrate the paper describes in §V: "a flow-level
// simulator [that] accounts for the flow arrival and departure events,
// rather than packet sending and receiving events. It updates the rate and
// the remaining volume of each flow when an event occurs."
//
// Fluid model: between events every flow transfers at a constant rate
// computed by the tiered weighted max-min allocator; events are job
// arrivals, flow completions (computed analytically), DAG releases and
// scheduler coordination ticks (δ). ECMP assigns each flow a stable path
// through the fat-tree at release time.
//
// The engine is incremental: completions come from a lazily-invalidated
// min-heap event calendar keyed on each flow's projected finish time, and
// bytes drain lazily per flow from (last_touched, rate) instead of a
// whole-active-set sweep per event. Per-event work is therefore
// proportional to the flows whose rate actually changed, not to the number
// of active flows. DESIGN.md ("Event-calendar engine") documents the
// invariants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/units.h"
#include "coflow/job.h"
#include "fault/fault.h"
#include "flowsim/allocator.h"
#include "flowsim/scheduler.h"
#include "flowsim/state.h"
#include "obs/memory.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "topology/fabric.h"

namespace gurita {

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// Min-heap with std::priority_queue's exact push/pop mechanics
/// (std::push_heap / std::pop_heap over a contiguous array) plus access to
/// the underlying array. Pop order among *equal* keys depends on the array
/// layout, which in turn depends on the whole push/pop history — so a
/// snapshot cannot rebuild "the same heap" from its elements; it must
/// serialize the array verbatim and restore it bit-for-bit. That is the one
/// capability std::priority_queue withholds, and the only reason this
/// wrapper exists; behaviour is otherwise identical.
template <typename T, typename Later>
class SnapshotableHeap {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const T& top() const { return heap_.front(); }

  void push(const T& v) {
    heap_.push_back(v);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

  /// The heap array in layout order (NOT sorted order) — serialize verbatim.
  [[nodiscard]] const std::vector<T>& container() const { return heap_; }
  /// Restores an array previously obtained from container(). The caller
  /// must not reorder it: layout is state. (Buffer recycling also enters
  /// here, with a *cleared* vector whose capacity is being reused — an
  /// empty array is trivially a valid layout.)
  void restore(std::vector<T> container) { heap_ = std::move(container); }
  /// Moves the backing array out for buffer recycling, leaving the heap
  /// empty and valid.
  [[nodiscard]] std::vector<T> take_container() {
    std::vector<T> out = std::move(heap_);
    heap_.clear();
    return out;
  }

 private:
  std::vector<T> heap_;
};

/// Outcome of one simulation run.
struct SimResults {
  struct JobResult {
    JobId id;
    Time arrival = 0;
    Time finish = 0;
    Bytes total_bytes = 0;
    int num_stages = 1;
    /// Abandoned by fault injection (retry budget exhausted / unrecoverable);
    /// `finish` is the abandonment time, not a completion. Excluded from
    /// JCT statistics.
    bool failed = false;
    [[nodiscard]] Time jct() const { return finish - arrival; }
  };
  struct CoflowResult {
    CoflowId id;
    JobId job;
    int stage = 1;
    Time release = 0;
    Time finish = 0;
    Bytes total_bytes = 0;
    /// Belongs to a failed job and never completed (possibly never even
    /// released: release and finish stay -1). Excluded from CCT statistics.
    bool failed = false;
    [[nodiscard]] Time cct() const { return finish - release; }
  };

  std::vector<JobResult> jobs;
  std::vector<CoflowResult> coflows;
  Time makespan = 0;
  std::uint64_t rate_recomputations = 0;

  // --- engine-cost counters (speedup tracking across PRs) ---
  /// Main-loop iterations, including idle jumps to the next arrival.
  std::uint64_t events = 0;
  /// Per-flow units of work the event-calendar engine performed: flow
  /// releases, settles/re-keys after a rate change, calendar pops (valid
  /// and stale) and finishes.
  std::uint64_t flow_touches = 0;

  // --- fault-injection accounting (fault/fault.h; all zero without a
  // fault plan) ---
  /// Flow aborts caused by host/link faults (including park-at-release).
  std::uint64_t flow_aborts = 0;
  /// Retries that actually restarted a flow.
  std::uint64_t flow_retries = 0;
  /// Jobs abandoned after a flow exhausted its retry budget or could never
  /// recover.
  std::uint64_t failed_jobs = 0;
  /// In-flight bytes lost to aborts (work destroyed by faults).
  Bytes bytes_lost = 0;
  /// Lost bytes that were eventually re-sent by flows that finished
  /// (bytes_lost minus the losses of cancelled flows).
  Bytes bytes_retransmitted = 0;
  /// Sum over retries of (restart time − abort time): time flows spent
  /// parked or backing off before re-entering.
  Time total_recovery_latency = 0;

  /// Bytes carried per link over the run (indexed by LinkId value); only
  /// populated when Config::collect_link_stats is set.
  std::vector<Bytes> link_bytes;

  // --- telemetry (populated by the experiment harness when enabled) ---
  /// Structured trace of the run (obs/trace.h); empty unless a recorder was
  /// attached. ComparisonResult::absorb appends traces in replicate order
  /// with job/coflow ids re-based alongside the pooled populations (flow
  /// ids and timestamps stay run-local).
  std::vector<obs::TraceRecord> trace;
  /// Phase-time breakdown of the run (obs/profiler.h); all-zero unless a
  /// profiler was attached. absorb() sums profiles across runs.
  obs::PhaseProfile profile;
  /// Individual phase slices (obs/profiler.h); empty unless the attached
  /// profiler had span capture enabled. Wall-clock telemetry, outside the
  /// determinism contract: never serialized, never fingerprinted. absorb()
  /// concatenates spans in replicate order.
  std::vector<obs::PhaseSpan> spans;

  /// Non-deterministic run health (allocator work counters, reserved
  /// memory footprint). Populated by the experiment harness only when
  /// diagnostics are requested; excluded from determinism fingerprints,
  /// result caches and snapshots — a restored run re-solves everything on
  /// its first allocation, so these legitimately differ between a resumed
  /// and an uninterrupted run whose simulation bytes are identical.
  struct Diagnostics {
    AllocStats alloc;
    obs::MemoryAccountant memory;
    void merge(const Diagnostics& other) {
      alloc.merge(other.alloc);
      memory.merge(other.memory);
    }
  };
  Diagnostics diagnostics;

  /// Utilization of link `id` given its capacity: carried bytes divided by
  /// capacity × makespan. Requires link stats collection.
  [[nodiscard]] double link_utilization(LinkId id, Rate capacity) const;

  /// Folds another run's cost counters (events, flow_touches,
  /// rate_recomputations, the fault counters and byte/latency totals) and
  /// makespan into this result. Counters are strictly per-run — the engine
  /// only ever writes the SimResults of its own run() — and pooling across
  /// runs happens through this explicit merge, so parallel sweeps aggregate
  /// them deterministically in merge order instead of interleaving updates.
  /// Does not touch jobs/coflows (population pooling re-ids those), nor
  /// the trace/profile telemetry (absorb() pools those).
  void merge_counters(const SimResults& other);

  /// Projects the engine-cost counters into a registry ("engine.events",
  /// "engine.flow_touches", "engine.rate_recomputations"), the integer
  /// fault counters ("fault.flow_aborts", "fault.flow_retries",
  /// "fault.failed_jobs"), plus the "engine.makespan" gauge. The double-valued fault totals
  /// (bytes, latency) are deliberately not exported: registry gauges merge
  /// by max, which would disagree with merge_counters' summation.
  /// Registry::merge over per-run exports agrees with merge_counters
  /// (counters sum, makespan maxes) — the regression tests hold the two
  /// pooling paths to identical totals at any worker count.
  void export_counters(obs::Registry& registry) const;

  [[nodiscard]] double average_jct() const;
  [[nodiscard]] double average_cct() const;
};

class SimBufferPool;

class Simulator {
 public:
  struct Config {
    /// Hard wall on simulated time; exceeding it throws (deadlock guard).
    Time max_time = std::numeric_limits<Time>::infinity();
    /// Hard wall on main-loop iterations; exceeding it throws with
    /// diagnostics (live-lock guard).
    std::uint64_t max_iterations = 500'000'000;
    /// Fault plan (host crashes, link flaps, link-capacity changes,
    /// stragglers, scheduler-state loss) — see fault/fault.h. Validated at
    /// construction. An empty plan leaves the engine's behaviour and
    /// results byte-identical to a build without fault support.
    FaultPlan faults;
    /// Record per-link carried bytes (adds O(path length) work per flow per
    /// rate change; off by default).
    bool collect_link_stats = false;
    /// TCP slow-start approximation (§V: "we implement [a] rate limiter
    /// that behaves like TCP"): a flow's rate is additionally capped at
    /// (tcp_initial_window + bytes_sent) / tcp_ramp_time — the fluid
    /// analogue of a congestion window doubling every RTT. 0 disables the
    /// ramp (pure max-min steady state, the default).
    Time tcp_ramp_time = 0;
    Bytes tcp_initial_window = 64 * kKB;
    /// Structured trace sink (obs/trace.h), or nullptr for no tracing. The
    /// engine emits event records and hands the recorder to the scheduler
    /// (Scheduler::set_trace_recorder) so decision records interleave in
    /// emission order. Must outlive run(). Disabled-path cost: one pointer
    /// null-check per emission site.
    obs::TraceRecorder* trace = nullptr;
    /// Engine phase profiler (obs/profiler.h), or nullptr. Timing only —
    /// attaching a profiler never changes simulation results.
    obs::PhaseProfiler* profiler = nullptr;
    /// Recycled container pack (SimBufferPool below), or nullptr. When set,
    /// the simulator adopts the pool's emptied vectors at construction
    /// (clearing them — values are never reused, only capacity) and returns
    /// them at destruction, so consecutive runs on a worker skip the
    /// multi-megabyte allocate/free cycle of the flow store, calendar and
    /// fault runtime. Results are byte-identical with or without a pool.
    /// Must outlive the simulator.
    SimBufferPool* recycle = nullptr;
    /// Deterministic interval sampler (obs/sampler.h), or nullptr. Requires
    /// Config::trace: samples are emitted into the recorder as kSample /
    /// kMemSample (and opt-in kWallSample) records. Polled after every
    /// processed event; sim-time sample fields are pure functions of the
    /// serialized engine state, so timelines are byte-identical across
    /// worker counts and checkpoint/restore splits (DESIGN.md §14). Must
    /// outlive run().
    obs::IntervalSampler* sampler = nullptr;
    /// Reserved-footprint accountant (obs/memory.h), or nullptr.
    /// Capacity-based diagnostics only — excluded from determinism
    /// fingerprints. Observed at every sampler boundary (if a sampler is
    /// set) and once at collect(). Must outlive run().
    obs::MemoryAccountant* memory = nullptr;
  };

  /// `fabric` and `scheduler` must outlive the simulator. Any Fabric
  /// works: the paper's fat-tree or the big-switch abstraction.
  Simulator(const Fabric& fabric, Scheduler& scheduler, Config config);
  Simulator(const Fabric& fabric, Scheduler& scheduler)
      : Simulator(fabric, scheduler, Config{}) {}

  /// Returns the adopted containers to Config::recycle, if one was set.
  ~Simulator();

  /// Registers a job (validated against the fabric). All jobs must be
  /// submitted before run(). Returns the assigned job id.
  JobId submit(const JobSpec& job);

  /// Open-horizon admission: registers a job *while the run is open*
  /// (after prepare()/restore(), before results were collected). Legal only
  /// at an event boundary — between run_to()/run_until() calls. The job's
  /// arrival_time may lie at or after now(); an arrival at or before now()
  /// is processed by the next event at the current clock. Grows the flow
  /// store when needed (re-pointing the active set and rebuilding the
  /// allocator — a pure re-solve, so rates and results are unaffected).
  /// Returns the assigned job id.
  JobId admit(const JobSpec& job);

  /// Open-horizon drive: processes every event with time strictly below
  /// `bound`, then pauses *before* the first event at or beyond it — that
  /// event is neither counted nor executed, so a paused+resumed run counts
  /// exactly the events an uninterrupted one does. Pausing never perturbs
  /// the run: admit() at the pause point behaves as if the job had been
  /// submitted up front, and checkpoint() captures the boundary losslessly.
  /// With `bound` = +infinity this is finish()'s drain loop (no pause).
  /// Returns true while work remains.
  bool run_to(Time bound);

  /// Outcome of one compact() pass: the evicted jobs' results, harvested
  /// exactly as collect() would have reported them (ids are the
  /// pre-compaction ids; callers tracking external ids map through the
  /// remap they observed via Scheduler::on_compact).
  struct Compaction {
    std::size_t jobs_evicted = 0;
    std::size_t coflows_evicted = 0;
    std::size_t flows_evicted = 0;
    std::vector<SimResults::JobResult> jobs;
    std::vector<SimResults::CoflowResult> coflows;
  };

  /// Open-horizon state eviction: removes every terminal (finished or
  /// failed) job with its coflows and flows from the stores, renumbers the
  /// survivors densely, rebuilds the calendar/retry heaps and the
  /// allocator, and notifies the scheduler (on_compact). Steady-state
  /// memory under sustained admission is therefore O(active) instead of
  /// O(ever-submitted). Legal only at an event boundary. Determinism is
  /// per-configuration: identical inputs and compaction cadence give
  /// byte-identical everything. Relative to an *uncompacted* run the
  /// populations agree job-for-job, but not to the last bit: the allocator
  /// rebuild re-sums link loads in the survivors' renumbered order, which
  /// can move rates by an ulp and lets trajectories drift slightly, and
  /// the flow_touches counter may run below (evicted flows' stale calendar
  /// tombstones are dropped instead of popped).
  Compaction compact();

  /// Runs to completion of all submitted jobs and returns the results.
  /// May be called once.
  SimResults run();

  /// Partial drive: processes events until the clock reaches `deadline` (or
  /// all work completes). Returns true while events remain. The pause point
  /// is always an event boundary — the top of the main loop — so the
  /// simulator state between run_until calls is exactly the state an
  /// uninterrupted run() passes through, and checkpoint() at that boundary
  /// captures it losslessly. run_until + finish() is byte-identical to a
  /// single run().
  bool run_until(Time deadline);

  /// Drains the remaining events after run_until()/restore() and returns
  /// the results, exactly as run() would have. May be called once.
  SimResults finish();

  /// Current simulation clock (the time of the last processed event).
  [[nodiscard]] Time now() const { return now_; }

  // --- open-horizon observability (watermark inputs for the service
  // daemon; every value is a pure function of the serialized state, so
  // shedding decisions built on them are deterministic) ---
  /// Work remains: pending arrivals, active flows or parked/retrying flows.
  [[nodiscard]] bool pending() const {
    return next_arrival_ < arrival_order_.size() || !active_.empty() ||
           outstanding_ > 0;
  }
  [[nodiscard]] std::size_t active_flow_count() const {
    return active_.size();
  }
  [[nodiscard]] std::size_t calendar_size() const { return calendar_.size(); }
  /// Partial counters of the in-progress run (events, flow_touches, ...).
  /// Valid between prepare()/restore() and collect().
  [[nodiscard]] const SimResults& partial_results() const { return results_; }
  /// The run is open: prepared (or restored) and not yet collected.
  [[nodiscard]] bool open() const { return prepared_ && !collected_; }

  /// Serializes the complete dynamic simulation state — event calendar
  /// (verbatim heap array, including lazy-drain tombstones), per-coflow
  /// aggregates, flow progress, parked/retry fault state, fault-plan
  /// cursor, partial result counters, the attached trace recorder's buffer
  /// and the scheduler's policy state (Scheduler::save_state) — into `w`.
  /// Must be called at an event boundary (between drive calls); const,
  /// so checkpointing never perturbs the run. Implemented in
  /// snapshot/snapshot.cpp (link gurita_snapshot to use it).
  void checkpoint(snapshot::Writer& w) const;

  /// Inverse of checkpoint(): rebuilds the simulator mid-run from `r`.
  /// Contract: the simulator must be freshly constructed with an *identical*
  /// fabric, scheduler, config and submitted job set as the checkpointed
  /// one (the snapshot carries a fingerprint and throws SnapshotError on a
  /// mismatch) — the snapshot holds dynamic state only, so static structure
  /// (topology, specs, routes) is reconstructed from those inputs. After
  /// restore, any drive call (run_until, run_to, finish) continues
  /// byte-identically to the uninterrupted run. Implemented in
  /// snapshot/snapshot.cpp.
  void restore(snapshot::Reader& r);

  [[nodiscard]] const SimState& state() const { return state_; }

  /// Allocator work counters (flowsim/allocator.h). Diagnostic only —
  /// deliberately not part of SimResults: a restored run re-solves
  /// everything on its first allocation, so these differ between a resumed
  /// and an uninterrupted run whose simulation bytes are identical.
  [[nodiscard]] const AllocStats& allocator_stats() const {
    return alloc_.stats();
  }

 private:
  friend class SnapshotCodec;  ///< snapshot/snapshot.cpp serializer
  friend class SimBufferPool;  ///< recyclable container pack (below)
  /// One entry of the completion calendar: flow `flow` is projected to
  /// drain to zero at `key`. Entries are never updated in place; a rate
  /// change bumps the flow's generation counter and pushes a fresh entry,
  /// and stale entries (entry gen != current gen) are discarded on pop.
  struct CalendarEntry {
    Time key = 0;
    std::uint32_t gen = 0;
    FlowId flow;
  };
  struct CalendarLater {
    bool operator()(const CalendarEntry& a, const CalendarEntry& b) const {
      return a.key > b.key;
    }
  };

  const Fabric* fabric_;
  Scheduler* scheduler_;
  Config config_;
  SimState state_;
  bool ran_ = false;
  /// prepare() (or restore()) has initialized the run-loop state.
  bool prepared_ = false;
  /// collect() has harvested the results; the simulator is spent.
  bool collected_ = false;

  /// Persistent active set (raw pointers into state_.flows_, which is
  /// reserved up front so it never reallocates mid-run). Removal is
  /// swap-with-last via pos_in_active_, so the order is arrival order
  /// modulo those swaps — schedulers and the allocator are order-blind.
  std::vector<SimFlow*> active_;
  /// Index of each flow in active_ (by flow id; stale once removed).
  std::vector<std::uint32_t> pos_in_active_;
  /// Calendar generation per flow (by flow id); see CalendarEntry.
  std::vector<std::uint32_t> gen_;
  SnapshotableHeap<CalendarEntry, CalendarLater> calendar_;
  /// Scratch for rate-change reporting (reused across events).
  std::vector<RateChange> rate_changes_;
  /// The incremental rate allocator. Holds only state rebuildable from the
  /// active set (rebuild()), so snapshots don't serialize it.
  RateAllocator alloc_;
  /// Flows whose stored rate was capped below their pure allocation at the
  /// last recomputation (TCP ramp, straggler windows). Re-touched before
  /// every allocation: the allocator must re-report them (allocation !=
  /// stored rate) exactly as a from-scratch re-solve would. Rebuilt each
  /// recomputation from the application loop; not serialized — a restored
  /// run's first allocation re-solves everything, which subsumes it.
  std::vector<FlowId> capped_;
  /// Results of the in-progress run (settles accrue link stats/counters).
  /// Owned here (not a run() local) so a paused run's partial counters are
  /// part of the snapshot; collect() moves it out.
  SimResults results_;
  SimResults* live_results_ = nullptr;

  // --- run-loop state (locals of the old monolithic run(), hoisted so a
  // run can pause at any event boundary and the pause state is exactly
  // these members; everything here is either serialized by checkpoint() or
  // recomputed by prepare()/restore() from the static inputs) ---
  /// Job ids sorted by (arrival_time, id); recomputed, not serialized.
  std::vector<JobId> arrival_order_;
  std::size_t next_arrival_ = 0;
  /// Scheduler coordination interval; cached from tick_interval().
  Time tick_ = 0;
  Time next_tick_ = std::numeric_limits<Time>::infinity();
  std::uint64_t iterations_ = 0;
  /// Scratch for the completion pop loop (dead between iterations).
  std::vector<FlowId> done_;

  Time now_ = 0;
  /// Current link capacities (nominal, mutated by link faults and
  /// kLinkCapacity events).
  std::vector<Rate> capacities_;
  /// Rates must be recomputed before the next projection (scheduler state,
  /// topology or population changed since the last allocation).
  bool dirty_ = true;

  /// The last allocation capped a flow at its TCP-ramp window, so rates
  /// are refreshed a ramp time later: next_event() sets it, execute()
  /// turns it into dirty_. Serialized — a run paused by run_to sits
  /// between the two.
  bool ramp_due_ = false;
  /// Flow-store reservation watermark: released flows plus the unreleased
  /// flows of every registered job. admit() grows the store (re-pointing
  /// active_) when a new job pushes this past capacity; release_coflow's
  /// no-reallocation invariant holds against it.
  std::size_t flows_reserved_ = 0;

  // --- fault-injection runtime (all idle unless Config::faults is
  // non-empty; the zero-fault run is byte-identical to a fault-free
  // engine) ---
  /// One pending retry: `flow` restarts at `time` (if still unblocked).
  struct RetryEntry {
    Time time = 0;
    FlowId flow;
  };
  struct RetryLater {
    bool operator()(const RetryEntry& a, const RetryEntry& b) const {
      // Min-heap by time; flow id breaks ties so pop order (and hence
      // restart order) is deterministic.
      if (a.time != b.time) return a.time > b.time;
      return a.flow > b.flow;
    }
  };
  bool have_faults_ = false;
  std::vector<FaultEvent> fault_events_;  ///< plan events, sorted by time
  std::size_t next_fault_ = 0;
  std::vector<char> host_down_;      ///< by host index
  std::vector<char> link_down_;      ///< by link id
  std::vector<double> straggler_;    ///< per-host rate factor; 1.0 nominal
  /// Capacity a downed link returns at on kLinkUp.
  std::vector<Rate> saved_capacity_;
  /// Flows aborted and waiting for every blocking entity to recover.
  std::vector<FlowId> parked_;
  SnapshotableHeap<RetryEntry, RetryLater> retries_;
  /// Parked flows + scheduled retries not yet cancelled: the run cannot end
  /// while > 0 even if the active set is momentarily empty.
  std::uint64_t outstanding_ = 0;

  /// True while a down host or link blocks this flow from transmitting.
  [[nodiscard]] bool flow_blocked(const SimFlow& flow) const;
  /// Aborts a transmitting (or just-released) flow: in-flight bytes are
  /// lost, the flow leaves the active set and either parks for retry or —
  /// once `count_attempt` pushes it past max_attempts — fails its job.
  void abort_flow(SimFlow& flow, FaultKind cause, bool count_attempt);
  /// Marks `job` failed at now_: cancels its surviving flows (parked,
  /// scheduled and transmitting), emits kJobFail, tells the scheduler.
  void fail_job(SimJob& job);
  /// Moves a parked flow into the retry queue with its backoff delay.
  void schedule_retry(SimFlow& flow);
  /// After a recovery: parked flows whose blockers all recovered get their
  /// retry scheduled.
  void reconsider_parked();
  /// Restarts flows whose retry time has come (re-entering from byte zero).
  void fire_due_retries();
  void apply_fault(const FaultEvent& event);
  void apply_due_faults();
  [[nodiscard]] Time next_retry_time() const;
  /// Both calendars are empty but flows are parked with no recovery left in
  /// the plan: their jobs can never finish — fail them now instead of
  /// simulating forever.
  void fail_stranded_jobs();

  /// Aggregate of the coflow owning `flow`.
  SimState::CoflowAggregate& aggregate_of(const SimFlow& flow);
  /// Settles `flow`'s lazy drain at now_: `remaining` becomes exact,
  /// drained bytes move into the coflow aggregate and per-link stats.
  void settle(SimFlow& flow);
  /// Applies a new rate to a settled flow, keeping aggregates consistent.
  void set_rate(SimFlow& flow, Rate new_rate);
  /// (Re-)registers a settled flow's projected finish in the calendar.
  void push_key(SimFlow& flow);
  void remove_from_active(SimFlow& flow);

  void release_coflow(SimCoflow& coflow);
  void finish_flow(SimFlow& flow);
  void finish_coflow(SimCoflow& coflow);
  void arrive_job(SimJob& job);
  /// Shared body of submit()/admit(): appends the SimJob and its SimCoflow
  /// records (the spec must already be validated).
  JobId register_job(const JobSpec& spec);
  /// admit() helper: grows the flow store to hold flows_reserved_ flows,
  /// re-pointing the active set and rebuilding the allocator (pure
  /// re-solve; byte-identical rates).
  void grow_flow_store();

  // --- run-loop decomposition (run() == prepare(); while (pending())
  // execute(next_event()); collect()) ---
  /// Static structures shared by prepare() and restore(): scheduler attach,
  /// flow-store reservation, arrival order, tick cache.
  void prepare_structures();
  /// Full fresh-run initialization (prepare_structures + dynamic defaults).
  void prepare();
  /// Time of the next event. Runs the pending allocation (dirty_) and
  /// drops stale calendar tops first, but counts no event and does not
  /// advance the clock; a second call returns the same time and does no
  /// further work. An idle network whose parked flows nothing will wake
  /// returns now(): the event that fails their jobs.
  Time next_event();
  /// Counts the event, advances the clock to `t` (the value next_event()
  /// returned), runs that one event and polls the interval sampler.
  void execute(Time t);
  /// Earliest pending arrival, fault-plan event or retry (+infinity if
  /// none): what wakes an idle network.
  [[nodiscard]] Time next_wakeup() const;
  /// Emits due kSample/kMemSample/kWallSample records (Config::sampler) and
  /// refreshes the memory accountant. Called after every event.
  void poll_sampler();
  /// Observes the current reserved footprint into Config::memory.
  void account_memory();
  /// Harvests results_ after the loop drains; may be called once.
  SimResults collect();

  /// Buffer recycling (Config::recycle): moves the pool's containers into
  /// the members (clearing each — capacity reuse only, never values), and
  /// back again at destruction. A pool borrowed twice concurrently (it
  /// must not be shared across threads, but a second simulator on the same
  /// thread is legal) simply finds moved-from empty containers and falls
  /// back to fresh allocation — reuse degrades, correctness doesn't.
  void adopt_buffers(SimBufferPool& pool);
  void return_buffers(SimBufferPool& pool);
};

/// Recyclable pack of a Simulator's large per-run containers — the flow /
/// coflow / job stores, calendar and retry heap arrays, active-set and
/// fault-runtime vectors. One simulation over a 100k-flow trace allocates
/// (and frees) several megabytes of these; when every run of a sharded
/// sweep pays that, the allocator's mmap/munmap traffic serializes the
/// workers and the parallel runner scales *negatively*. A per-worker pool
/// (exp/arena.h) lets each run adopt its predecessor's capacity instead.
///
/// Ownership rules: a pool belongs to one thread (no internal locking) and
/// to at most one live Simulator at a time; while borrowed, its containers
/// are moved-from and empty. The simulator clears every adopted container
/// before use, so pooled and fresh runs are byte-identical.
class SimBufferPool {
 public:
  SimBufferPool() = default;
  SimBufferPool(const SimBufferPool&) = delete;
  SimBufferPool& operator=(const SimBufferPool&) = delete;

 private:
  friend class Simulator;
  std::vector<SimFlow> flows;
  std::vector<SimCoflow> coflows;
  std::vector<SimJob> jobs;
  std::vector<SimState::CoflowAggregate> aggregates;
  std::vector<SimFlow*> active;
  std::vector<std::uint32_t> pos_in_active;
  std::vector<std::uint32_t> gen;
  std::vector<Simulator::CalendarEntry> calendar;
  std::vector<RateChange> rate_changes;
  std::vector<JobId> arrival_order;
  std::vector<FlowId> done;
  std::vector<Rate> capacities;
  std::vector<FaultEvent> fault_events;
  std::vector<char> host_down;
  std::vector<char> link_down;
  std::vector<double> straggler;
  std::vector<Rate> saved_capacity;
  std::vector<FlowId> parked;
  std::vector<Simulator::RetryEntry> retries;
  std::vector<FlowId> capped;
  RateAllocator allocator;  ///< recycled whole: reset() reuses its arrays
};

}  // namespace gurita
