// Paper-workload benchmark: the §V evaluation settings of the Gurita paper
// driven end to end through the library's public API, with a separate
// traced run that attributes the wall time to layers.
//
//   paperbench --workload fig5-trace-8pod|fig7-bursty-48pod|stream-daemon-4pod
//              --seed N --seconds S --trace 0|1 [--run-dir DIR]
//              [--size full|tiny] [--corrupt-expected]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run (phase profiler, allocator
// and memory diagnostics, and a timing decorator around every scheduler)
// plus a reconciliation table showing that the layers add up to the wall.
// Every run passes through an output gate (all jobs complete, JCT above the
// offline lower bound, repeated runs byte-identical, daemon conservation and
// crash recovery); failures count into `failed`. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bound/bound.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "service/daemon.h"
#include "snapshot/snapshot.h"
#include "timing_scheduler.h"
#include "topology/fattree.h"
#include "workload/open_loop.h"
#include "workload/trace_gen.h"

namespace paperbench {
namespace {

using gurita::JobSpec;
using gurita::SimResults;
using Clock = std::chrono::steady_clock;

const std::vector<std::string> kSchedulers = {"pfs", "baraat", "stream",
                                              "aalo", "gurita"};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over the serialized results (jobs, coflows, counters, trace):
/// the bytes a determinism check compares. Profile and diagnostics are
/// wall-clock telemetry and are not serialized.
std::uint64_t fingerprint(const SimResults& results) {
  gurita::snapshot::Writer w;
  gurita::snapshot::save_results(w, results);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : w.buffer()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".";
  bool tiny = false;
  bool corrupt_expected = false;
};

// ------------------------------------------------------------ output gate

/// Counts attempted runs and the ones that threw or failed an output check.
class Gate {
 public:
  explicit Gate(bool corrupt_expected) : corrupt_(corrupt_expected) {}

  /// Factor applied to every expected lower bound. --corrupt-expected
  /// inflates it so no run can meet it: the smoke test's proof that a
  /// wrong expectation surfaces as failures.
  [[nodiscard]] double bound_factor() const { return corrupt_ ? 1e3 : 1.0; }

  /// Runs `body` as one attempted run: it fails when `body` throws or
  /// returns a non-empty list of problems.
  void attempt(const std::string& label,
               const std::function<std::vector<std::string>()>& body) {
    std::vector<std::string> problems;
    try {
      problems = body();
    } catch (const std::exception& e) {
      problems.push_back(std::string("threw: ") + e.what());
    }
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& p : problems)
      if (messages_.size() < 20) messages_.push_back(label + ": " + p);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  bool corrupt_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Checks shared by every run: all `expected_jobs` jobs completed, none
/// failed, and the average JCT is no better than the offline lower bound.
std::vector<std::string> check_results(const SimResults& r,
                                       std::size_t expected_jobs,
                                       double bound) {
  std::vector<std::string> problems;
  if (r.jobs.size() != expected_jobs)
    problems.push_back("completed " + std::to_string(r.jobs.size()) +
                       " of " + std::to_string(expected_jobs) + " jobs");
  std::size_t bad = 0;
  for (const SimResults::JobResult& j : r.jobs)
    if (j.failed || !(j.finish >= j.arrival)) ++bad;
  if (bad > 0 || r.failed_jobs > 0)
    problems.push_back(std::to_string(bad) + " jobs failed or unfinished");
  const double avg = r.average_jct();
  if (!(avg >= bound * (1 - 1e-9))) {
    std::ostringstream os;
    os.precision(17);
    os << "average JCT " << avg << " s below the lower bound " << bound
       << " s";
    problems.push_back(os.str());
  }
  return problems;
}

/// Records `fp` as the expected fingerprint of `key` on first sight and
/// compares against it afterwards.
std::vector<std::string> check_repeat(std::map<std::string, std::uint64_t>& seen,
                                      const std::string& key,
                                      std::uint64_t fp) {
  const auto [it, fresh] = seen.emplace(key, fp);
  if (fresh || it->second == fp) return {};
  return {"result bytes differ from the first run of " + key};
}

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  void print_table(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-34s %18.6f  %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      os << line;
    }
  }

  [[nodiscard]] std::string json(const Gate& gate) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << gate.attempted()
       << ", \"failed\": " << gate.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
};

void add_ok_rate(Report& out, const Gate& gate) {
  out.add("ok_rate",
          1.0 - static_cast<double>(gate.failed()) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, gate.attempted())),
          "ratio");
}

// ------------------------------------------------------- per-layer tallies

/// Layer totals of the traced legs, summed over rounds.
struct LayerTally {
  gurita::obs::PhaseProfile profile;
  gurita::AllocStats alloc;
  gurita::obs::MemoryAccountant memory;
  SchedulerTimes sched;
  std::map<std::string, double> sched_run_s;  ///< traced wall per policy
  /// Engine calls between run_to slices (admit/compact of the streaming
  /// drive), timed from here; the profiler charges them to calendar_drain.
  double unphased_s = 0;
  std::uint64_t events = 0;
  std::uint64_t flow_touches = 0;
  int rounds = 0;

  void add_run(const SimResults& r) {
    profile.merge(r.profile);
    alloc.merge(r.diagnostics.alloc);
    memory.merge(r.diagnostics.memory);
    events += r.events;
    flow_touches += r.flow_touches;
  }
};

double phase_s(const gurita::obs::PhaseProfile& p, gurita::obs::Phase phase) {
  return static_cast<double>(p.phases[static_cast<std::size_t>(phase)].ns) *
         1e-9;
}

/// A phase's seconds with the stretches between run_to slices, which the
/// profiler charges to calendar_drain, moved out of that phase.
double layer_s(const LayerTally& t, gurita::obs::Phase phase) {
  const double s = phase_s(t.profile, phase);
  return phase == gurita::obs::Phase::kCalendarDrain ? s - t.unphased_s : s;
}

/// Snapshot split leg: pause at about half the makespan, checkpoint,
/// restore into a freshly built simulator, finish, and compare bytes with
/// the uninterrupted run.
struct SplitTimes {
  double checkpoint_s = 0;
  double restore_s = 0;
  double bytes = 0;
};

SplitTimes snapshot_split(Gate& gate, const gurita::FatTree& fabric,
                          const std::vector<JobSpec>& jobs,
                          const SimResults& uninterrupted, int reps) {
  std::vector<double> ckpt, rest;
  double bytes = 0;
  const std::uint64_t want = fingerprint(uninterrupted);
  for (int rep = 0; rep < reps; ++rep) {
    gate.attempt("snapshot split", [&] {
      std::string payload;
      {
        const auto sched = gurita::make_scheduler("gurita");
        gurita::Simulator sim(fabric, *sched);
        for (const JobSpec& j : jobs) sim.submit(j);
        (void)sim.run_until(0.5 * uninterrupted.makespan);
        gurita::snapshot::Writer w;
        const auto t0 = Clock::now();
        sim.checkpoint(w);
        ckpt.push_back(since(t0));
        payload = w.buffer();
      }
      bytes = static_cast<double>(payload.size());
      const auto sched = gurita::make_scheduler("gurita");
      gurita::Simulator sim(fabric, *sched);
      for (const JobSpec& j : jobs) sim.submit(j);
      gurita::snapshot::Reader r(payload);
      const auto t0 = Clock::now();
      sim.restore(r);
      rest.push_back(since(t0));
      const SimResults resumed = sim.finish();
      if (fingerprint(resumed) != want)
        return std::vector<std::string>{
            "checkpoint/restore split changed the result bytes"};
      return std::vector<std::string>{};
    });
  }
  return SplitTimes{median(ckpt), median(rest), bytes};
}

/// Per-layer metrics shared by every workload, in BENCHMARK.json order.
void add_layer_metrics(Report& out, const LayerTally& t, double generate_s,
                       double build_s) {
  using gurita::obs::Phase;
  const double rounds = std::max(1, t.rounds);
  const gurita::obs::PhaseProfile& p = t.profile;
  out.add("workload.generate_s", generate_s, "s");
  out.add("topology.build_s", build_s, "s");
  const double wall = static_cast<double>(p.run_wall_ns) * 1e-9;
  out.add("flowsim.engine_wall_s", wall / rounds, "s");
  const std::pair<const char*, Phase> phases[] = {
      {"flowsim.alloc_converge_s", Phase::kAllocConverge},
      {"flowsim.alloc_frontier_s", Phase::kAllocFrontier},
      {"flowsim.calendar_drain_s", Phase::kCalendarDrain},
      {"flowsim.allocator_s", Phase::kAllocator},
      {"flowsim.scheduler_assign_s", Phase::kSchedulerAssign},
      {"flowsim.dag_release_s", Phase::kDagRelease},
      {"flowsim.completion_s", Phase::kCompletion},
      {"flowsim.arrival_s", Phase::kArrival},
      {"flowsim.tick_s", Phase::kTick},
  };
  for (const auto& [name, phase] : phases)
    out.add(name, layer_s(t, phase) / rounds, "s");
  out.add("flowsim.between_slices_s", t.unphased_s / rounds, "s");
  out.add("flowsim.phase_coverage", wall > 0 ? p.coverage() : 0, "ratio");
  out.add("flowsim.events", static_cast<double>(t.events) / rounds, "count");
  out.add("flowsim.flow_touches", static_cast<double>(t.flow_touches) / rounds,
          "count");
  const double allocs = static_cast<double>(t.alloc.allocations);
  out.add("flowsim.allocations", allocs / rounds, "count");
  out.add("flowsim.flows_per_allocation",
          allocs > 0 ? static_cast<double>(t.alloc.flows_solved) / allocs : 0,
          "count");
  out.add("flowsim.components_per_allocation",
          allocs > 0 ? static_cast<double>(t.alloc.components_solved) / allocs
                     : 0,
          "count");
  out.add("flowsim.component_flows_p50",
          t.alloc.component_flows.total() > 0
              ? t.alloc.component_flows.percentile(50)
              : 0,
          "count");
  using Sub = gurita::obs::MemoryAccountant::Subsystem;
  out.add("mem.calendar_peak_bytes",
          static_cast<double>(t.memory.peak(Sub::kCalendar)), "bytes");
  out.add("mem.allocator_peak_bytes",
          static_cast<double>(t.memory.peak(Sub::kAllocator)), "bytes");
  out.add("mem.state_peak_bytes",
          static_cast<double>(t.memory.peak(Sub::kState)), "bytes");
  out.add("mem.total_peak_bytes", static_cast<double>(t.memory.peak_total()),
          "bytes");
  const SchedulerTimes& s = t.sched;
  out.add("sched.assign_s", static_cast<double>(s.assign_ns) * 1e-9 / rounds,
          "s");
  out.add("sched.assign_calls", static_cast<double>(s.assign_calls) / rounds,
          "count");
  out.add("sched.assign_flows_per_call",
          s.assign_calls > 0 ? static_cast<double>(s.assign_flows) /
                                   static_cast<double>(s.assign_calls)
                             : 0,
          "count");
  out.add("sched.on_tick_s", static_cast<double>(s.tick_ns) * 1e-9 / rounds,
          "s");
  out.add("sched.hooks_s", static_cast<double>(s.hooks_ns) * 1e-9 / rounds,
          "s");
  for (const std::string& name : kSchedulers) {
    const auto it = t.sched_run_s.find(name);
    out.add("sched." + name + ".run_s",
            it == t.sched_run_s.end() ? 0 : it->second / rounds, "s");
  }
}

/// Layer seconds against the traced engine wall, and the scheduler
/// decorator's run walls against the untraced wall.
void print_reconciliation(std::ostream& os, const std::string& workload,
                          const LayerTally& t, double untraced_round_s) {
  using gurita::obs::Phase;
  const double rounds = std::max(1, t.rounds);
  const double wall = static_cast<double>(t.profile.run_wall_ns) * 1e-9;
  os << "reconciliation (" << workload << ", per round, traced run):\n";
  char line[160];
  double covered = 0;
  for (int i = 0; i < gurita::obs::kNumPhases; ++i) {
    const double s = layer_s(t, static_cast<Phase>(i));
    covered += s;
    std::snprintf(line, sizeof line, "  %-28s %12.6f s  %6.2f%%\n",
                  gurita::obs::phase_name(static_cast<Phase>(i)), s / rounds,
                  wall > 0 ? 100 * s / wall : 0.0);
    os << line;
  }
  if (t.unphased_s > 0) {
    covered += t.unphased_s;
    std::snprintf(line, sizeof line, "  %-28s %12.6f s  %6.2f%%\n",
                  "between run_to slices", t.unphased_s / rounds,
                  wall > 0 ? 100 * t.unphased_s / wall : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "  %-28s %12.6f s  coverage %.4f%%\n", "engine wall",
                wall / rounds, wall > 0 ? 100 * covered / wall : 0.0);
  os << line;
  if (covered < 0.999 * wall)
    os << "  phases cover less than 99.9% of the engine wall; the rest is "
          "event-loop code outside every profiler phase\n";
  const SchedulerTimes& s = t.sched;
  std::snprintf(line, sizeof line,
                "  decorator: assign %.6f s (%.2f%% of scheduler_assign), "
                "on_tick %.6f s, hooks %.6f s, state %.6f s\n",
                static_cast<double>(s.assign_ns) * 1e-9 / rounds,
                phase_s(t.profile, Phase::kSchedulerAssign) > 0
                    ? 100 * static_cast<double>(s.assign_ns) * 1e-9 /
                          phase_s(t.profile, Phase::kSchedulerAssign)
                    : 0.0,
                static_cast<double>(s.tick_ns) * 1e-9 / rounds,
                static_cast<double>(s.hooks_ns) * 1e-9 / rounds,
                static_cast<double>(s.state_ns) * 1e-9 / rounds);
  os << line;
  double run_sum = 0;
  for (const auto& [name, sec] : t.sched_run_s) run_sum += sec;
  std::snprintf(line, sizeof line,
                "  sum sched.<name>.run_s %.6f s = engine wall + %.6f s "
                "outside run(); untraced wall %.6f s -> trace overhead "
                "%.4fx\n",
                run_sum / rounds, (run_sum - wall) / rounds, untraced_round_s,
                untraced_round_s > 0 ? run_sum / rounds / untraced_round_s
                                     : 0.0);
  os << line;
}

// -------------------------------------------------------- input size class

/// How much work a job set asks of the simulator (its flow count) and how
/// long its jobs must take (the offline lower bound on their average JCT,
/// bound/bound.h). The generator's job sizes are heavy-tailed: two seeds
/// can differ tenfold in both, and so in simulation cost and in JCT. The
/// benchmark draws its inputs from one size class so that its figures
/// measure the program, not the seed.
struct SizeClass {
  double flows = 0;
  double jct_bound = 0;
};

constexpr double kFlowBand = 0.10;   ///< accepted: flows within ±10%
constexpr double kBoundBand = 0.10;  ///< accepted: JCT bound within ±10%
constexpr int kCalibrationDraws = 63;
constexpr std::uint64_t kMaxDraws = 100000;
/// Seed of the calibration draws: fixed, so every --seed shares one size
/// class.
constexpr std::uint64_t kCalibrationSeed = 0x9a7e4b1dull;
/// Set-up is repeated for about this long and reported as a median.
constexpr double kSetupSeconds = 0.5;

double flow_count(const std::vector<JobSpec>& jobs) {
  double flows = 0;
  for (const JobSpec& job : jobs)
    for (const gurita::CoflowSpec& c : job.coflows)
      flows += static_cast<double>(c.flows.size());
  return flows;
}

/// Makes the job set of draw number `i`.
using JobSource = std::function<std::vector<JobSpec>(std::uint64_t)>;
/// Lower bound on a job set's average JCT.
using JctBound = std::function<double(const std::vector<JobSpec>&)>;

/// The size class's centre: median flows and median bound of the
/// calibration draws.
SizeClass calibrate(const JobSource& make, const JctBound& bound) {
  std::vector<double> flows, bounds;
  for (int i = 0; i < kCalibrationDraws; ++i) {
    const std::vector<JobSpec> jobs = make(static_cast<std::uint64_t>(i));
    flows.push_back(flow_count(jobs));
    bounds.push_back(bound(jobs));
  }
  return SizeClass{median(flows), median(bounds)};
}

/// Draws make(0), make(1), ... until a job set falls in the size class;
/// returns its draw number and jobs.
std::pair<std::uint64_t, std::vector<JobSpec>> draw_in_class(
    const JobSource& make, const JctBound& bound, const SizeClass& target) {
  for (std::uint64_t i = 0; i < kMaxDraws; ++i) {
    std::vector<JobSpec> jobs = make(i);
    if (std::abs(flow_count(jobs) / target.flows - 1) > kFlowBand) continue;
    if (std::abs(bound(jobs) / target.jct_bound - 1) > kBoundBand) continue;
    return {i, std::move(jobs)};
  }
  throw std::runtime_error("no job set in the size class after " +
                           std::to_string(kMaxDraws) + " draws");
}

// ---------------------------------------------------------- batch workloads

struct BatchWorkload {
  std::string name;
  int k = 8;
  gurita::ArrivalPattern arrivals = gurita::ArrivalPattern::kPoisson;
  int jobs = 0;        ///< jobs per instance
  int min_rounds = 0;  ///< rounds always run; avg_jct_s pools these
};

/// One generated job set of a round.
struct Instance {
  std::string label;          ///< "r<round>/<structure>"
  gurita::TraceConfig trace;  ///< accepted config; regenerates `jobs`
  std::vector<JobSpec> jobs;
  double bound = 0;  ///< lower bound on average JCT (bound/bound.h)
};

/// Totals of one round (every instance under every scheduler).
struct RoundResult {
  double wall = 0;
  std::uint64_t events = 0;
  double gurita_jct_sum = 0;  ///< summed JCT of Gurita's jobs
  std::size_t gurita_jobs = 0;
};

class BatchBench {
 public:
  BatchBench(const BatchWorkload& w, const Options& o, Gate& gate)
      : w_(w), opts_(o), gate_(gate) {
    config_ = w.arrivals == gurita::ArrivalPattern::kBursty
                  ? gurita::bursty_scenario(gurita::StructureKind::kFbTao,
                                            w.jobs, o.seed, w.k)
                  : gurita::trace_scenario(gurita::StructureKind::kFbTao,
                                           w.jobs, o.seed);
    config_.fat_tree_k = w.k;
    for (std::size_t s = 0; s < kStructures.size(); ++s)
      targets_.push_back(
          calibrate(source(s, kCalibrationSeed, 0), jct_bound()));
  }

  void end_to_end(Report& out) {
    const std::vector<std::vector<Instance>> fixed = fixed_rounds();
    const double setup_s = setup(fixed);
    std::vector<double> walls;
    double wall_total = 0, jct_sum = 0;
    std::uint64_t events_total = 0;
    std::size_t jct_jobs = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < w_.min_rounds || since(t0) < opts_.seconds; ++r) {
      const RoundResult rr = run_round(
          r < w_.min_rounds ? fixed[static_cast<std::size_t>(r)]
                            : draw_round(r),
          nullptr);
      walls.push_back(rr.wall);
      wall_total += rr.wall;
      events_total += rr.events;
      if (r < w_.min_rounds) {
        jct_sum += rr.gurita_jct_sum;
        jct_jobs += rr.gurita_jobs;
      }
    }
    // Repeat the first round: its result bytes must not change.
    (void)run_round(fixed.front(), nullptr);
    out.add("wall_s", median(walls), "s");
    out.add("events_per_s", static_cast<double>(events_total) / wall_total,
            "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", setup_s, "s");
    out.add("avg_jct_s", jct_sum / static_cast<double>(jct_jobs), "sim_s");
    add_ok_rate(out, gate_);
    std::cout << walls.size() << " rounds of " << fixed.front().size()
              << " instances x " << kSchedulers.size() << " schedulers ("
              << w_.jobs << " jobs each)\n";
  }

  void traced(Report& out) {
    const std::vector<std::vector<Instance>> fixed = fixed_rounds();
    (void)setup(fixed);
    // Each round runs untraced, then traced on the same inputs: the traced
    // results must be byte-identical and the pair gives the overhead.
    LayerTally tally;
    double untraced = 0, traced = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < 1 || since(t0) < 0.85 * opts_.seconds; ++r) {
      const std::vector<Instance> round =
          r < w_.min_rounds ? fixed[static_cast<std::size_t>(r)]
                            : draw_round(r);
      untraced += run_round(round, nullptr).wall;
      traced += run_round(round, &tally).wall;
    }
    const gurita::FatTree fabric(gurita::FatTree::Config{
        w_.k, config_.link_capacity, config_.ecmp_salt});
    const SplitTimes split =
        snapshot_split(gate_, fabric, fixed.front().front().jobs, *reference_,
                       3);

    add_layer_metrics(out, tally, generate_s_, build_s_);
    out.add("snapshot.checkpoint_s", split.checkpoint_s, "s");
    out.add("snapshot.restore_s", split.restore_s, "s");
    out.add("snapshot.bytes", split.bytes, "bytes");
    // The daemon layer is not exercised by a batch workload.
    out.add("service.checkpoint_share", 0, "ratio");
    out.add("service.recover_s", 0, "s");
    out.add("service.compactions", 0, "count");
    out.add("service.admitted", 0, "count");
    out.add("service.peak_live_jobs", 0, "count");
    out.add("obs.trace_overhead", traced / untraced, "ratio");
    print_reconciliation(std::cout, w_.name, tally, untraced / tally.rounds);
  }

 private:
  static constexpr std::array<gurita::StructureKind, 2> kStructures = {
      gurita::StructureKind::kFbTao, gurita::StructureKind::kTpcDs};

  [[nodiscard]] gurita::TraceConfig trace_config(std::size_t s,
                                                 std::uint64_t seed) const {
    gurita::TraceConfig trace = config_.trace;
    trace.structure = kStructures[s];
    trace.num_hosts = w_.k * w_.k * w_.k / 4;
    trace.seed = seed;
    return trace;
  }

  [[nodiscard]] JctBound jct_bound() const {
    const int hosts = w_.k * w_.k * w_.k / 4;
    const gurita::Rate capacity = config_.link_capacity;
    return [hosts, capacity](const std::vector<JobSpec>& jobs) {
      return gurita::BoundAnalysis(jobs, hosts, capacity).average_jct_bound();
    };
  }

  /// Trace seed of draw `i` of structure `s` in round `r` of the run
  /// seeded `seed`.
  [[nodiscard]] std::uint64_t draw_seed(std::size_t s, std::uint64_t seed,
                                        int r, std::uint64_t i) const {
    return gurita::derive_run_seed(
        gurita::derive_run_seed(seed, w_.name, s,
                                static_cast<std::uint64_t>(r)),
        "draw", 0, i);
  }

  /// Job sets of structure `s` in round `r` of the run seeded `seed`.
  [[nodiscard]] JobSource source(std::size_t s, std::uint64_t seed,
                                 int r) const {
    return [this, s, seed, r](std::uint64_t i) {
      return gurita::generate_trace(trace_config(s, draw_seed(s, seed, r, i)));
    };
  }

  [[nodiscard]] std::vector<Instance> draw_round(int r) const {
    std::vector<Instance> round;
    for (std::size_t s = 0; s < kStructures.size(); ++s) {
      auto [draw, jobs] =
          draw_in_class(source(s, opts_.seed, r), jct_bound(), targets_[s]);
      Instance inst;
      inst.label = "r" + std::to_string(r) + "/" +
                   gurita::to_string(kStructures[s]);
      inst.trace = trace_config(s, draw_seed(s, opts_.seed, r, draw));
      inst.jobs = std::move(jobs);
      inst.bound = jct_bound()(inst.jobs) * gate_.bound_factor();
      round.push_back(std::move(inst));
    }
    return round;
  }

  /// The first min_rounds rounds: fixed by the seed, so their set-up is
  /// the workload's set-up and Gurita's JCT over them is avg_jct_s.
  [[nodiscard]] std::vector<std::vector<Instance>> fixed_rounds() const {
    std::vector<std::vector<Instance>> rounds;
    for (int r = 0; r < w_.min_rounds; ++r) rounds.push_back(draw_round(r));
    return rounds;
  }

  /// Trace generation + fabric build + submit of `rounds`, repeated for
  /// about kSetupSeconds (3 to 51 times); returns the median total.
  double setup(const std::vector<std::vector<Instance>>& rounds) {
    std::vector<double> total, gen, build;
    const auto start = Clock::now();
    while (total.size() < 3 ||
           (total.size() < 51 && since(start) < kSetupSeconds)) {
      const auto t0 = Clock::now();
      std::vector<std::vector<JobSpec>> jobs;
      for (const std::vector<Instance>& round : rounds)
        for (const Instance& inst : round)
          jobs.push_back(gurita::generate_trace(inst.trace));
      const auto t1 = Clock::now();
      const gurita::FatTree fabric(gurita::FatTree::Config{
          w_.k, config_.link_capacity, config_.ecmp_salt});
      const auto t2 = Clock::now();
      for (const std::vector<JobSpec>& set : jobs) {
        const auto sched = gurita::make_scheduler("gurita");
        gurita::Simulator sim(fabric, *sched);
        for (const JobSpec& j : set) sim.submit(j);
      }
      const auto t3 = Clock::now();
      total.push_back(std::chrono::duration<double>(t3 - t0).count());
      gen.push_back(std::chrono::duration<double>(t1 - t0).count());
      build.push_back(std::chrono::duration<double>(t2 - t1).count());
    }
    generate_s_ = median(gen);
    build_s_ = median(build);
    // Fill run_one's per-thread fabric cache outside the timed rounds.
    const auto sched = gurita::make_scheduler("pfs");
    (void)gurita::run_one(config_, {}, *sched);
    return median(total);
  }

  /// Every instance of `round` under every scheduler. With `tally` set the
  /// runs are traced (profile, diagnostics, timing decorator).
  RoundResult run_round(const std::vector<Instance>& round,
                        LayerTally* tally) {
    gurita::ExperimentConfig config = config_;
    config.obs.profile = tally != nullptr;
    config.obs.diagnostics = tally != nullptr;
    RoundResult out;
    for (const Instance& inst : round) {
      for (const std::string& name : kSchedulers) {
        const std::string key = inst.label + "/" + name;
        gate_.attempt(key, [&] {
          auto inner = gurita::make_scheduler(name);
          std::optional<TimingScheduler> timed;
          gurita::Scheduler* sched = inner.get();
          if (tally != nullptr) {
            timed.emplace(std::move(inner));
            sched = &*timed;
          }
          const auto t0 = Clock::now();
          SimResults r = gurita::run_one(config, inst.jobs, *sched);
          const double s = since(t0);
          out.wall += s;
          out.events += r.events;
          if (tally != nullptr) {
            tally->add_run(r);
            tally->sched.merge(timed->times());
            tally->sched_run_s[name] += s;
          }
          std::vector<std::string> problems =
              check_results(r, inst.jobs.size(), inst.bound);
          for (std::string& p :
               check_repeat(fingerprints_, key, fingerprint(r)))
            problems.push_back(std::move(p));
          if (name == "gurita") {
            out.gurita_jct_sum +=
                r.average_jct() * static_cast<double>(r.jobs.size());
            out.gurita_jobs += r.jobs.size();
            if (!reference_) reference_ = std::move(r);
          }
          return problems;
        });
      }
    }
    if (tally != nullptr) ++tally->rounds;
    return out;
  }

  BatchWorkload w_;
  Options opts_;
  Gate& gate_;
  gurita::ExperimentConfig config_;
  std::vector<SizeClass> targets_;  ///< per structure
  std::map<std::string, std::uint64_t> fingerprints_;
  /// Gurita's results on the first instance: the snapshot split's oracle.
  std::optional<SimResults> reference_;
  double generate_s_ = 0;
  double build_s_ = 0;
};

// ---------------------------------------------------------- stream workload

/// Completion times keyed by arrival, for comparing two drives of one
/// stream whose job ids differ.
std::vector<std::pair<double, double>> completions(const SimResults& r) {
  std::vector<std::pair<double, double>> out;
  for (const SimResults::JobResult& j : r.jobs)
    out.emplace_back(j.arrival, j.finish);
  std::sort(out.begin(), out.end());
  return out;
}

class StreamBench {
 public:
  StreamBench(const Options& o, Gate& gate) : opts_(o), gate_(gate) {
    jobs_ = o.tiny ? 20 : 200;
    min_rounds_ = o.tiny ? 1 : 16;
    base_.scheduler = "gurita";
    base_.fat_tree_k = 4;
    base_.max_jobs = jobs_;
    base_.poll_signals = false;
    base_.open_loop.arrivals = gurita::ArrivalPattern::kPoisson;
    base_.open_loop.load = 0.7;
    base_.open_loop.service_rate = hosts() * base_.link_capacity;
    base_.checkpoint_path =
        (std::filesystem::path(o.run_dir) / "stream.ckpt").string();
    std::filesystem::create_directories(o.run_dir);
    target_ = calibrate(source(kCalibrationSeed, 0), jct_bound());
  }

  ~StreamBench() {
    std::error_code ec;
    std::filesystem::remove(base_.checkpoint_path, ec);
  }
  StreamBench(const StreamBench&) = delete;
  StreamBench& operator=(const StreamBench&) = delete;

  void end_to_end(Report& out) {
    std::vector<Stream> fixed;
    for (int r = 0; r < min_rounds_; ++r) fixed.push_back(draw_stream(r));
    const double setup_s = setup(fixed);
    std::vector<double> walls;
    double wall_total = 0, jct_sum = 0;
    std::uint64_t events_total = 0;
    std::size_t jct_jobs = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < min_rounds_ || since(t0) < opts_.seconds; ++r) {
      const Stream s = r < min_rounds_ ? fixed[static_cast<std::size_t>(r)]
                                       : draw_stream(r);
      const DaemonRun run = run_daemon(s, s.options);
      if (r == 0) (void)check_recovery(s);
      if (!run.ran) continue;
      walls.push_back(run.wall_s);
      wall_total += run.wall_s;
      events_total += run.events;
      if (r < min_rounds_) {
        jct_sum += run.jct_sum;
        jct_jobs += run.jobs;
      }
    }
    // Repeat the first stream: its result bytes must not change.
    (void)run_daemon(fixed.front(), fixed.front().options);
    out.add("wall_s", median(walls), "s");
    out.add("events_per_s",
            wall_total > 0 ? static_cast<double>(events_total) / wall_total
                           : 0,
            "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("setup_s", setup_s, "s");
    out.add("avg_jct_s",
            jct_jobs > 0 ? jct_sum / static_cast<double>(jct_jobs) : 0,
            "sim_s");
    add_ok_rate(out, gate_);
    std::cout << walls.size() << " daemon runs of " << jobs_ << " jobs\n";
  }

  void traced(Report& out) {
    std::vector<Stream> fixed;
    for (int r = 0; r < min_rounds_; ++r) fixed.push_back(draw_stream(r));
    const Stream& first = fixed.front();
    std::vector<double> gen_s, build_s;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = Clock::now();
      for (const Stream& s : fixed) (void)s.make();
      gen_s.push_back(since(t0));
      t0 = Clock::now();
      const gurita::FatTree fabric(gurita::FatTree::Config{
          base_.fat_tree_k, base_.link_capacity, base_.ecmp_salt});
      build_s.push_back(since(t0));
    }

    // Per round: the daemon with and without its checkpoint cadence (the
    // checkpoint share) and a traced replay of the same stream.
    LayerTally tally;
    double with_ckpt = 0, without_ckpt = 0, replayed = 0, recover_s = 0;
    DaemonRun first_run;
    const auto t0 = Clock::now();
    for (int r = 0; r < 1 || since(t0) < 0.85 * opts_.seconds; ++r) {
      const Stream s = r < min_rounds_ ? fixed[static_cast<std::size_t>(r)]
                                       : draw_stream(r);
      const DaemonRun a = run_daemon(s, s.options);
      if (r == 0) {
        recover_s = check_recovery(s);
        first_run = a;
      }
      gurita::service::DaemonOptions plain = s.options;
      plain.checkpoint_every = 0;
      plain.checkpoint_path.clear();
      const DaemonRun b = run_daemon(s, plain);
      const double c = replay(s, b, tally);
      if (!a.ran || !b.ran || c == 0) break;
      with_ckpt += a.wall_s;
      without_ckpt += b.wall_s;
      replayed += c;
    }

    const gurita::FatTree fabric(gurita::FatTree::Config{
        base_.fat_tree_k, base_.link_capacity, base_.ecmp_salt});
    SimResults uninterrupted;
    {
      const auto sched = gurita::make_scheduler(base_.scheduler);
      gurita::Simulator sim(fabric, *sched);
      for (const JobSpec& j : first.jobs) sim.submit(j);
      uninterrupted = sim.run();
    }
    const SplitTimes split =
        snapshot_split(gate_, fabric, first.jobs, uninterrupted, 3);

    add_layer_metrics(out, tally, median(gen_s), median(build_s));
    out.add("snapshot.checkpoint_s", split.checkpoint_s, "s");
    out.add("snapshot.restore_s", split.restore_s, "s");
    out.add("snapshot.bytes", split.bytes, "bytes");
    out.add("service.checkpoint_share",
            with_ckpt > 0 ? 1.0 - without_ckpt / with_ckpt : 0, "ratio");
    out.add("service.recover_s", recover_s, "s");
    out.add("service.compactions", static_cast<double>(first_run.compactions),
            "count");
    out.add("service.admitted", static_cast<double>(first_run.admitted),
            "count");
    out.add("service.peak_live_jobs",
            static_cast<double>(first_run.peak_live_jobs), "count");
    out.add("obs.trace_overhead",
            without_ckpt > 0 ? replayed / without_ckpt : 0, "ratio");
    print_reconciliation(std::cout, "stream-daemon-4pod", tally,
                         without_ckpt / std::max(1, tally.rounds));
  }

 private:
  /// About one auto-checkpoint per this many arrivals.
  static constexpr double kJobsPerCheckpoint = 10;

  /// One daemon input: the generator config and the jobs it will offer.
  struct Stream {
    std::string label;
    gurita::service::DaemonOptions options;
    gurita::OpenLoopGenerator::Config generator;
    std::vector<JobSpec> jobs;
    double bound = 0;

    [[nodiscard]] std::vector<JobSpec> make() const {
      gurita::OpenLoopGenerator gen(generator);
      std::vector<JobSpec> out;
      for (std::uint64_t i = 0; i < options.max_jobs; ++i)
        out.push_back(gen.next());
      return out;
    }
  };

  struct DaemonRun {
    bool ran = false;  ///< the daemon returned a report
    bool ok = false;   ///< ... and it passed every check
    double wall_s = 0;
    std::uint64_t events = 0;
    double jct_sum = 0;
    std::size_t jobs = 0;
    std::uint64_t compactions = 0;
    std::uint64_t admitted = 0;
    std::size_t peak_live_jobs = 0;
    std::vector<std::pair<double, double>> completions;
  };

  [[nodiscard]] int hosts() const {
    return base_.fat_tree_k * base_.fat_tree_k * base_.fat_tree_k / 4;
  }

  [[nodiscard]] gurita::OpenLoopGenerator::Config generator_for(
      const gurita::service::DaemonOptions& options) const {
    // The daemon fills in the host count the same way.
    gurita::OpenLoopGenerator::Config gen = options.open_loop;
    gen.shape.num_hosts = hosts();
    return gen;
  }

  /// The stream of shape seed `shape_seed`, with arrivals spaced so that
  /// its own bytes offer load 0.7. The generator would otherwise set the
  /// spacing from 64 heavy-tailed probe jobs, and the realised load, and
  /// with it queueing and the simulated span, would vary severalfold
  /// between seeds. Job bodies do not depend on the spacing.
  [[nodiscard]] Stream make_stream(std::uint64_t shape_seed) const {
    Stream s;
    gurita::service::DaemonOptions& o = s.options;
    o = base_;
    o.open_loop.shape.seed = shape_seed;
    s.generator = generator_for(o);
    double bytes = 0;
    for (const JobSpec& j : s.make()) bytes += j.total_bytes();
    o.open_loop.mean_interarrival =
        bytes / static_cast<double>(jobs_) /
        (o.open_loop.load * o.open_loop.service_rate);
    o.checkpoint_every = kJobsPerCheckpoint * o.open_loop.mean_interarrival;
    s.generator = generator_for(o);
    s.jobs = s.make();
    return s;
  }

  [[nodiscard]] static std::uint64_t draw_seed(std::uint64_t seed, int r,
                                               std::uint64_t i) {
    return gurita::derive_run_seed(
        gurita::derive_run_seed(seed, "stream-daemon-4pod", 0,
                                static_cast<std::uint64_t>(r)),
        "draw", 0, i);
  }

  /// Streams of round `r` of the run seeded `seed`.
  [[nodiscard]] JobSource source(std::uint64_t seed, int r) const {
    return [this, seed, r](std::uint64_t i) {
      return make_stream(draw_seed(seed, r, i)).jobs;
    };
  }

  [[nodiscard]] JctBound jct_bound() const {
    const int hosts = this->hosts();
    const gurita::Rate capacity = base_.link_capacity;
    return [hosts, capacity](const std::vector<JobSpec>& jobs) {
      return gurita::BoundAnalysis(jobs, hosts, capacity).average_jct_bound();
    };
  }

  [[nodiscard]] Stream draw_stream(int r) const {
    const std::uint64_t draw =
        draw_in_class(source(opts_.seed, r), jct_bound(), target_).first;
    Stream s = make_stream(draw_seed(opts_.seed, r, draw));
    s.label = "r" + std::to_string(r);
    s.bound = jct_bound()(s.jobs) * gate_.bound_factor();
    return s;
  }

  /// Generation of the offered jobs and daemon construction (fabric
  /// build, generator calibration) of `streams`, repeated for about
  /// kSetupSeconds (3 to 51 times); returns the median total.
  static double setup(const std::vector<Stream>& streams) {
    std::vector<double> total;
    const auto start = Clock::now();
    while (total.size() < 3 ||
           (total.size() < 51 && since(start) < kSetupSeconds)) {
      const auto t0 = Clock::now();
      for (const Stream& s : streams) {
        (void)s.make();
        const gurita::service::Daemon daemon(s.options);
      }
      total.push_back(since(t0));
    }
    return median(total);
  }

  /// Checks a finished daemon run: conservation, completion, the bound,
  /// and byte-identity with the first run of the same input.
  std::vector<std::string> check_report(
      const Stream& s, const gurita::service::DaemonReport& report,
      const std::string& key) {
    const SimResults& r = report.comparison.results.at(base_.scheduler);
    std::vector<std::string> problems;
    if (report.admitted + report.shed_total != jobs_)
      problems.push_back("admitted + shed != offered jobs");
    if (report.completed != report.admitted)
      problems.push_back("admitted " + std::to_string(report.admitted) +
                         " but completed " + std::to_string(report.completed));
    for (std::string& p : check_results(r, report.admitted, s.bound))
      problems.push_back(std::move(p));
    for (std::string& p : check_repeat(fingerprints_, key, fingerprint(r)))
      problems.push_back(std::move(p));
    return problems;
  }

  DaemonRun run_daemon(const Stream& s,
                       const gurita::service::DaemonOptions& options) {
    DaemonRun run;
    const std::string key =
        s.label + (options.checkpoint_every > 0 ? "/checkpointed" : "/plain");
    gate_.attempt(key, [&] {
      gurita::service::Daemon daemon(options);
      const auto t1 = Clock::now();
      const gurita::service::DaemonReport report = daemon.run();
      run.wall_s = since(t1);
      run.ran = true;
      const SimResults& r = report.comparison.results.at(options.scheduler);
      run.events = r.events;
      run.jct_sum = r.average_jct() * static_cast<double>(r.jobs.size());
      run.jobs = r.jobs.size();
      run.compactions = report.compactions;
      run.admitted = report.admitted;
      run.peak_live_jobs = report.peak_live_jobs;
      run.completions = completions(r);
      std::vector<std::string> problems = check_report(s, report, key);
      run.ok = problems.empty();
      return problems;
    });
    return run;
  }

  /// Daemon::recover from the last auto-checkpoint of `s` must reproduce
  /// the uninterrupted run. Returns the recovery wall time.
  double check_recovery(const Stream& s) {
    double seconds = 0;
    gate_.attempt(s.label + "/recover", [&] {
      if (!std::filesystem::exists(s.options.checkpoint_path))
        return std::vector<std::string>{"no checkpoint was written"};
      gurita::service::Daemon daemon(s.options);
      const auto t0 = Clock::now();
      const gurita::service::DaemonReport report =
          daemon.recover(s.options.checkpoint_path);
      seconds = since(t0);
      return check_report(s, report, s.label + "/checkpointed");
    });
    return seconds;
  }

  /// Times the stretch between two run_to slices (admit, compact). A
  /// run_to that pauses at its horizon returns with the profiler still in
  /// calendar_drain, so the engine charges this stretch to that phase; the
  /// span's time, less any other phase entered inside it, is recorded so
  /// the report can move it out of calendar_drain into its own row.
  class Unphased {
   public:
    Unphased(const gurita::obs::PhaseProfiler& profiler, double& total)
        : profiler_(profiler),
          total_(total),
          nested_(other_phases_ns(profiler)),
          start_(Clock::now()) {}
    ~Unphased() {
      const double nested =
          static_cast<double>(other_phases_ns(profiler_) - nested_) * 1e-9;
      total_ += since(start_) - nested;
    }
    Unphased(const Unphased&) = delete;
    Unphased& operator=(const Unphased&) = delete;

   private:
    static std::uint64_t other_phases_ns(
        const gurita::obs::PhaseProfiler& profiler) {
      const gurita::obs::PhaseProfile& p = profiler.snapshot();
      return p.tracked_ns() -
             p.phases[static_cast<std::size_t>(
                          gurita::obs::Phase::kCalendarDrain)]
                 .ns;
    }

    const gurita::obs::PhaseProfiler& profiler_;
    double& total_;
    std::uint64_t nested_;
    Clock::time_point start_;
  };

  /// Replays stream `s` through the engine's open-horizon calls, as the
  /// daemon drives them (admit at each arrival, compact on its cadence,
  /// run_to in between), with the profiler, memory accountant and timing
  /// decorator attached. Its completions must equal those of the daemon's
  /// uncheckpointed run `daemon`. Returns the replay's wall time (0 on
  /// failure).
  double replay(const Stream& s, const DaemonRun& daemon, LayerTally& tally) {
    double wall = 0;
    gate_.attempt(s.label + "/replay", [&] {
      const gurita::FatTree fabric(gurita::FatTree::Config{
          base_.fat_tree_k, base_.link_capacity, base_.ecmp_salt});
      gurita::obs::PhaseProfiler profiler;
      gurita::obs::MemoryAccountant memory;
      TimingScheduler sched(gurita::make_scheduler(base_.scheduler));
      gurita::Simulator::Config config;
      config.profiler = &profiler;
      config.memory = &memory;
      gurita::Simulator sim(fabric, sched, config);
      std::vector<SimResults::JobResult> done;
      double unphased = 0;
      const auto t0 = Clock::now();
      (void)sim.run_to(sim.now());
      std::size_t next = 0;
      gurita::Time next_compact = base_.compact_every;
      while (next < s.jobs.size() || sim.pending()) {
        const gurita::Time bound =
            next < s.jobs.size()
                ? std::min(s.jobs[next].arrival_time, next_compact)
                : next_compact;
        (void)sim.run_to(bound);
        const Unphased span(profiler, unphased);
        while (next < s.jobs.size() && s.jobs[next].arrival_time <= bound)
          (void)sim.admit(s.jobs[next++]);
        if (next_compact <= bound) {
          gurita::Simulator::Compaction c = sim.compact();
          done.insert(done.end(), c.jobs.begin(), c.jobs.end());
          next_compact += base_.compact_every;
        }
      }
      {
        const Unphased span(profiler, unphased);
        gurita::Simulator::Compaction c = sim.compact();
        done.insert(done.end(), c.jobs.begin(), c.jobs.end());
      }
      SimResults r = sim.finish();
      const double elapsed = since(t0);
      r.jobs = std::move(done);
      r.profile = profiler.snapshot();
      r.diagnostics.alloc = sim.allocator_stats();
      r.diagnostics.memory = memory;
      tally.add_run(r);
      tally.sched.merge(sched.times());
      tally.sched_run_s[base_.scheduler] += elapsed;
      tally.unphased_s += unphased;
      ++tally.rounds;
      std::vector<std::string> problems =
          check_results(r, s.jobs.size(), s.bound);
      if (completions(r) != daemon.completions)
        problems.push_back("replay completions differ from the daemon's");
      if (problems.empty()) wall = elapsed;
      return problems;
    });
    return wall;
  }

  Options opts_;
  Gate& gate_;
  std::uint64_t jobs_ = 0;
  int min_rounds_ = 0;
  gurita::service::DaemonOptions base_;
  SizeClass target_;
  std::map<std::string, std::uint64_t> fingerprints_;
};

// -------------------------------------------------------------------- main

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "paperbench: " << why
            << "\nusage: paperbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--run-dir DIR] [--size full|tiny] "
               "[--corrupt-expected]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-')
    usage("bad value '" + text + "' for " + flag);
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      o.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--run-dir") {
      o.run_dir = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size is full or tiny");
      o.tiny = value == "tiny";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  using namespace paperbench;
  const Options opts = parse(argc, argv);
  Gate gate(opts.corrupt_expected);
  Report report;

  std::optional<BatchWorkload> batch;
  if (opts.workload == "fig5-trace-8pod") {
    batch = BatchWorkload{opts.workload, 8, gurita::ArrivalPattern::kPoisson,
                          opts.tiny ? 4 : 20, opts.tiny ? 1 : 24};
  } else if (opts.workload == "fig7-bursty-48pod") {
    batch = BatchWorkload{opts.workload, 48, gurita::ArrivalPattern::kBursty,
                          opts.tiny ? 4 : 60, opts.tiny ? 1 : 16};
  } else if (opts.workload != "stream-daemon-4pod") {
    usage("unknown workload " + opts.workload);
  }

  std::cout << "paperbench " << opts.workload << " seed " << opts.seed
            << (opts.trace ? " (traced run)" : " (untraced run)") << "\n";
  try {
    if (batch) {
      BatchBench bench(*batch, opts, gate);
      if (opts.trace) bench.traced(report);
      else bench.end_to_end(report);
    } else {
      StreamBench bench(opts, gate);
      if (opts.trace) bench.traced(report);
      else bench.end_to_end(report);
    }
  } catch (const std::exception& e) {
    std::cerr << "paperbench: " << e.what() << "\n";
    return 1;
  }
  report.print_table(std::cout);
  for (const std::string& m : gate.messages())
    std::cout << "CHECK FAILED " << m << "\n";
  std::cout << report.json(gate) << std::endl;
  return 0;
}
