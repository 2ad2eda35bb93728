// Trace explorer. Two modes:
//
// Workload mode (default): generate a synthetic Facebook-like multi-stage
// trace and dump its statistics — category mix, width and depth
// distributions, byte skew — so users can sanity-check a workload before
// running experiments.
//
//   ./trace_explorer [--num-jobs 1000] [--seed 42]
//                    [--structure mixed|tpcds|fbtao]
//
// Telemetry mode (--trace FILE): read a structured simulation trace
// exported by a bench driver (JSONL, or the compact binary format when the
// file ends in .bin — see obs/trace.h) and summarize the scheduler's
// behavior: per-kind record counts, the coflow queue-transition matrix with
// transition causes, Ψ̈ decision-value statistics, and per-queue residency.
// When the trace carries interval-sampler records (a bench driver's
// --timeline flag; obs/sampler.h) a per-section timeline summary is printed
// too — peak live entities, peak calendar size, and peak accounted memory.
//
//   ./trace_explorer --trace trace.jsonl [--section LABEL-SUBSTRING]
//                    [--timeline]   # also dump the sample series row by row
//
// Gap-report mode (--gap-report FILE): summarize a gap-to-bound JSON report
// written by `bench_optimality --json` (src/bound/gap.h) — per scenario,
// one row per scheduler with its achieved average JCT, the sound lower
// bound, the overall/narrow/wide gaps, and the worst per-category gap.
//
//   ./trace_explorer --gap-report BENCH_optimality.json
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "common/stats.h"
#include "exp/args.h"
#include "metrics/category.h"
#include "metrics/report.h"
#include "obs/trace.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

const char* cause_name(int cause) {
  switch (static_cast<obs::QueueChangeCause>(cause)) {
    case obs::QueueChangeCause::kRelease: return "release";
    case obs::QueueChangeCause::kHrDecision: return "hr_decision";
    case obs::QueueChangeCause::kSelfDemote: return "self_demote";
    case obs::QueueChangeCause::kBytesSent: return "bytes_sent";
    case obs::QueueChangeCause::kRecompute: return "recompute";
    case obs::QueueChangeCause::kFaultReset: return "fault_reset";
  }
  return "?";
}

/// Per-section rollup of the interval-sampler records (kSample /
/// kMemSample; obs/sampler.h). Field layout per obs/trace.cpp: kSample
/// carries live-entity counts in i0..i2 and engine counters in v0..v5;
/// kMemSample carries per-subsystem byte counts in v0..v4 and their total
/// in v5.
struct TimelineSummary {
  std::size_t samples = 0;
  double first_time = 0, last_time = 0;
  std::int32_t peak_flows = 0, peak_coflows = 0, peak_jobs = 0;
  double peak_calendar = 0;
  double peak_mem_bytes = 0;

  void add(const obs::TraceRecord& r) {
    if (r.kind == obs::TraceEventKind::kSample) {
      if (samples == 0) first_time = r.time;
      last_time = r.time;
      ++samples;
      peak_flows = std::max(peak_flows, r.i0);
      peak_coflows = std::max(peak_coflows, r.i1);
      peak_jobs = std::max(peak_jobs, r.i2);
      peak_calendar = std::max(peak_calendar, r.v2);
    } else if (r.kind == obs::TraceEventKind::kMemSample) {
      peak_mem_bytes = std::max(peak_mem_bytes, r.v5);
    }
  }
};

void print_sample_series(const std::vector<obs::TraceSection>& sections) {
  for (const obs::TraceSection& section : sections) {
    TextTable rows({"t (s)", "flows", "coflows", "jobs", "events", "events/s",
                    "calendar", "mem (MB)"});
    // A boundary's kMemSample carries the same timestamp as its kSample
    // (both are stamped with the exact boundary k*every), so the byte total
    // can be joined by time.
    std::map<double, double> mem_at;
    for (const obs::TraceRecord& r : section.records)
      if (r.kind == obs::TraceEventKind::kMemSample) mem_at[r.time] = r.v5;
    bool any = false;
    for (const obs::TraceRecord& r : section.records) {
      if (r.kind != obs::TraceEventKind::kSample) continue;
      any = true;
      const auto mem = mem_at.find(r.time);
      rows.add_row({TextTable::num(r.time), std::to_string(r.i0),
                    std::to_string(r.i1), std::to_string(r.i2),
                    TextTable::num(r.v0), TextTable::num(r.v1),
                    TextTable::num(r.v2),
                    mem == mem_at.end() ? std::string("-")
                                        : TextTable::num(mem->second / 1e6)});
    }
    if (any)
      std::cout << "Timeline for \"" << section.label << "\":\n"
                << rows.to_string() << "\n";
  }
}

int explore_trace(const std::string& path, const std::string& section_filter,
                  bool dump_timeline) {
  std::ifstream in(path, ends_with(path, ".bin")
                             ? std::ios::in | std::ios::binary
                             : std::ios::in);
  if (!in.is_open()) {
    std::cerr << "cannot open trace file " << path << "\n";
    return 1;
  }
  std::vector<obs::TraceSection> sections = ends_with(path, ".bin")
                                                ? obs::read_binary(in)
                                                : obs::read_jsonl(in);
  if (!section_filter.empty()) {
    sections.erase(std::remove_if(sections.begin(), sections.end(),
                                  [&](const obs::TraceSection& s) {
                                    return s.label.find(section_filter) ==
                                           std::string::npos;
                                  }),
                   sections.end());
  }

  std::size_t total = 0;
  std::uint64_t kind_count[obs::kNumTraceEventKinds] = {};
  std::vector<TimelineSummary> timelines(sections.size());
  // Queue transitions: (old, new) -> count, plus per-cause counts. old = -1
  // is the release-time assignment into the top queue.
  std::map<std::pair<int, int>, std::uint64_t> transitions;
  std::map<int, std::uint64_t> cause_count;
  RunningStats psi;
  // Residency: records seen per new-queue value (a cheap occupancy proxy).
  std::map<int, std::uint64_t> entered_queue;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const obs::TraceSection& section = sections[s];
    total += section.records.size();
    for (const obs::TraceRecord& r : section.records) {
      ++kind_count[static_cast<int>(r.kind)];
      timelines[s].add(r);
      if (r.kind != obs::TraceEventKind::kQueueChange) continue;
      ++transitions[{r.i0, r.i1}];
      ++cause_count[r.i2];
      ++entered_queue[r.i1];
      if (r.v5 > 0) psi.add(r.v5);
    }
  }

  std::cout << "Trace " << path << ": " << sections.size() << " section(s), "
            << total << " records";
  if (!section_filter.empty())
    std::cout << " (filtered by \"" << section_filter << "\")";
  std::cout << "\n\n";

  TextTable kinds({"kind", "records"});
  for (int k = 0; k < obs::kNumTraceEventKinds; ++k) {
    if (kind_count[k] == 0) continue;
    kinds.add_row({obs::kind_name(static_cast<obs::TraceEventKind>(k)),
                   std::to_string(kind_count[k])});
  }
  std::cout << kinds.to_string() << "\n";

  if (!transitions.empty()) {
    TextTable trans({"old queue", "new queue", "count"});
    for (const auto& [key, count] : transitions)
      trans.add_row({key.first < 0 ? std::string("(release)")
                                   : std::to_string(key.first),
                     std::to_string(key.second), std::to_string(count)});
    std::cout << "Coflow queue transitions:\n" << trans.to_string() << "\n";

    TextTable causes({"cause", "count"});
    for (const auto& [cause, count] : cause_count)
      causes.add_row({cause_name(cause), std::to_string(count)});
    std::cout << "Transition causes:\n" << causes.to_string() << "\n";

    TextTable entered({"new queue", "transitions in"});
    for (const auto& [queue, count] : entered_queue)
      entered.add_row({std::to_string(queue), std::to_string(count)});
    std::cout << "Queue entries (residency proxy):\n"
              << entered.to_string() << "\n";
  }
  bool any_timeline = false;
  for (const TimelineSummary& t : timelines) any_timeline |= t.samples > 0;
  if (any_timeline) {
    TextTable timeline({"section", "samples", "span (s)", "peak flows",
                        "peak coflows", "peak jobs", "peak calendar",
                        "peak mem (MB)"});
    for (std::size_t s = 0; s < sections.size(); ++s) {
      const TimelineSummary& t = timelines[s];
      if (t.samples == 0) continue;
      timeline.add_row(
          {sections[s].label, std::to_string(t.samples),
           TextTable::num(t.first_time) + " - " + TextTable::num(t.last_time),
           std::to_string(t.peak_flows), std::to_string(t.peak_coflows),
           std::to_string(t.peak_jobs), TextTable::num(t.peak_calendar),
           TextTable::num(t.peak_mem_bytes / 1e6)});
    }
    std::cout << "Interval-sampler timelines (obs/sampler.h):\n"
              << timeline.to_string() << "\n";
    if (dump_timeline) print_sample_series(sections);
  } else if (dump_timeline) {
    std::cout << "No interval-sampler records in this trace — re-export with "
                 "a bench driver's --timeline flag.\n\n";
  }
  if (psi.count() > 0) {
    std::cout << "Psi decision values (demotions with a factor breakdown): "
              << psi.count() << " samples, mean " << TextTable::num(psi.mean())
              << ", min " << TextTable::num(psi.min()) << ", max "
              << TextTable::num(psi.max()) << "\n";
  }
  return 0;
}

/// One parsed gap cell of the report (bound/gap.h JSON layout).
struct GapCellView {
  bool ok = false;
  std::size_t jobs = 0;
  double achieved = 0, bound = 0, gap = 0;
};

/// Scans `[from, to)` of the report text for `"key": { ... }` and pulls the
/// cell fields. The format is this repo's own (GapReport::to_json), so a
/// targeted scan is enough — no general JSON parser needed.
GapCellView parse_cell(const std::string& text, std::size_t from,
                       std::size_t to, const std::string& key) {
  const std::string needle = "\"" + key + "\": {";
  const std::size_t p = text.find(needle, from);
  if (p == std::string::npos || p >= to) return {};
  const std::size_t end = text.find('}', p);
  if (end == std::string::npos) return {};
  const auto field = [&](const char* name) -> double {
    const std::string fn = std::string("\"") + name + "\": ";
    const std::size_t q = text.find(fn, p);
    if (q == std::string::npos || q > end) return 0;
    return std::strtod(text.c_str() + q + fn.size(), nullptr);
  };
  GapCellView c;
  c.ok = true;
  c.jobs = static_cast<std::size_t>(field("jobs"));
  c.achieved = field("achieved");
  c.bound = field("bound");
  c.gap = field("gap");
  return c;
}

double parse_scalar(const std::string& text, std::size_t from, std::size_t to,
                    const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t p = text.find(needle, from);
  if (p == std::string::npos || p >= to) return 0;
  return std::strtod(text.c_str() + p + needle.size(), nullptr);
}

int explore_gap_report(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::cerr << "cannot open gap report " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const std::string scenario_key = "\"scenario\": \"";
  const std::string scheduler_key = "\"scheduler\": \"";
  std::size_t scen = text.find(scenario_key);
  if (scen == std::string::npos) {
    std::cerr << path << " holds no gap-report scenarios (expected the JSON "
                         "written by bench_optimality --json)\n";
    return 1;
  }
  std::cout << "Gap-to-bound report " << path << "\n\n";
  while (scen != std::string::npos) {
    const std::size_t name_end = text.find('"', scen + scenario_key.size());
    const std::string scenario =
        text.substr(scen + scenario_key.size(),
                    name_end - scen - scenario_key.size());
    const std::size_t scen_end = text.find(scenario_key, scen + 1);
    const std::size_t limit =
        scen_end == std::string::npos ? text.size() : scen_end;

    std::cout << "Scenario " << scenario << ": port-load bound "
              << TextTable::num(parse_scalar(text, scen, limit,
                                             "port_load_bound"))
              << "s, ordering bound "
              << TextTable::num(parse_scalar(text, scen, limit,
                                             "ordering_bound"))
              << "s, S-G reference "
              << TextTable::num(parse_scalar(text, scen, limit,
                                             "reference_avg_jct"))
              << "s\n";
    TextTable table({"scheduler", "jobs", "achieved JCT(s)", "bound JCT(s)",
                     "gap", "narrow gap", "wide gap", "worst category"});
    std::size_t sched = text.find(scheduler_key, scen);
    while (sched != std::string::npos && sched < limit) {
      const std::size_t sched_name_end =
          text.find('"', sched + scheduler_key.size());
      const std::string scheduler = text.substr(
          sched + scheduler_key.size(),
          sched_name_end - sched - scheduler_key.size());
      std::size_t block_end = text.find(scheduler_key, sched + 1);
      block_end = std::min(block_end == std::string::npos ? limit : block_end,
                           limit);
      const GapCellView overall =
          parse_cell(text, sched, block_end, "overall");
      const GapCellView narrow = parse_cell(text, sched, block_end, "narrow");
      const GapCellView wide = parse_cell(text, sched, block_end, "wide");
      double worst_gap = 0;
      std::string worst_cat = "-";
      for (int cat = 0; cat < kNumCategories; ++cat) {
        const GapCellView c =
            parse_cell(text, sched, block_end, category_name(cat));
        if (c.ok && c.jobs > 0 && c.gap > worst_gap) {
          worst_gap = c.gap;
          worst_cat = category_name(cat);
        }
      }
      table.add_row({scheduler, std::to_string(overall.jobs),
                     TextTable::num(overall.achieved),
                     TextTable::num(overall.bound),
                     TextTable::num(overall.gap),
                     narrow.jobs ? TextTable::num(narrow.gap)
                                 : std::string("-"),
                     wide.jobs ? TextTable::num(wide.gap) : std::string("-"),
                     worst_cat + " (" + TextTable::num(worst_gap) + ")"});
      sched = text.find(scheduler_key, sched + 1);
      if (sched >= limit) break;
    }
    std::cout << table.to_string() << "\n";
    scen = scen_end;
  }
  std::cout << "gap = achieved / bound; 1.000 means the scheduler met the "
               "sound lower bound exactly.\n";
  return 0;
}

int explore_workload(const TraceConfig& config) {
  const std::vector<JobSpec> jobs = generate_trace(config);

  std::size_t category_count[kNumCategories] = {};
  Bytes category_bytes[kNumCategories] = {};
  RunningStats widths, depths, coflows_per_job, flow_sizes;
  Bytes total_bytes = 0;
  for (const JobSpec& job : jobs) {
    const Bytes jb = job.total_bytes();
    total_bytes += jb;
    const int cat = category_of(jb);
    ++category_count[cat];
    category_bytes[cat] += jb;
    depths.add(stage_count(job));
    coflows_per_job.add(static_cast<double>(job.coflows.size()));
    for (const CoflowSpec& c : job.coflows) {
      widths.add(static_cast<double>(c.width()));
      for (const FlowSpec& f : c.flows) flow_sizes.add(f.size);
    }
  }

  std::cout << "Synthetic trace: " << jobs.size() << " jobs ("
            << to_string(config.structure) << " structure), "
            << TextTable::num(total_bytes / kTB) << " TB total\n\n";

  TextTable cats({"category", "jobs", "% of jobs", "% of bytes"});
  for (int c = 0; c < kNumCategories; ++c) {
    cats.add_row({category_name(c), std::to_string(category_count[c]),
                  TextTable::num(100.0 * static_cast<double>(category_count[c]) /
                                 static_cast<double>(jobs.size())),
                  TextTable::num(100.0 * category_bytes[c] / total_bytes)});
  }
  std::cout << cats.to_string() << "\n";

  TextTable shape({"metric", "mean", "min", "max"});
  shape.add_row({"stages per job", TextTable::num(depths.mean()),
                 TextTable::num(depths.min()), TextTable::num(depths.max())});
  shape.add_row({"coflows per job", TextTable::num(coflows_per_job.mean()),
                 TextTable::num(coflows_per_job.min()),
                 TextTable::num(coflows_per_job.max())});
  shape.add_row({"coflow width (flows)", TextTable::num(widths.mean()),
                 TextTable::num(widths.min()), TextTable::num(widths.max())});
  shape.add_row({"flow size (MB)", TextTable::num(flow_sizes.mean() / kMB),
                 TextTable::num(flow_sizes.min() / kMB),
                 TextTable::num(flow_sizes.max() / kMB)});
  std::cout << shape.to_string()
            << "\nHeavy tail check: most jobs sit in categories I-III while "
               "most bytes belong to VI-VII."
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const std::string gap_path = args.get_string("gap-report", "");
  const std::string trace_path = args.get_string("trace", "");
  const std::string section = args.get_string("section", "");
  const bool timeline = args.get_bool("timeline", false);
  TraceConfig workload;
  workload.num_jobs = args.get_int("num-jobs", 1000);
  workload.seed = args.get_u64("seed", 42);
  workload.structure =
      structure_from_string(args.get_string("structure", "mixed"));
  args.reject_unread();
  if (!gap_path.empty()) return explore_gap_report(gap_path);
  if (!trace_path.empty()) return explore_trace(trace_path, section, timeline);
  return explore_workload(workload);
} catch (const std::exception& e) {
  std::cerr << "trace_explorer: " << e.what() << "\n";
  return 2;
}
