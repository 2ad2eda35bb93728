// Figure 5 — headline averages: improvement of Gurita over {Baraat, PFS,
// Stream, Aalo} across the four evaluation scenarios: trace-driven and
// bursty, each with FB-Tao (FB) and TPC-DS (CD, the Cloudera benchmark)
// DAG structures.
//
// Paper shape to reproduce: up to ~2x vs PFS, ~1.8x vs Baraat, ~1.5x vs
// Stream, ~parity with Aalo (1.05x trace-driven, 0.99x bursty).
//
//   ./bench_fig5 [--num-jobs 300] [--bursty-jobs 400] [--seed 7] [--pods 8]
//                [--jobs N]   # worker threads; output identical at any N
//
// Telemetry (obs/):
//   --trace FILE        export a structured trace of every run (JSONL; one
//                       section per run×scheduler, labeled "run/scheduler").
//                       Also writes FILE.summary.json with per-kind record
//                       counts and the engine cost counters.
//   --trace-filter CSV  record kinds ("all", "default", or a comma list of
//                       kind names — see obs/trace.h)
//   --trace-binary      write the compact binary format instead of JSONL
//   --profile           print the engine phase profile summed over all runs
//   --timeline          deterministic interval sampler: periodic kSample /
//                       kMemSample records in the trace (byte-identical at
//                       any --jobs; defaults the export to timeline.jsonl
//                       when --trace is absent)
//   --timeline-every T  sampling cadence in simulated seconds (default 0.05)
//   --timeline-wall     opt-in wall-clock samples (NOT deterministic)
//   --chrome-trace FILE Chrome Trace Event JSON (phase spans + sampler
//                       tracks) for ui.perfetto.dev / chrome://tracing
//   --diagnostics       non-deterministic run health (allocator work,
//                       memory peaks, pool stats) in the summary JSON
//   --log-level LVL     debug|info|warn|error|off
//
// Checkpoint/restore (exp/args.h; DESIGN.md §12): --checkpoint-every,
// --checkpoint-dir, --resume-from, --checkpoint-halt-after. A deliberate
// mid-run halt exits with status 75 ("halted, resume me"); re-running with
// --resume-from produces output byte-identical to an uninterrupted run.
#include <iostream>

#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/export.h"
#include "exp/runner.h"
#include "fault/fault.h"
#include "metrics/report.h"
#include "obs/trace.h"
#include "snapshot/snapshot.h"

namespace gurita {
namespace {

std::string cell(const ComparisonResult& result, const std::string& other) {
  return TextTable::num(result.improvement("gurita", other)) + " / " +
         TextTable::num(result.per_job_speedup("gurita", other));
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const int num_jobs = args.get_int("num-jobs", 300);
  const int bursty_jobs = args.get_int("bursty-jobs", 200);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int bursty_pods = args.get_int("pods", 8);
  const int jobs = resolve_jobs(args);
  std::string trace_path = args.get_string("trace", "");
  const bool trace_binary = args.get_bool("trace-binary", false);
  const bool profile = args.get_bool("profile", false);
  const std::string chrome_path = args.get_string("chrome-trace", "");

  ExperimentConfig::ObsOptions obs_options;
  obs_options.trace = !trace_path.empty();
  obs_options.trace_mask =
      obs::parse_trace_filter(args.get_string("trace-filter", "default"));
  obs_options.profile = profile;
  obs_options.spans = !chrome_path.empty();
  {
    ExperimentConfig scratch;
    scratch.obs = obs_options;
    apply_timeline_flags(args, scratch);
    obs_options = scratch.obs;
  }
  // A timeline without an export path still needs a file to land in.
  if (obs_options.timeline_every > 0 && trace_path.empty())
    trace_path = "timeline.jsonl";

  const std::vector<std::string> others = {"baraat", "pfs", "stream", "aalo"};
  std::vector<std::string> all = others;
  all.push_back("gurita");

  std::vector<ExperimentRun> runs;
  runs.push_back({"FB-t (FB-Tao, trace)",
                  trace_scenario(StructureKind::kFbTao, num_jobs, seed), all});
  runs.push_back({"CD-t (TPC-DS, trace)",
                  trace_scenario(StructureKind::kTpcDs, num_jobs, seed), all});
  runs.push_back(
      {"FB-b (FB-Tao, bursty)",
       bursty_scenario(StructureKind::kFbTao, bursty_jobs, seed, bursty_pods),
       all});
  runs.push_back(
      {"CD-b (TPC-DS, bursty)",
       bursty_scenario(StructureKind::kTpcDs, bursty_jobs, seed, bursty_pods),
       all});
  for (ExperimentRun& run : runs) {
    run.config.obs = obs_options;
    apply_checkpoint_flags(args, run.config);
  }
  args.reject_unread();

  ThreadPool::Stats pool_stats;
  std::vector<ComparisonResult> results;
  try {
    results = run_matrix(runs, jobs, &pool_stats);
  } catch (const snapshot::HaltedError& e) {
    // Deliberate --checkpoint-halt-after crash: distinct exit status so CI
    // can assert the halt happened and then re-invoke with --resume-from.
    std::cerr << "bench_fig5: " << e.what() << "\n";
    return 75;
  } catch (const snapshot::SnapshotError& e) {
    // Unreadable --resume-from checkpoint (corrupt, other format version,
    // other workload): report it instead of aborting.
    std::cerr << "bench_fig5: cannot resume: " << e.what() << "\n";
    return 1;
  } catch (const ConfigError& e) {
    std::cerr << "bench_fig5: cannot resume: " << e.what() << "\n";
    return 1;
  }

  std::cout << "=== Figure 5: average improvement of Gurita per scenario ===\n"
               "Each cell: avg-JCT ratio / mean per-job speedup "
               "(> 1 means Gurita faster).\n"
               "The avg-JCT ratio is dominated by the few giant jobs; the\n"
               "per-job speedup weights every job equally and carries the\n"
               "paper's headline magnitudes.\n\n";
  TextTable table(
      {"scenario", "vs baraat", "vs pfs", "vs stream", "vs aalo"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<std::string> row = {runs[i].label};
    for (const std::string& other : others)
      row.push_back(cell(results[i], other));
    table.add_row(row);
  }
  std::cout << table.to_string() << std::endl;

  // Trace export (exp/export.h): sections in run-matrix slot order,
  // schedulers in map (name) order within a run — the same walk at any
  // --jobs, so the file is byte-identical at any worker count. Both files
  // are written atomically (tmp + rename).
  std::vector<std::string> labels;
  for (const ExperimentRun& run : runs) labels.push_back(run.label);
  if (!trace_path.empty()) {
    ExportOptions export_options;
    export_options.diagnostics = obs_options.diagnostics;
    export_options.pool_stats = pool_stats;
    const std::size_t total_records =
        export_traces(labels, results, trace_path, trace_binary,
                      export_options);
    std::cout << "trace: " << total_records << " records -> " << trace_path
              << " (summary: " << trace_path << ".summary.json)\n";
  }
  if (!chrome_path.empty()) {
    export_chrome_trace(labels, results, chrome_path);
    std::cout << "chrome trace -> " << chrome_path
              << " (load at ui.perfetto.dev)\n";
  }

  if (profile) {
    obs::PhaseProfile total;
    for (const ComparisonResult& result : results)
      for (const auto& [name, res] : result.results) total.merge(res.profile);
    std::cout << "\n=== Engine phase profile (summed over "
              << total.runs << " runs) ===\n"
              << total.to_table();
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fig5: " << e.what() << "\n";
  return 2;
}
