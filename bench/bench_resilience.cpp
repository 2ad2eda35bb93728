// Resilience curves: JCT inflation vs fault rate, per scheduler.
//
// Replays one workload under every scheduler while scaling a base fault
// plan (host crashes, link flaps, stragglers, scheduler-state losses) by a
// list of rate factors. Factor 0 is the fault-free baseline each curve is
// normalized against — and because a zero-rate plan compiles to zero
// events, that row is byte-identical to a run without fault support at all.
//
//   ./bench_resilience [--num-jobs 120] [--seed 7] [--pods 4]
//                      [--rates 0,0.5,1,2,4]   # fault-rate scale factors
//                      [--jobs N]    # worker threads; output identical at
//                                    # any N (the determinism contract)
//
// Base plan (scaled by each factor; override with the shared fault flags,
// see exp/args.h): 2 host crashes/s, 1 link flap/s, 4 straggler windows/s,
// 0.5 state losses/s over a 1 s horizon.
//
// Output:
//   --json FILE    machine-readable curves (atomic write; no wall-clock
//                  fields, so files diff clean across runs and --jobs)
//   --trace FILE   structured trace of every run × scheduler (exp/export.h;
//                  includes fault / flow_abort / flow_retry / job_fail
//                  records), plus FILE.summary.json
//   --trace-filter CSV, --trace-binary, --log-level as everywhere else;
//   --timeline / --timeline-every / --timeline-wall / --chrome-trace /
//   --diagnostics as in bench_fig5.
//
// Checkpoint/restore (exp/args.h; DESIGN.md §12): --checkpoint-every,
// --checkpoint-dir, --resume-from, --checkpoint-halt-after. A deliberate
// mid-run halt exits with status 75 ("halted, resume me"); re-running with
// --resume-from produces output byte-identical to an uninterrupted run.
#include <iostream>
#include <sstream>
#include <vector>

#include "common/atomic_file.h"
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

std::vector<double> parse_rates(const std::string& csv) {
  std::vector<double> rates;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    rates.push_back(std::stod(item));
    GURITA_CHECK_MSG(rates.back() >= 0, "rate factors must be >= 0");
  }
  GURITA_CHECK_MSG(!rates.empty(), "--rates must name at least one factor");
  return rates;
}

std::string factor_label(double factor) {
  std::ostringstream os;
  os << "rate x" << factor;
  return os.str();
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const int num_jobs = args.get_int("num-jobs", 120);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int pods = args.get_int("pods", 4);
  const int jobs = resolve_jobs(args);
  const std::vector<double> rates =
      parse_rates(args.get_string("rates", "0,0.5,1,2,4"));
  const std::string json_path = args.get_string("json", "");
  std::string trace_path = args.get_string("trace", "");
  const bool trace_binary = args.get_bool("trace-binary", false);
  const std::string chrome_path = args.get_string("chrome-trace", "");

  ExperimentConfig base = trace_scenario(StructureKind::kFbTao, num_jobs, seed);
  base.fat_tree_k = pods;
  base.obs.trace = !trace_path.empty();
  base.obs.trace_mask =
      obs::parse_trace_filter(args.get_string("trace-filter", "default"));
  base.obs.spans = !chrome_path.empty();
  apply_timeline_flags(args, base);
  if (base.obs.timeline_every > 0 && trace_path.empty())
    trace_path = "timeline.jsonl";
  // The shared --fault-* flags tune the base plan; the rate factors below
  // scale its four event rates together.
  base.faults.plan.host_crash_rate = 2.0;
  base.faults.plan.link_flap_rate = 1.0;
  base.faults.plan.straggler_rate = 4.0;
  base.faults.plan.state_loss_rate = 0.5;
  apply_fault_flags(args, base);
  apply_checkpoint_flags(args, base);
  args.reject_unread();

  const std::vector<std::string> schedulers = {"gurita", "gurita_plus", "aalo",
                                               "baraat", "varys"};

  std::vector<ExperimentRun> runs;
  for (double factor : rates) {
    ExperimentRun run;
    run.label = factor_label(factor);
    run.config = base;
    run.config.faults.enabled = true;
    run.config.faults.plan.host_crash_rate *= factor;
    run.config.faults.plan.link_flap_rate *= factor;
    run.config.faults.plan.straggler_rate *= factor;
    run.config.faults.plan.state_loss_rate *= factor;
    run.schedulers = schedulers;
    runs.push_back(std::move(run));
  }

  ThreadPool::Stats pool_stats;
  std::vector<ComparisonResult> results;
  try {
    results = run_matrix(runs, jobs, &pool_stats);
  } catch (const snapshot::HaltedError& e) {
    // Deliberate --checkpoint-halt-after crash: distinct exit status so CI
    // can assert the halt happened and then re-invoke with --resume-from.
    std::cerr << "bench_resilience: " << e.what() << "\n";
    return 75;
  } catch (const snapshot::SnapshotError& e) {
    // Unreadable --resume-from checkpoint (corrupt, other format version,
    // other workload): report it instead of aborting.
    std::cerr << "bench_resilience: cannot resume: " << e.what() << "\n";
    return 1;
  } catch (const ConfigError& e) {
    std::cerr << "bench_resilience: cannot resume: " << e.what() << "\n";
    return 1;
  }

  // Baseline per scheduler: the smallest requested factor (conventionally
  // 0 — the fault-free run).
  std::size_t base_idx = 0;
  for (std::size_t i = 1; i < rates.size(); ++i)
    if (rates[i] < rates[base_idx]) base_idx = i;

  std::cout << "=== Resilience: JCT inflation vs fault rate ===\n"
               "Inflation = avg JCT (surviving jobs) / avg JCT at the "
               "baseline factor "
            << rates[base_idx]
            << ".\nFailed jobs are excluded from JCT averages and reported "
               "separately.\n\n";
  TextTable table({"factor", "scheduler", "avg JCT (s)", "inflation",
                   "failed", "aborts", "retries", "lost (MB)"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const std::string& name : schedulers) {
      const SimResults& res = results[i].results.at(name);
      const SimResults& ref = results[base_idx].results.at(name);
      const double jct = res.average_jct();
      const double inflation =
          ref.average_jct() > 0 ? jct / ref.average_jct() : 0.0;
      table.add_row({factor_label(rates[i]), name, TextTable::num(jct),
                     TextTable::num(inflation),
                     std::to_string(res.failed_jobs),
                     std::to_string(res.flow_aborts),
                     std::to_string(res.flow_retries),
                     TextTable::num(res.bytes_lost / 1e6)});
    }
  }
  std::cout << table.to_string() << std::endl;

  if (!json_path.empty()) {
    write_file_atomic(json_path, /*binary=*/false, [&](std::ostream& out) {
      out.precision(17);
      out << "{\n  \"bench\": \"resilience\",\n  \"num_jobs\": " << num_jobs
          << ",\n  \"seed\": " << seed << ",\n  \"rows\": [\n";
      bool first = true;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        for (const std::string& name : schedulers) {
          const SimResults& res = results[i].results.at(name);
          const SimResults& ref = results[base_idx].results.at(name);
          out << (first ? "" : ",\n") << "    {\"factor\": " << rates[i]
              << ", \"scheduler\": \"" << name
              << "\", \"avg_jct\": " << res.average_jct()
              << ", \"inflation\": "
              << (ref.average_jct() > 0 ? res.average_jct() / ref.average_jct()
                                        : 0.0)
              << ", \"failed_jobs\": " << res.failed_jobs
              << ", \"flow_aborts\": " << res.flow_aborts
              << ", \"flow_retries\": " << res.flow_retries
              << ", \"bytes_lost\": " << res.bytes_lost
              << ", \"bytes_retransmitted\": " << res.bytes_retransmitted
              << ", \"total_recovery_latency\": " << res.total_recovery_latency
              << ", \"makespan\": " << res.makespan << "}";
          first = false;
        }
      }
      out << "\n  ]\n}\n";
    });
    std::cout << "curves -> " << json_path << "\n";
  }

  std::vector<std::string> labels;
  for (const ExperimentRun& run : runs) labels.push_back(run.label);
  if (!trace_path.empty()) {
    ExportOptions export_options;
    export_options.diagnostics = base.obs.diagnostics;
    export_options.pool_stats = pool_stats;
    const std::size_t total =
        export_traces(labels, results, trace_path, trace_binary,
                      export_options);
    std::cout << "trace: " << total << " records -> " << trace_path
              << " (summary: " << trace_path << ".summary.json)\n";
  }
  if (!chrome_path.empty()) {
    export_chrome_trace(labels, results, chrome_path);
    std::cout << "chrome trace -> " << chrome_path
              << " (load at ui.perfetto.dev)\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_resilience: " << e.what() << "\n";
  return 2;
}
