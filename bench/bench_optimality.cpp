// Optimality study — how close do the scheduling ideas get to optimal?
//
// Leg 1 (single-machine): the exact optimum of the FFS-MJ collapse
// (core/optimal.h). Three policy families on random stage-skewed instances,
// each normalized by the DP optimum:
//
//   * FIFO                  — Baraat's kernel without multiplexing,
//   * TBS whole-job SJF     — the total-bytes-sent family's kernel; on one
//                             machine with batch arrivals this is provably
//                             optimal (exchange argument), so its ratio is
//                             exactly 1.000 — a correctness anchor,
//   * per-stage greedy      — LBEF's kernel in one dimension.
//
// Leg 2 (network): the fabric scenarios of bench_fig6 have no exact
// optimum, but src/bound/ gives a *sound lower bound* on the average JCT
// (port-load critical path + per-port SRPT ordering relaxation) plus a
// Shafiee–Ghaderi-style achievable reference. Every registry scheduler —
// including `adaptive` — is scored as achieved/bound per Table-1 job-size
// category and per narrow/wide class.
//
// Guards (nonzero exit): the TBS anchor must stay exactly 1.000, and every
// gap cell must be sound (bound <= achieved).
//
//   ./bench_optimality [--trials 200] [--num-jobs 5] [--seed 11]
//                      [--network-jobs 80] [--network-seed 7]
//                      [--json FILE]    # machine-readable report
#include <iostream>

#include "bound/gap.h"
#include "common/atomic_file.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/optimal.h"
#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "metrics/report.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

/// One fabric scenario scored against the bound subsystem.
GapReport network_gap(const std::string& label, StructureKind structure,
                      int num_jobs, std::uint64_t seed) {
  ExperimentConfig config = trace_scenario(structure, num_jobs, seed);
  // Reconstruct the exact workload compare_schedulers replays: the trace's
  // host count comes from the fabric (exp/experiment.cpp does the same).
  const FatTree fabric(
      FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const std::vector<JobSpec> jobs = generate_trace(trace);

  const ComparisonResult result =
      compare_schedulers(config, scheduler_names());
  std::vector<std::pair<std::string, const SimResults*>> achieved;
  for (const std::string& name : scheduler_names())
    achieved.emplace_back(name, &result.results.at(name));
  return make_gap_report(label, jobs, trace.num_hosts, config.link_capacity,
                         achieved);
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const int trials = args.get_int("trials", 200);
  const int jobs_n = args.get_int("num-jobs", 5);
  const std::uint64_t seed = args.get_u64("seed", 11);
  const int network_jobs = args.get_int("network-jobs", 80);
  const std::uint64_t network_seed = args.get_u64("network-seed", 7);
  const std::string json_path = args.get_string("json", "");
  args.reject_unread();

  Rng rng(seed);
  RunningStats fifo_ratio, tbs_ratio, greedy_ratio;
  for (int t = 0; t < trials; ++t) {
    std::vector<StagedJob> jobs;
    for (int i = 0; i < jobs_n; ++i) {
      StagedJob j;
      const int stages = 1 + static_cast<int>(rng.uniform_int(0, 4));
      for (int s = 0; s < stages; ++s)
        j.stage_demand.push_back(rng.lognormal(0.0, 1.5) + 0.1);
      jobs.push_back(j);
    }
    const double best = optimal_average_jct(jobs);
    fifo_ratio.add(fifo_average_jct(jobs) / best);
    tbs_ratio.add(sjf_tbs_average_jct(jobs) / best);
    greedy_ratio.add(stage_greedy_average_jct(jobs) / best);
  }

  std::cout << "=== Optimality study: avg JCT relative to the exact DP "
               "optimum (single-machine FFS-MJ collapse) ===\n"
            << trials << " random instances of " << jobs_n
            << " stage-skewed jobs, batch arrivals\n\n";
  TextTable table({"policy", "mean ratio", "worst ratio"});
  table.add_row({"FIFO (Baraat kernel, no LM)",
                 TextTable::num(fifo_ratio.mean()),
                 TextTable::num(fifo_ratio.max())});
  table.add_row({"TBS whole-job SJF (optimal here)",
                 TextTable::num(tbs_ratio.mean()),
                 TextTable::num(tbs_ratio.max())});
  table.add_row({"per-stage greedy (LBEF kernel)",
                 TextTable::num(greedy_ratio.mean()),
                 TextTable::num(greedy_ratio.max())});
  std::cout << table.to_string()
            << "\nTakeaway: in this collapse TBS-SJF is exactly optimal and "
               "per-stage greedy stays near\noptimal; the multi-faced "
               "advantage the paper reports arises from network parallelism\n"
               "and online arrivals — measured below against the sound "
               "network-level lower bound.\n\n";

  // The anchor is exact, not approximate: TBS-SJF is provably optimal in
  // this collapse, so any drift is an optimality-oracle regression.
  const bool anchor_ok =
      tbs_ratio.max() <= 1.0 + 1e-9 && tbs_ratio.mean() >= 1.0 - 1e-9;
  if (!anchor_ok)
    std::cerr << "GUARD VIOLATION: TBS-SJF anchor ratio drifted from 1.000 "
                 "(mean "
              << tbs_ratio.mean() << ", worst " << tbs_ratio.max() << ")\n";

  std::cout << "=== Network-level gap to the sound lower bound "
               "(src/bound/; gap = achieved avg JCT / bound) ===\n"
            << "fabric scenarios of bench_fig6, " << network_jobs
            << " jobs, seed " << network_seed << "\n\n";
  std::vector<GapReport> reports;
  reports.push_back(network_gap("fig6a-fbtao", StructureKind::kFbTao,
                                network_jobs, network_seed));
  reports.push_back(network_gap("fig6b-tpcds", StructureKind::kTpcDs,
                                network_jobs, network_seed));

  bool gaps_sound = true;
  for (const GapReport& report : reports) {
    std::cout << "--- " << report.scenario
              << "  (port-load bound " << TextTable::num(report.port_load_bound)
              << "s, ordering bound " << TextTable::num(report.ordering_bound)
              << "s, S-G reference " << TextTable::num(report.reference_avg_jct)
              << "s) ---\n\n";
    std::cout << report.to_table();
    if (!report.sound()) {
      gaps_sound = false;
      std::cerr << "GUARD VIOLATION: a lower bound exceeds an achieved "
                   "average JCT in scenario "
                << report.scenario << "\n";
    }
  }

  if (!json_path.empty()) {
    write_file_atomic(json_path, /*binary=*/false, [&](std::ostream& out) {
      out << "{\n  \"bench\": \"optimality\",\n";
      out << "  \"single_machine\": {\n";
      const auto row = [&](const char* name, const RunningStats& s,
                           bool last) {
        out << "    \"" << name << "\": {\"mean_ratio\": " << s.mean()
            << ", \"worst_ratio\": " << s.max() << "}" << (last ? "\n" : ",\n");
      };
      out.precision(17);
      row("fifo", fifo_ratio, false);
      row("tbs_sjf", tbs_ratio, false);
      row("stage_greedy", greedy_ratio, true);
      out << "  },\n";
      out << "  \"guards\": {\"tbs_anchor\": " << (anchor_ok ? "true" : "false")
          << ", \"gap_sound\": " << (gaps_sound ? "true" : "false") << "},\n";
      out << "  \"network\": [\n";
      for (std::size_t i = 0; i < reports.size(); ++i)
        out << reports[i].to_json() << (i + 1 < reports.size() ? "," : "")
            << "\n";
      out << "  ]\n}\n";
    });
    std::cout << "report -> " << json_path << "\n";
  }

  if (!anchor_ok || !gaps_sound) return 1;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_optimality: " << e.what() << "\n";
  return 2;
}
