// Figure 8 — Gurita vs GuritaPlus (the clairvoyant upper bound with exact
// per-stage in-flight bytes, instant information and free promotion), per
// size category, with (a) FB-Tao and (b) TPC-DS structures.
//
// Paper shape: Gurita matches GuritaPlus across categories, "at most within
// 0.15% of GuritaPlus' performance" — i.e. the ratio hovers at ~1.0 and
// never collapses. Receiver-side observation suffices.
//
//   ./bench_fig8 [--num-jobs 300] [--seed 7] [--jobs N]
#include <iostream>

#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "metrics/report.h"

namespace gurita {
namespace {

void print_panel(const std::string& title, const ComparisonResult& result,
                 int num_jobs, std::uint64_t seed) {
  std::cout << title << "  (jobs=" << num_jobs << ", seed=" << seed << ")\n";
  const auto& g = result.collectors.at("gurita");
  const auto& p = result.collectors.at("gurita_plus");
  std::cout << category_panel(
                   g, "gurita JCT(s)",
                   {"gurita+ JCT(s)", "gurita/gurita+ ratio"},
                   [&](int cat) -> std::vector<std::string> {
                     if (cat < 0)
                       return {TextTable::num(p.average_jct()),
                               TextTable::num(g.average_jct() /
                                              p.average_jct())};
                     const double ratio = p.average_jct(cat) > 0
                                              ? g.average_jct(cat) /
                                                    p.average_jct(cat)
                                              : 0;
                     return {TextTable::num(p.average_jct(cat)),
                             TextTable::num(ratio)};
                   })
            << "\n";
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const int num_jobs = args.get_int("num-jobs", 300);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int jobs = resolve_jobs(args);
  args.reject_unread();

  std::vector<ExperimentRun> runs;
  runs.push_back({"Fig 8(a): FB-Tao structure",
                  trace_scenario(StructureKind::kFbTao, num_jobs, seed),
                  {"gurita", "gurita_plus"}});
  runs.push_back({"Fig 8(b): TPC-DS structure",
                  trace_scenario(StructureKind::kTpcDs, num_jobs, seed),
                  {"gurita", "gurita_plus"}});
  const std::vector<ComparisonResult> results = run_matrix(runs, jobs);

  std::cout << "=== Figure 8: Gurita vs the clairvoyant GuritaPlus "
               "(ratio ~ 1.0 = receiver-side estimation suffices) ===\n\n";
  for (std::size_t i = 0; i < runs.size(); ++i)
    print_panel(runs[i].label, results[i], num_jobs, seed);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fig8: " << e.what() << "\n";
  return 2;
}
