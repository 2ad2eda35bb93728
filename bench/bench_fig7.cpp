// Figure 7 — bursty traffic in a large-scale network: per-category
// improvement of Gurita over {Baraat, PFS, Stream, Aalo} when jobs arrive
// 2 µs apart, with (a) FB-Tao and (b) TPC-DS structures.
//
// The paper runs 10,000 jobs on a 48-pod fat-tree (27,648 servers); the
// default here is scaled down so the suite completes quickly. Reproduce at
// paper scale with:  ./bench_fig7 --pods 48 --num-jobs 10000
//
// Paper shape: up to 2x vs PFS, 1.8x vs Baraat, 1.9x vs Stream across
// categories — EXCEPT category I where Stream's pure SPQ lets it beat
// Gurita, which reserves a trickle of bandwidth for starving elephants.
//
//   ./bench_fig7 [--num-jobs 300] [--pods 8] [--seed 7] [--jobs N]
#include <iostream>

#include "exp/args.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "metrics/report.h"

namespace gurita {
namespace {

const std::vector<std::string> kOthers = {"baraat", "pfs", "stream", "aalo"};

void print_panel(const std::string& title, const ComparisonResult& result,
                 int num_jobs, std::uint64_t seed, int pods) {
  std::cout << title << "  (jobs=" << num_jobs << ", pods=" << pods
            << ", seed=" << seed << ")\n";
  std::cout << category_panel(
                   result.collectors.at("gurita"), "gurita JCT(s)",
                   {"vs baraat", "vs pfs", "vs stream", "vs aalo"},
                   [&](int cat) {
                     std::vector<std::string> cols;
                     for (const std::string& other : kOthers)
                       cols.push_back(TextTable::num(
                           result.improvement("gurita", other, cat)));
                     return cols;
                   },
                   /*overall=*/false)
            << "\n";
}

}  // namespace
}  // namespace gurita

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const int num_jobs = args.get_int("num-jobs", 300);
  const int pods = args.get_int("pods", 8);
  const std::uint64_t seed = args.get_u64("seed", 7);
  const int jobs = resolve_jobs(args);
  args.reject_unread();

  std::vector<std::string> all = kOthers;
  all.push_back("gurita");
  std::vector<ExperimentRun> runs;
  runs.push_back(
      {"Fig 7(a): FB-Tao structure",
       bursty_scenario(StructureKind::kFbTao, num_jobs, seed, pods), all});
  runs.push_back(
      {"Fig 7(b): TPC-DS structure",
       bursty_scenario(StructureKind::kTpcDs, num_jobs, seed, pods), all});
  const std::vector<ComparisonResult> results = run_matrix(runs, jobs);

  std::cout << "=== Figure 7: per-category improvement, bursty arrivals "
               "(2 us spacing; improvement > 1 means Gurita faster) ===\n\n";
  for (std::size_t i = 0; i < runs.size(); ++i)
    print_panel(runs[i].label, results[i], num_jobs, seed, pods);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_fig7: " << e.what() << "\n";
  return 2;
}
