// Bursty datacenter scenario: jobs arrive in 2 µs-spaced batches (the
// paper's §V bursty setting) on an FB-Tao-shaped workload, comparing a
// pure-SPQ Gurita against the default WRR-emulating Gurita to show the
// starvation mitigation working, and against Stream.
//
//   ./bursty_datacenter [--num-jobs 200] [--seed 3] [--pods 8]
#include <iostream>

#include "core/gurita.h"
#include "exp/args.h"
#include "exp/experiment.h"
#include "metrics/report.h"
#include "sched/stream.h"

int main(int argc, char** argv) try {
  using namespace gurita;
  const Args args(argc, argv);
  apply_log_level(args);
  const int jobs_n = args.get_int("num-jobs", 200);
  const std::uint64_t seed = args.get_u64("seed", 3);
  const int pods = args.get_int("pods", 8);
  args.reject_unread();

  ExperimentConfig config =
      bursty_scenario(StructureKind::kFbTao, jobs_n, seed, pods);
  const FatTree fabric(FatTree::Config{config.fat_tree_k, config.link_capacity});
  TraceConfig trace = config.trace;
  trace.num_hosts = fabric.num_hosts();
  const std::vector<JobSpec> workload = generate_trace(trace);

  std::cout << "Bursty scenario: " << jobs_n << " FB-Tao jobs in batches of "
            << trace.burst_size << " at "
            << trace.burst_spacing / kMicrosecond << " us spacing, "
            << fabric.num_hosts() << "-host fat-tree\n\n";

  struct Variant {
    const char* name;
    SimResults results;
  };
  std::vector<Variant> variants;

  {
    GuritaScheduler gurita;  // default: WRR starvation mitigation on
    variants.push_back({"gurita (WRR mitigation)",
                        run_one(config, workload, gurita)});
  }
  {
    GuritaScheduler::Config gc;
    gc.starvation_mitigation = false;
    GuritaScheduler spq(gc);
    variants.push_back({"gurita (pure SPQ)", run_one(config, workload, spq)});
  }
  {
    StreamScheduler stream;
    variants.push_back({"stream (TBS, strict SPQ)",
                        run_one(config, workload, stream)});
  }

  TextTable table({"variant", "avg JCT (s)", "p95 JCT (s)", "max JCT (s)",
                   "makespan (s)"});
  for (const Variant& v : variants) {
    JctCollector c;
    c.add(v.results);
    double max_jct = 0;
    for (const auto& j : v.results.jobs) max_jct = std::max(max_jct, j.jct());
    table.add_row({v.name, TextTable::num(c.average_jct()),
                   TextTable::num(c.p95_jct()), TextTable::num(max_jct),
                   TextTable::num(v.results.makespan)});
  }
  std::cout << table.to_string() << "\n"
            << "Compare the p95 column: WRR emulation spreads burst pain "
               "most evenly, pure SPQ\nis close behind, and the TBS-based "
               "Stream — which parks whole jobs, not stages —\nsuffers the "
               "heaviest tail."
            << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bursty_datacenter: " << e.what() << "\n";
  return 2;
}
