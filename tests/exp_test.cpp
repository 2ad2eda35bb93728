// Tests for the experiment-harness utilities: the flag parser, the
// per-job speedup metric and scenario plumbing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/args.h"
#include "exp/experiment.h"
#include "fault/fault.h"
#include "metrics/collector.h"

namespace gurita {
namespace {

// ------------------------------------------------------------------- Args

Args parse(std::vector<std::string> tokens) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesKeyValuePairs) {
  const Args args = parse({"--jobs", "300", "--seed", "9", "--name", "x"});
  EXPECT_EQ(args.get_int("jobs", 0), 300);
  EXPECT_EQ(args.get_u64("seed", 0), 9u);
  EXPECT_EQ(args.get_string("name", ""), "x");
  EXPECT_TRUE(args.has("jobs"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, FallbacksWhenAbsent) {
  const Args args = parse({});
  EXPECT_EQ(args.get_int("jobs", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
}

TEST(Args, ParsesDoubles) {
  const Args args = parse({"--rate", "2.75"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 2.75);
}

TEST(Args, BareFlagIsBoolean) {
  const Args args = parse({"--profile", "--trace", "out.jsonl"});
  EXPECT_TRUE(args.has("profile"));
  EXPECT_TRUE(args.get_bool("profile", false));
  EXPECT_EQ(args.get_string("trace", ""), "out.jsonl");
}

TEST(Args, TrailingBareFlagIsBoolean) {
  const Args args = parse({"--trace", "out.jsonl", "--profile"});
  EXPECT_TRUE(args.get_bool("profile", false));
}

TEST(Args, GetBoolParsesExplicitValues) {
  EXPECT_TRUE(parse({"--profile", "true"}).get_bool("profile", false));
  EXPECT_TRUE(parse({"--profile", "1"}).get_bool("profile", false));
  EXPECT_FALSE(parse({"--profile", "false"}).get_bool("profile", true));
  EXPECT_FALSE(parse({"--profile", "0"}).get_bool("profile", true));
  EXPECT_TRUE(parse({}).get_bool("profile", true));
  EXPECT_FALSE(parse({}).get_bool("profile", false));
  EXPECT_THROW(parse({"--profile", "yep"}).get_bool("profile", false),
               std::logic_error);
}

TEST(Args, RejectsPositionalArgument) {
  EXPECT_THROW(parse({"300"}), std::logic_error);
}

TEST(Args, RejectsDuplicateFlags) {
  // Last-write-wins is a silent trap in long sweep invocations; every
  // repeated flag is reported in one aggregated ConfigError.
  try {
    parse({"--jobs", "1", "--jobs", "2", "--seed", "7", "--seed", "8",
           "--num-jobs", "10"});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    ASSERT_EQ(e.issues().size(), 2u);
    EXPECT_EQ(e.issues()[0].where, "--jobs");
    EXPECT_EQ(e.issues()[1].where, "--seed");
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
  }
}

// ------------------------------------------------- strict token parsing

TEST(StrictParse, AcceptsFullTokens) {
  EXPECT_EQ(parse_int_strict("42"), 42);
  EXPECT_EQ(parse_int_strict("-7"), -7);
  EXPECT_EQ(parse_u64_strict("18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(parse_double_strict("2.5e3"), 2500.0);
}

TEST(StrictParse, RejectsTrailingGarbage) {
  // std::stoi("4x8") returns 4 — the historic bug that made --jobs-list
  // silently run a different worker count than asked.
  EXPECT_THROW(parse_int_strict("4x8"), std::invalid_argument);
  EXPECT_THROW(parse_int_strict("7 "), std::invalid_argument);
  EXPECT_THROW(parse_int_strict(""), std::invalid_argument);
  EXPECT_THROW(parse_double_strict("1.5.2"), std::invalid_argument);
  EXPECT_THROW(parse_u64_strict("9beta"), std::invalid_argument);
}

TEST(StrictParse, U64RejectsNegatives) {
  // stoull wraps "-1" to 2^64-1 instead of failing.
  EXPECT_THROW(parse_u64_strict("-1"), std::invalid_argument);
}

TEST(StrictParse, ErrorNamesOffendingToken) {
  try {
    parse_int_strict("4x8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4x8"), std::string::npos);
  }
}

TEST(ParseIntList, ParsesValidLists) {
  EXPECT_EQ(parse_int_list("1,2,8"), (std::vector<int>{1, 2, 8}));
  EXPECT_EQ(parse_int_list("5"), (std::vector<int>{5}));
}

TEST(ParseIntList, LateBadTokenNamesItselfAndShipsNothing) {
  // The old bench parser cleared the validated prefix on a late bad token
  // and then reported "expects positive counts" against the whole list.
  try {
    parse_int_list("1,2,4x8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4x8"), std::string::npos);
  }
  EXPECT_THROW(parse_int_list(""), std::invalid_argument);
  EXPECT_THROW(parse_int_list("1,,2"), std::invalid_argument);
  EXPECT_THROW(parse_int_list("1,2,"), std::invalid_argument);
}

TEST(Args, GetIntRejectsTrailingGarbageNamingTheFlag) {
  const Args args = parse({"--jobs", "4x8"});
  try {
    args.get_int("jobs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--jobs"), std::string::npos);
    EXPECT_NE(what.find("4x8"), std::string::npos);
  }
}

TEST(Args, RejectUnreadNamesEveryUnreadFlag) {
  const Args args = parse({"--fault-horizon", "2", "--faults",
                           "--fault-downtime", "0.5", "--sceduler", "pfs"});
  EXPECT_TRUE(args.get_bool("faults", false));
  EXPECT_EQ(args.get_string("scheduler", "gurita"), "gurita");
  try {
    args.reject_unread();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    ASSERT_EQ(e.issues().size(), 3u);
    EXPECT_EQ(e.issues()[0].where, "--fault-downtime");
    EXPECT_EQ(e.issues()[1].where, "--fault-horizon");
    EXPECT_EQ(e.issues()[2].where, "--sceduler");
  }
  // Reading a flag (present or not) accepts it.
  EXPECT_DOUBLE_EQ(args.get_double("fault-horizon", 0), 2.0);
  EXPECT_FALSE(args.has("fault-downtime-typo"));
  (void)args.has("fault-downtime");
  (void)args.has("sceduler");
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(Args, FaultFlagsRejectUnknownNames) {
  // A typo like --fault-host-rat must not silently run with default rates.
  const Args args = parse({"--fault-host-rat", "0.5", "--fault-horizn", "2"});
  ExperimentConfig config;
  apply_fault_flags(args, config);
  try {
    args.reject_unread();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    ASSERT_EQ(e.issues().size(), 2u);
    EXPECT_EQ(e.issues()[0].where, "--fault-horizn");
    EXPECT_EQ(e.issues()[1].where, "--fault-host-rat");
  }
  EXPECT_FALSE(config.faults.enabled);
}

TEST(Args, FaultFlagsStillApplyKnownNames) {
  const Args args = parse({"--fault-horizon", "2.5", "--fault-downtime", "1"});
  ExperimentConfig config;
  apply_fault_flags(args, config);
  EXPECT_TRUE(config.faults.enabled);
  EXPECT_DOUBLE_EQ(config.faults.plan.horizon, 2.5);
  EXPECT_DOUBLE_EQ(config.faults.plan.mean_downtime, 1.0);
}

TEST(Args, CheckpointFlagsApply) {
  const Args args = parse({"--checkpoint-every", "0.25", "--checkpoint-dir",
                           "ckpts", "--checkpoint-halt-after", "3"});
  ExperimentConfig config;
  apply_checkpoint_flags(args, config);
  EXPECT_DOUBLE_EQ(config.checkpoint.every, 0.25);
  EXPECT_EQ(config.checkpoint.dir, "ckpts");
  EXPECT_FALSE(config.checkpoint.resume);
  EXPECT_EQ(config.checkpoint.halt_after, 3);
  EXPECT_TRUE(config.checkpoint.active());
}

TEST(Args, ResumeFromImpliesDirAndResume) {
  const Args args = parse({"--resume-from", "ckpts"});
  ExperimentConfig config;
  apply_checkpoint_flags(args, config);
  EXPECT_EQ(config.checkpoint.dir, "ckpts");
  EXPECT_TRUE(config.checkpoint.resume);
}

TEST(Args, CheckpointFlagsAbsentLeaveConfigUntouched) {
  const Args args = parse({"--num-jobs", "10"});
  ExperimentConfig config;
  apply_checkpoint_flags(args, config);
  EXPECT_FALSE(config.checkpoint.active());
  EXPECT_FALSE(config.checkpoint.resume);
}

TEST(Args, CheckpointFlagsAggregateProblems) {
  const Args args = parse({"--checkpoint-every", "-1", "--checkpoint-halt-after",
                           "0"});
  ExperimentConfig config;
  try {
    apply_checkpoint_flags(args, config);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // Non-positive cadence and non-positive halt count, reported together.
    EXPECT_EQ(e.issues().size(), 2u);
  }
}

TEST(Args, CheckpointFlagsRejectUnknownNames) {
  const Args args = parse({"--checkpoint-evry", "1"});
  ExperimentConfig config;
  apply_checkpoint_flags(args, config);
  EXPECT_THROW(args.reject_unread(), ConfigError);
}

TEST(Args, ResumeFromConflictingDirRejected) {
  const Args args =
      parse({"--resume-from", "a", "--checkpoint-dir", "b"});
  ExperimentConfig config;
  EXPECT_THROW(apply_checkpoint_flags(args, config), ConfigError);
}

// --------------------------------------------------------- per-job speedup

SimResults make_results(std::vector<std::pair<Bytes, double>> size_jct) {
  SimResults r;
  std::uint64_t id = 0;
  for (const auto& [bytes, jct] : size_jct) {
    SimResults::JobResult j;
    j.id = JobId{id++};
    j.arrival = 0;
    j.finish = jct;
    j.total_bytes = bytes;
    r.jobs.push_back(j);
  }
  return r;
}

TEST(PerJobSpeedup, AveragesRatios) {
  const SimResults ref = make_results({{10 * kMB, 1.0}, {10 * kMB, 2.0}});
  const SimResults oth = make_results({{10 * kMB, 3.0}, {10 * kMB, 2.0}});
  // Ratios: 3.0 and 1.0 -> mean 2.0.
  EXPECT_DOUBLE_EQ(mean_per_job_speedup(ref, oth), 2.0);
}

TEST(PerJobSpeedup, FiltersByCategory) {
  const SimResults ref = make_results({{10 * kMB, 1.0}, {2 * kGB, 10.0}});
  const SimResults oth = make_results({{10 * kMB, 5.0}, {2 * kGB, 10.0}});
  EXPECT_DOUBLE_EQ(mean_per_job_speedup(ref, oth, 0), 5.0);
  EXPECT_DOUBLE_EQ(mean_per_job_speedup(ref, oth, 2), 1.0);
  EXPECT_DOUBLE_EQ(mean_per_job_speedup(ref, oth, 6), 0.0);  // empty
}

TEST(PerJobSpeedup, GiantJobsDoNotDominate) {
  // One giant unchanged job + many 4x-faster small jobs: the ratio of
  // averages stays ~1, the per-job mean shows ~3.4x.
  std::vector<std::pair<Bytes, double>> ref_jobs, oth_jobs;
  ref_jobs.emplace_back(2 * kTB, 1000.0);
  oth_jobs.emplace_back(2 * kTB, 1000.0);
  for (int i = 0; i < 9; ++i) {
    ref_jobs.emplace_back(10 * kMB, 1.0);
    oth_jobs.emplace_back(10 * kMB, 4.0);
  }
  const SimResults ref = make_results(ref_jobs);
  const SimResults oth = make_results(oth_jobs);

  JctCollector cref, coth;
  cref.add(ref);
  coth.add(oth);
  EXPECT_LT(improvement_factor(cref, coth), 1.05);
  EXPECT_NEAR(mean_per_job_speedup(ref, oth), 3.7, 0.01);
}

TEST(PerJobSpeedup, RejectsMismatchedPopulations) {
  const SimResults ref = make_results({{10 * kMB, 1.0}});
  const SimResults oth = make_results({{10 * kMB, 1.0}, {10 * kMB, 2.0}});
  EXPECT_THROW(mean_per_job_speedup(ref, oth), std::logic_error);
}

}  // namespace
}  // namespace gurita
