// Tests for the checkpoint/restore subsystem (src/snapshot/): the byte
// codec, the snapshot header, and the headline invariant — run to T,
// checkpoint, restore into a fresh simulator, finish, and the results
// (JCTs, counters, link stats, traces) are byte-identical to an
// uninterrupted run. Covered per scheduler, with and without a fault plan,
// at targeted pause points (mid-fault-park, mid-retry-backoff, mid-stage
// release), under randomized fuzz, against the reference oracle, and
// through the experiment runner's halt/resume path at 1/2/8 workers
// (the SnapshotDeterminism suite, part of the TSan gate).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/registry.h"
#include "exp/runner.h"
#include "fault/plan.h"
#include "flowsim/simulator.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "oracle_sim.h"
#include "snapshot/snapshot.h"
#include "topology/fattree.h"
#include "workload/trace_gen.h"

namespace gurita {
namespace {

// ------------------------------------------------------------------ codec

TEST(SnapshotCodec, PrimitivesRoundTripBitExactly) {
  snapshot::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::infinity());
  w.boolean(true);
  w.boolean(false);
  w.str("hello snapshot");

  snapshot::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  const double neg_zero = r.f64();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(neg_zero),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_TRUE(r.done());
}

TEST(SnapshotCodec, TruncatedBufferThrows) {
  snapshot::Writer w;
  w.u64(1);
  snapshot::Reader r(std::string_view(w.buffer()).substr(0, 4));
  EXPECT_THROW(r.u64(), snapshot::SnapshotError);
}

TEST(SnapshotCodec, SectionVerifiesExactConsumption) {
  snapshot::Writer w;
  const std::size_t token = w.begin_section();
  w.u32(7);
  w.u32(9);
  w.end_section(token);

  {
    snapshot::Reader r(w.buffer());
    const std::size_t end = r.begin_section();
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.u32(), 9u);
    r.end_section(end);  // consumed exactly — no throw
    EXPECT_TRUE(r.done());
  }
  {
    snapshot::Reader r(w.buffer());
    const std::size_t end = r.begin_section();
    EXPECT_EQ(r.u32(), 7u);  // under-consume
    EXPECT_THROW(r.end_section(end), snapshot::SnapshotError);
  }
  {
    // A reader may skip a section it does not understand.
    snapshot::Reader r(w.buffer());
    r.skip_to(r.begin_section());
    EXPECT_TRUE(r.done());
  }
}

TEST(SnapshotHeader, RoundTripsAndRejectsCorruption) {
  snapshot::Writer w;
  snapshot::write_header(w, snapshot::PayloadKind::kSimulatorState);
  {
    snapshot::Reader r(w.buffer());
    EXPECT_EQ(snapshot::read_header(r),
              snapshot::PayloadKind::kSimulatorState);
  }
  {
    std::string bad = w.buffer();
    bad[0] = 'X';  // wrong magic
    snapshot::Reader r(bad);
    EXPECT_THROW(snapshot::read_header(r), snapshot::SnapshotError);
  }
  // A future version, and the previous one: snapshots are not migrated.
  for (const std::uint32_t version :
       {snapshot::kFormatVersion + 1, snapshot::kFormatVersion - 1}) {
    snapshot::Writer v;
    v.u32(snapshot::kMagic);
    v.u32(version);
    v.u8(1);
    snapshot::Reader r(v.buffer());
    EXPECT_THROW(snapshot::read_header(r), snapshot::SnapshotError)
        << "version " << version;
  }
}

TEST(SnapshotHeader, ServiceStatePayloadKindRoundTrips) {
  snapshot::Writer w;
  snapshot::write_header(w, snapshot::PayloadKind::kServiceState);
  snapshot::Reader r(w.buffer());
  EXPECT_EQ(snapshot::read_header(r), snapshot::PayloadKind::kServiceState);
}

// The kServiceState payload embeds job specs verbatim — an open-horizon
// resume cannot rebuild the admitted population from the original inputs.
TEST(SnapshotCodec, JobSpecRoundTripsBitExactly) {
  JobSpec spec;
  spec.arrival_time = 1.25 + 1e-16;
  spec.deadline = 9.5;
  spec.coflows = {CoflowSpec{{FlowSpec{0, 5, 1048576.0},
                              FlowSpec{3, 4, 524288.5}}},
                  CoflowSpec{{FlowSpec{8, 9, 7.0}}}};
  spec.deps = {{}, {0}};

  snapshot::Writer w;
  snapshot::write_job_spec(w, spec);
  snapshot::Reader r(w.buffer());
  const JobSpec got = snapshot::read_job_spec(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.arrival_time),
            std::bit_cast<std::uint64_t>(spec.arrival_time));
  EXPECT_EQ(got.deadline, spec.deadline);
  EXPECT_EQ(got.deps, spec.deps);
  ASSERT_EQ(got.coflows.size(), spec.coflows.size());
  for (std::size_t c = 0; c < spec.coflows.size(); ++c) {
    ASSERT_EQ(got.coflows[c].flows.size(), spec.coflows[c].flows.size());
    for (std::size_t f = 0; f < spec.coflows[c].flows.size(); ++f) {
      EXPECT_EQ(got.coflows[c].flows[f].src_host,
                spec.coflows[c].flows[f].src_host);
      EXPECT_EQ(got.coflows[c].flows[f].dst_host,
                spec.coflows[c].flows[f].dst_host);
      EXPECT_EQ(got.coflows[c].flows[f].size, spec.coflows[c].flows[f].size);
    }
  }
}

TEST(SnapshotFile, AtomicWriteAndReadBack) {
  const std::string dir =
      ::testing::TempDir() + "gurita_snapshot_file_test";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe.ckpt";
  snapshot::write_snapshot_file(path, "payload bytes");
  EXPECT_EQ(snapshot::read_snapshot_file(path), "payload bytes");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_THROW((void)snapshot::read_snapshot_file(dir + "/absent.ckpt"),
               snapshot::SnapshotError);
}

// -------------------------------------------------- round-trip harness ---

/// Serializes results through the cache codec: two runs are byte-identical
/// iff these strings are equal (jobs, coflows, makespan, every counter,
/// link stats and the trace all travel through it).
std::string results_bytes(const SimResults& results) {
  snapshot::Writer w;
  snapshot::save_results(w, results);
  return w.take();
}

struct Scenario {
  const Fabric& fabric;
  std::string scheduler;
  const std::vector<JobSpec>& jobs;
  Simulator::Config sim_config;  ///< trace field is overwritten per run
  bool with_trace = true;
};

SimResults run_uninterrupted(const Scenario& s) {
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  Simulator::Config config = s.sim_config;
  if (s.with_trace) config.trace = &recorder;
  const std::unique_ptr<Scheduler> sched = make_scheduler(s.scheduler);
  Simulator sim(s.fabric, *sched, config);
  for (const JobSpec& job : s.jobs) sim.submit(job);
  SimResults results = sim.run();
  if (s.with_trace) results.trace = recorder.take();
  return results;
}

/// Runs to `split`, checkpoints, destroys the simulator, rebuilds a fresh
/// one from the same inputs (as a restarted process would), restores and
/// finishes. The snapshot string is the only state that crosses over.
SimResults run_split(const Scenario& s, Time split) {
  std::string bytes;
  {
    obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
    Simulator::Config config = s.sim_config;
    if (s.with_trace) config.trace = &recorder;
    const std::unique_ptr<Scheduler> sched = make_scheduler(s.scheduler);
    Simulator sim(s.fabric, *sched, config);
    for (const JobSpec& job : s.jobs) sim.submit(job);
    (void)sim.run_until(split);
    snapshot::Writer w;
    sim.checkpoint(w);
    bytes = w.take();
  }
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  Simulator::Config config = s.sim_config;
  if (s.with_trace) config.trace = &recorder;
  const std::unique_ptr<Scheduler> sched = make_scheduler(s.scheduler);
  Simulator sim(s.fabric, *sched, config);
  for (const JobSpec& job : s.jobs) sim.submit(job);
  snapshot::Reader r(bytes);
  sim.restore(r);
  SimResults results = sim.finish();
  if (s.with_trace) results.trace = recorder.take();
  return results;
}

/// The headline invariant at a set of pause points.
void expect_split_invariant(const Scenario& s, const std::vector<Time>& splits,
                            const SimResults& reference) {
  const std::string want = results_bytes(reference);
  for (const Time split : splits) {
    SCOPED_TRACE("scheduler " + s.scheduler + ", split at " +
                 std::to_string(split));
    const SimResults resumed = run_split(s, split);
    EXPECT_EQ(results_bytes(resumed), want);
    EXPECT_EQ(resumed.makespan, reference.makespan);
    EXPECT_EQ(resumed.events, reference.events);
  }
}

std::vector<JobSpec> small_trace(const Fabric& fabric, std::uint64_t seed,
                                 int num_jobs = 8) {
  TraceConfig trace;
  trace.num_jobs = num_jobs;
  trace.num_hosts = fabric.num_hosts();
  trace.structure = StructureKind::kMixed;
  trace.seed = seed;
  return generate_trace(trace);
}

// --------------------------------------------- per-scheduler round trip ---

TEST(SnapshotRoundTrip, EverySchedulerByteIdentical) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 11);
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/true};
    s.sim_config.collect_link_stats = true;
    const SimResults reference = run_uninterrupted(s);
    ASSERT_GT(reference.makespan, 0.0);
    expect_split_invariant(s,
                           {0.0, 0.25 * reference.makespan,
                            0.5 * reference.makespan,
                            0.75 * reference.makespan,
                            2.0 * reference.makespan},
                           reference);
  }
}

TEST(SnapshotRoundTrip, EverySchedulerWithFaultPlanByteIdentical) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 17);
  FaultPlanConfig plan;
  plan.host_crash_rate = 6.0;
  plan.link_flap_rate = 4.0;
  plan.straggler_rate = 4.0;
  plan.state_loss_rate = 2.0;
  plan.horizon = 0.5;
  plan.mean_downtime = 0.05;
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/true};
    s.sim_config.faults = generate_fault_plan(
        plan, 77, fabric.num_hosts(), fabric.topology().link_count());
    const SimResults reference = run_uninterrupted(s);
    expect_split_invariant(s,
                           {0.1 * reference.makespan, 0.5 * reference.makespan,
                            0.9 * reference.makespan},
                           reference);
  }
}

// ------------------------------------------------- targeted pause points ---

// k=4 fat-tree at 100 B/s: a 1000 B flow takes 10 s uncontended, so the
// fault windows below are easy to aim at.
JobSpec single_flow_job(Bytes size, int src, int dst, Time arrival = 0) {
  JobSpec job;
  job.arrival_time = arrival;
  CoflowSpec c;
  c.flows.push_back(FlowSpec{src, dst, size});
  job.coflows.push_back(c);
  job.deps = {{}};
  return job;
}

Simulator::Config park_retry_config() {
  Simulator::Config config;
  FaultEvent down;
  down.kind = FaultKind::kHostDown;
  down.time = 2.0;
  down.host = 1;
  FaultEvent up;
  up.kind = FaultKind::kHostUp;
  up.time = 6.0;
  up.host = 1;
  config.faults.events = {down, up};
  config.faults.retry.backoff = RetryPolicy::Backoff::kFixed;
  config.faults.retry.base_delay = 0.5;
  config.faults.retry.jitter = 0.0;
  config.faults.seed = 3;
  return config;
}

// Checkpoint while the aborted flow sits in the parked set (host still
// down), and while its retry entry sits in the backoff heap (host back up,
// restart pending) — the two fault-runtime structures the snapshot must
// carry. Every scheduler goes through both.
TEST(SnapshotRoundTrip, MidFaultParkAndMidRetryBackoff) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  const std::vector<JobSpec> jobs = {single_flow_job(1000, 0, 1)};
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, park_retry_config(), /*with_trace=*/true};
    const SimResults reference = run_uninterrupted(s);
    // The scenario really does abort and retry.
    EXPECT_GE(reference.flow_aborts, 1u) << name;
    EXPECT_GE(reference.flow_retries, 1u) << name;
    // Pause right after the crash (flow parked), right after the recovery
    // (retry scheduled, not yet fired), and after the restart.
    expect_split_invariant(s, {2.0, 6.0, 8.0}, reference);
  }
}

// Capacity changes live in the fault runtime too: pause on an idle fabric
// after a change fired ahead of the first arrival, while a downed link
// holds the degraded capacity it will return at, and after the retry.
TEST(SnapshotRoundTrip, CapacityChangesOnIdleAndDownedLinks) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  const LinkId uplink =
      fabric.topology().find_link(fabric.host(0), fabric.edge_of_host(0));
  Simulator::Config config;
  const auto link_event = [&](FaultKind kind, Time time, double factor) {
    FaultEvent e;
    e.kind = kind;
    e.time = time;
    e.link = uplink;
    e.factor = factor;
    return e;
  };
  config.faults.events = {link_event(FaultKind::kLinkCapacity, 0.3, 0.5),
                          link_event(FaultKind::kLinkDown, 2.0, 1.0),
                          link_event(FaultKind::kLinkCapacity, 3.0, 0.25),
                          link_event(FaultKind::kLinkUp, 4.0, 1.0)};
  const std::vector<JobSpec> jobs = {single_flow_job(1000, 0, 1, 1.0)};
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, config, /*with_trace=*/true};
    const SimResults reference = run_uninterrupted(s);
    EXPECT_EQ(reference.flow_aborts, 1u) << name;
    expect_split_invariant(s, {0.5, 3.5, 6.0}, reference);
  }
}

// Checkpoint between the stages of a dependent job: stage 0's coflow has
// finished, stage 1's was released from the dependency tracker mid-run.
TEST(SnapshotRoundTrip, MidStageRelease) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  JobSpec job;
  job.arrival_time = 0;
  CoflowSpec first;
  first.flows.push_back(FlowSpec{0, 1, 1000});
  CoflowSpec second;
  second.flows.push_back(FlowSpec{2, 3, 1000});
  job.coflows = {first, second};
  job.deps = {{}, {0}};  // stage 1 waits for stage 0 (~10 s each)
  const std::vector<JobSpec> jobs = {job};
  for (const std::string& name : scheduler_names()) {
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/true};
    const SimResults reference = run_uninterrupted(s);
    ASSERT_EQ(reference.coflows.size(), 2u);
    // Mid stage 0, at the release boundary, and mid stage 1.
    expect_split_invariant(s, {5.0, 10.0, 15.0}, reference);
  }
}

// Checkpoint between two allocator-dirtying events. The snapshot codec
// never serializes the incremental allocator's scratch state (per-link
// membership lists, mirrors, dirty frontier) — restore rebuilds it from
// the active set alone, and the rebuilt bookkeeping must finish the run
// byte-identically. Flow B's arrival right after the split is the probe:
// it splits A's bottleneck, so a stale or missing membership list would
// misallocate immediately. A disjoint component rides along to catch
// over-invalidation.
TEST(SnapshotDeterminism, MidConvergenceSplitRebuildsAllocatorState) {
  const FatTree fabric(FatTree::Config{4, 100.0});
  std::vector<JobSpec> jobs;
  jobs.push_back(single_flow_job(1000, 0, 1, 0.0));  // A: alone until t=4
  jobs.push_back(single_flow_job(1000, 0, 1, 4.0));  // B: splits A's links
  jobs.push_back(single_flow_job(500, 8, 9, 1.0));   // disjoint component
  Scenario s{fabric, "gurita", jobs, {}, /*with_trace=*/true};
  s.sim_config.collect_link_stats = true;
  const SimResults reference = run_uninterrupted(s);
  // Between A's and B's arrivals (2.0), at B's arrival instant (4.0),
  // and mid-drain of the post-split rates (6.5).
  expect_split_invariant(s, {2.0, 4.0, 6.5}, reference);
}

// ------------------------------------------------------- sampler cursor ---

/// One timeline run: recorder + interval sampler at `every`, optionally
/// checkpointed at `split` and finished by a freshly built simulator (the
/// sampler object is rebuilt too — only the serialized cursor crosses).
SimResults run_timeline(const Fabric& fabric, const std::vector<JobSpec>& jobs,
                        double every, const Time* split) {
  std::string bytes;
  if (split != nullptr) {
    obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
    obs::IntervalSampler sampler(obs::IntervalSampler::Config{every});
    Simulator::Config config;
    config.trace = &recorder;
    config.sampler = &sampler;
    const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
    Simulator sim(fabric, *sched, config);
    for (const JobSpec& job : jobs) sim.submit(job);
    (void)sim.run_until(*split);
    snapshot::Writer w;
    sim.checkpoint(w);
    bytes = w.take();
  }
  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{every});
  Simulator::Config config;
  config.trace = &recorder;
  config.sampler = &sampler;
  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, config);
  for (const JobSpec& job : jobs) sim.submit(job);
  SimResults results;
  if (split != nullptr) {
    snapshot::Reader r(bytes);
    sim.restore(r);
    results = sim.finish();
  } else {
    results = sim.run();
  }
  results.trace = recorder.take();
  return results;
}

// The tentpole claim for the interval sampler (DESIGN.md §14): the sample
// timeline of a run split across a checkpoint/restore is bitwise identical
// to the uninterrupted run's — grid boundaries come from the serialized
// cursor by multiplication, never from re-accumulation, and the poll points
// (every processed event) are the same on both sides of the split.
TEST(SnapshotDeterminism, SamplerTimelineSurvivesSplitBitwise) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 23);
  const double every = 0.02;
  const SimResults reference =
      run_timeline(fabric, jobs, every, /*split=*/nullptr);

  std::size_t samples = 0;
  for (const obs::TraceRecord& r : reference.trace)
    if (r.kind == obs::TraceEventKind::kSample) ++samples;
  ASSERT_GT(samples, 2u) << "cadence too coarse to put a split between "
                            "samples (makespan "
                         << reference.makespan << ")";

  const std::string want = results_bytes(reference);
  // Mid-run splits plus a boundary-adjacent one: 0.04 is an exact grid
  // time, so the resumed run must not re-emit that boundary's sample.
  for (const Time split : {0.25 * reference.makespan,
                           0.5 * reference.makespan,
                           0.75 * reference.makespan, 2 * every}) {
    SCOPED_TRACE("split at " + std::to_string(split));
    const SimResults resumed = run_timeline(fabric, jobs, every, &split);
    EXPECT_EQ(results_bytes(resumed), want);
  }
}

// ------------------------------------------------------------- rejection ---

// The sampler's configuration is part of the snapshot fingerprint: a
// resumed run with a different cadence (or no sampler at all) would emit a
// different timeline, so restore refuses it up front.
TEST(SnapshotRestore, RejectsMismatchedSampler) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 23);

  obs::TraceRecorder recorder(obs::TraceRecorder::kAllKinds);
  obs::IntervalSampler sampler(obs::IntervalSampler::Config{0.05});
  Simulator::Config config;
  config.trace = &recorder;
  config.sampler = &sampler;
  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, config);
  for (const JobSpec& job : jobs) sim.submit(job);
  (void)sim.run_until(0.1);
  snapshot::Writer w;
  sim.checkpoint(w);
  const std::string bytes = w.take();

  const auto expect_rejected = [&](Simulator::Config bad_config) {
    obs::TraceRecorder rec2(obs::TraceRecorder::kAllKinds);
    bad_config.trace = &rec2;
    const std::unique_ptr<Scheduler> sched2 = make_scheduler("gurita");
    Simulator other(fabric, *sched2, bad_config);
    for (const JobSpec& job : jobs) other.submit(job);
    snapshot::Reader r(bytes);
    EXPECT_THROW(other.restore(r), snapshot::SnapshotError);
  };

  // No sampler attached on the restoring side.
  expect_rejected(Simulator::Config{});
  // Different cadence.
  obs::IntervalSampler coarse(obs::IntervalSampler::Config{0.1});
  Simulator::Config coarse_config;
  coarse_config.sampler = &coarse;
  expect_rejected(coarse_config);
  // Different wall-sample setting.
  obs::IntervalSampler wall(obs::IntervalSampler::Config{0.05, true, true});
  Simulator::Config wall_config;
  wall_config.sampler = &wall;
  expect_rejected(wall_config);
}

TEST(SnapshotRestore, RejectsMismatchedWorkload) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 11);
  Scenario s{fabric, "gurita", jobs, {}, /*with_trace=*/false};

  const std::unique_ptr<Scheduler> sched = make_scheduler("gurita");
  Simulator sim(fabric, *sched, s.sim_config);
  for (const JobSpec& job : jobs) sim.submit(job);
  (void)sim.run_until(0.0);
  snapshot::Writer w;
  sim.checkpoint(w);
  const std::string bytes = w.take();

  // Different jobs → fingerprint mismatch, rejected before any mutation.
  const std::vector<JobSpec> other_jobs = small_trace(fabric, 12);
  const std::unique_ptr<Scheduler> sched2 = make_scheduler("gurita");
  Simulator other(fabric, *sched2, s.sim_config);
  for (const JobSpec& job : other_jobs) other.submit(job);
  snapshot::Reader r(bytes);
  EXPECT_THROW(other.restore(r), snapshot::SnapshotError);

  // Different scheduler → likewise.
  const std::unique_ptr<Scheduler> sched3 = make_scheduler("aalo");
  Simulator wrong_sched(fabric, *sched3, s.sim_config);
  for (const JobSpec& job : jobs) wrong_sched.submit(job);
  snapshot::Reader r2(bytes);
  EXPECT_THROW(wrong_sched.restore(r2), snapshot::SnapshotError);

  // Truncated snapshot → SnapshotError, not garbage state.
  const std::unique_ptr<Scheduler> sched4 = make_scheduler("gurita");
  Simulator truncated(fabric, *sched4, s.sim_config);
  for (const JobSpec& job : jobs) truncated.submit(job);
  snapshot::Reader r3(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_THROW(truncated.restore(r3), snapshot::SnapshotError);
}

// ------------------------------------------------------------------ fuzz ---

/// One fuzz trial: a randomized workload/scheduler/fault draw, checkpointed
/// at a random fraction of its makespan and diffed against the
/// uninterrupted run — the snapshot analogue of the differential engine
/// fuzz (differential_engine_test.cpp).
void run_fuzz_trial(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with fuzz seed " + std::to_string(seed));
  Rng rng(seed);
  FatTree::Config ft;
  ft.k = 4;
  ft.ecmp_salt = rng.next_u64();
  const FatTree fabric(ft);

  TraceConfig trace;
  trace.num_jobs = static_cast<int>(rng.uniform_int(3, 10));
  trace.num_hosts = fabric.num_hosts();
  trace.structure = static_cast<StructureKind>(rng.uniform_int(0, 2));
  trace.arrivals = rng.next_double() < 0.5 ? ArrivalPattern::kPoisson
                                           : ArrivalPattern::kBursty;
  trace.max_width = static_cast<int>(rng.uniform_int(2, 12));
  trace.seed = rng.next_u64();
  const std::vector<JobSpec> jobs = generate_trace(trace);

  const std::vector<std::string>& names = scheduler_names();
  Scenario s{fabric, names[rng.uniform_int(0, names.size() - 1)], jobs, {},
             /*with_trace=*/rng.next_double() < 0.5};
  s.sim_config.collect_link_stats = rng.next_double() < 0.5;
  if (rng.next_double() < 0.3)
    s.sim_config.tcp_ramp_time = rng.uniform(1.0, 10.0) * kMillisecond;
  if (rng.next_double() < 0.4) {
    FaultPlanConfig plan;
    plan.host_crash_rate = rng.uniform(1.0, 8.0);
    plan.straggler_rate = rng.uniform(0.0, 4.0);
    plan.horizon = 0.5;
    plan.mean_downtime = rng.uniform(0.01, 0.1);
    s.sim_config.faults = generate_fault_plan(
        plan, rng.next_u64(), fabric.num_hosts(),
        fabric.topology().link_count());
  }

  const SimResults reference = run_uninterrupted(s);
  const Time split = rng.uniform(0.0, 1.0) * reference.makespan;
  const SimResults resumed = run_split(s, split);
  EXPECT_EQ(results_bytes(resumed), results_bytes(reference))
      << "scheduler " << s.scheduler << ", split " << split;
}

TEST(SnapshotRoundTrip, FuzzRandomSplitAgainstUninterrupted) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_fuzz_trial(seed);
    if (::testing::Test::HasFailure())
      FAIL() << "snapshot fuzz diverged at seed " << seed;
  }
}

// A restored run must also still agree with the reference oracle — the
// checkpoint machinery sits on top of the calendar engine the oracle
// cross-checks, so this closes the loop end to end.
TEST(SnapshotRoundTrip, RestoredRunMatchesOracle) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 23);
  for (const std::string& name :
       {std::string("gurita"), std::string("aalo"), std::string("pfs")}) {
    SCOPED_TRACE("scheduler " + name);
    Scenario s{fabric, name, jobs, {}, /*with_trace=*/false};

    const std::unique_ptr<Scheduler> oracle_sched = make_scheduler(name);
    OracleSimulator oracle(fabric, *oracle_sched, s.sim_config);
    for (const JobSpec& job : jobs) oracle.submit(job);
    const SimResults oracle_results = oracle.run();

    const SimResults resumed = run_split(s, 0.5 * oracle_results.makespan);
    EXPECT_EQ(resumed.makespan, oracle_results.makespan);
    EXPECT_EQ(resumed.events, oracle_results.events);
    EXPECT_EQ(resumed.rate_recomputations, oracle_results.rate_recomputations);
    ASSERT_EQ(resumed.jobs.size(), oracle_results.jobs.size());
    for (std::size_t i = 0; i < resumed.jobs.size(); ++i)
      EXPECT_EQ(resumed.jobs[i].finish, oracle_results.jobs[i].finish)
          << "job " << i;
  }
}

// ------------------------------------------------------ results cache ---

TEST(SnapshotResults, CacheRoundTripsEverything) {
  const FatTree fabric(FatTree::Config{4});
  const std::vector<JobSpec> jobs = small_trace(fabric, 31);
  Scenario s{fabric, "gurita", jobs, {}, /*with_trace=*/true};
  s.sim_config.collect_link_stats = true;
  const SimResults results = run_uninterrupted(s);

  snapshot::Writer w;
  snapshot::save_results(w, results);
  snapshot::Reader r(w.buffer());
  const SimResults loaded = snapshot::load_results(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(results_bytes(loaded), results_bytes(results));
  EXPECT_EQ(loaded.trace.size(), results.trace.size());
  EXPECT_EQ(loaded.makespan, results.makespan);
}

// --------------------------------------- experiment runner halt/resume ---

/// Byte-level comparison of two pooled comparisons: per-scheduler results
/// serialized through the cache codec (covers jobs, coflows, counters,
/// link stats and traces; the wall-clock profile is outside the contract).
void expect_same_comparison(const ComparisonResult& a,
                            const ComparisonResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [name, results] : a.results) {
    const auto it = b.results.find(name);
    ASSERT_NE(it, b.results.end()) << name;
    EXPECT_EQ(results_bytes(results), results_bytes(it->second)) << name;
  }
}

ExperimentConfig checkpointed_scenario(const std::string& dir) {
  ExperimentConfig config = trace_scenario(StructureKind::kMixed, 12, 5);
  config.fat_tree_k = 4;
  config.obs.trace = true;
  config.checkpoint.every = 0.05;
  config.checkpoint.dir = dir;
  return config;
}

TEST(SnapshotDeterminism, HaltedRunResumesByteIdentical) {
  const std::vector<std::string> names = {"gurita", "aalo"};
  ExperimentConfig baseline = trace_scenario(StructureKind::kMixed, 12, 5);
  baseline.fat_tree_k = 4;
  baseline.obs.trace = true;
  const ComparisonResult want = compare_schedulers(baseline, names);

  const std::string dir = ::testing::TempDir() + "gurita_snapshot_halt_test";
  std::filesystem::remove_all(dir);
  ExperimentConfig halted = checkpointed_scenario(dir);
  halted.checkpoint.halt_after = 1;
  EXPECT_THROW((void)compare_schedulers(halted, names, "cell0"),
               snapshot::HaltedError);

  ExperimentConfig resumed = checkpointed_scenario(dir);
  resumed.checkpoint.resume = true;
  const ComparisonResult got = compare_schedulers(resumed, names, "cell0");
  expect_same_comparison(got, want);

  // A second resume short-circuits through the .done caches and still
  // reports the identical bytes.
  const ComparisonResult cached = compare_schedulers(resumed, names, "cell0");
  expect_same_comparison(cached, want);
}

TEST(SnapshotDeterminism, HaltResumeSweepByteIdenticalAcrossWorkerCounts) {
  SweepSpec sweep;
  sweep.experiment = "snapshot-determinism";
  sweep.schedulers = {"gurita", "pfs"};
  sweep.replicates = 2;
  for (int jobs : {8, 12}) {
    ExperimentConfig config = trace_scenario(StructureKind::kMixed, jobs, 3);
    config.fat_tree_k = 4;
    config.obs.trace = true;
    sweep.configs.push_back(config);
  }
  const std::vector<ComparisonResult> want = run_sweep(sweep, 1);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::string dir = ::testing::TempDir() +
                            "gurita_snapshot_sweep_test_w" +
                            std::to_string(workers);
    std::filesystem::remove_all(dir);

    SweepSpec halted = sweep;
    for (ExperimentConfig& config : halted.configs) {
      config.checkpoint.every = 0.05;
      config.checkpoint.dir = dir;
      config.checkpoint.halt_after = 1;
    }
    EXPECT_THROW((void)run_sweep(halted, workers), snapshot::HaltedError);

    SweepSpec resumed = sweep;
    for (ExperimentConfig& config : resumed.configs) {
      config.checkpoint.every = 0.05;
      config.checkpoint.dir = dir;
      config.checkpoint.resume = true;
    }
    const std::vector<ComparisonResult> got = run_sweep(resumed, workers);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      SCOPED_TRACE("config " + std::to_string(c));
      expect_same_comparison(got[c], want[c]);
    }
  }
}

}  // namespace
}  // namespace gurita
