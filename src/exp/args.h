// Tiny command-line flag parser for bench binaries:
//   ./bench_fig6 --num-jobs 300 --seed 7 --pods 8 --jobs 4
// Args remembers every flag the driver reads; reject_unread() then throws
// for the rest, so typos fail loudly before any simulation starts.
//
// Conventions shared by every driver: `--num-jobs` sizes the workload,
// `--seed` picks the trace seed, and `--jobs N` sets the worker-thread
// count of the parallel experiment runner (resolve_jobs() in exp/runner.h;
// the GURITA_JOBS environment variable is the flagless default, N = 0
// means all hardware threads). Results are bit-identical at any N.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gurita {

/// Strict full-token numeric parses: the whole token must be consumed, so
/// trailing garbage ("4x8", "1.5.2", "7 beta") is an error instead of a
/// silent truncation. Throw std::invalid_argument naming the offending
/// token. The Args getters below and every bench list flag build on these.
[[nodiscard]] int parse_int_strict(const std::string& text);
[[nodiscard]] std::uint64_t parse_u64_strict(const std::string& text);
[[nodiscard]] double parse_double_strict(const std::string& text);

/// Parses a comma-separated integer list ("1,2,8"). Every token is
/// validated fully before anything is accepted; on a bad token (including
/// an empty one, or an empty list) throws std::invalid_argument naming the
/// offending token — never a silently truncated prefix of the list.
[[nodiscard]] std::vector<int> parse_int_list(const std::string& csv);

class Args {
 public:
  /// Parses "--key value" pairs and bare "--flag" booleans (a flag followed
  /// by another flag, or by nothing, stores the empty string — read it back
  /// with get_bool/has). Throws std::logic_error on malformed input, and
  /// ConfigError (fault/fault.h) listing *every* flag that was defined more
  /// than once — repeated flags are a silent last-write-wins trap in long
  /// sweep invocations, so they fail loudly instead.
  Args(int argc, char** argv);

  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Boolean flag: absent → fallback; bare "--flag" → true; otherwise the
  /// value must be "true"/"1" or "false"/"0".
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Throws ConfigError listing, in sorted order, every parsed flag that no
  /// get_*/has call has read. A driver calls it after its last read and
  /// before any simulation, so a mistyped or unsupported flag stops the
  /// run instead of being silently ignored.
  void reject_unread() const;

 private:
  /// Looks `key` up and records it as read.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// Applies the shared --log-level flag (debug|info|warn|error|off) to the
/// process-wide log level; a no-op when the flag is absent. Every bench
/// driver calls this right after parsing.
void apply_log_level(const Args& args);

struct ExperimentConfig;

/// Applies the shared fault-injection flags to `config.faults`:
///   --faults                      enable with the config's current rates
///   --fault-host-rate R           host down/up pairs per simulated second
///   --fault-link-rate R           link down/up pairs per second
///   --fault-straggler-rate R      straggler windows per second
///   --fault-state-loss-rate R     scheduler-state losses per second
///   --fault-horizon T             inject faults in [0, T) seconds
///   --fault-downtime T            mean crash/flap outage (seconds)
///   --fault-straggle T            mean straggler window (seconds)
///   --fault-straggle-factor F     surviving rate fraction while slow, (0,1)
///   --fault-retry fixed|exponential   backoff shape
///   --fault-retry-base T          base retry delay (seconds)
///   --fault-retry-multiplier M    exponential growth per attempt
///   --fault-retry-max-delay T     backoff cap (seconds)
///   --fault-retry-jitter J        max jitter fraction added to each delay
///   --fault-retry-max-attempts N  aborts beyond this fail the job
/// Any of these flags implies --faults. Throws std::logic_error on an
/// unknown --fault-retry value; a mistyped "--fault-*" flag is left unread
/// for Args::reject_unread.
void apply_fault_flags(const Args& args, ExperimentConfig& config);

/// Applies the shared checkpoint/resume flags to `config.checkpoint`
/// (experiment.h; DESIGN.md §12):
///   --checkpoint-every T       snapshot cadence in simulated seconds (> 0)
///   --checkpoint-dir D         artifact directory (.ckpt/.done files)
///   --resume-from D            resume from D's artifacts (implies dir D)
///   --checkpoint-halt-after N  crash on purpose after N snapshots (> 0);
///                              drivers catch HaltedError and exit 75
/// Throws ConfigError aggregating every problem: --checkpoint-every without
/// a directory, a non-positive cadence, --checkpoint-halt-after without
/// --checkpoint-every, and conflicting --checkpoint-dir/--resume-from
/// directories.
void apply_checkpoint_flags(const Args& args, ExperimentConfig& config);

/// Applies the shared timeline/diagnostics telemetry flags to `config.obs`
/// (experiment.h; DESIGN.md §14):
///   --timeline            attach the deterministic interval sampler at the
///                         default cadence (0.05 simulated seconds)
///   --timeline-every T    sampling cadence in simulated seconds (> 0;
///                         implies --timeline)
///   --timeline-wall       also emit wall-clock samples (kWallSample) —
///                         NON-deterministic, excluded from fingerprints
///   --diagnostics         non-deterministic run health (allocator work,
///                         memory peaks, pool stats) in the summary JSON
/// Throws ConfigError on a non-positive cadence.
void apply_timeline_flags(const Args& args, ExperimentConfig& config);

}  // namespace gurita
