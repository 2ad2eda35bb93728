// Deterministic checkpoint/restore subsystem (DESIGN.md §12).
//
// A snapshot captures the *complete dynamic state* of a paused simulation —
// event calendar (verbatim heap array, tombstones included), per-coflow
// aggregates, flow progress, parked/retry fault state, fault-plan cursor,
// partial result counters, the trace recorder's buffer and the scheduler's
// policy state — at the engine's one event boundary, where every drive call
// (run_until, run_to, finish) pauses, such that
//
//     run_to(T); checkpoint; [new process] restore; finish()
//
// is byte-identical (JCTs, counters, traces, exports) to an uninterrupted
// run(). Static structure (topology, job specs, routes, sorted fault plan)
// is NOT serialized: the restoring side reconstructs the simulator from the
// same inputs, and a fingerprint embedded in the snapshot rejects
// mismatched inputs with SnapshotError.
//
// Format: `u32 magic, u32 version, u8 payload kind`, then length-prefixed
// sections of codec.h primitives. Versioning rule: bump kFormatVersion on
// any layout change — snapshots are short-lived resume artifacts, not an
// archival format, so no cross-version migration is attempted (a reader
// refuses old versions instead of guessing). Within a version, writers may
// append fields at the *end* of a section; readers skip unknown trailing
// bytes via Reader::skip_to.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "flowsim/simulator.h"
#include "snapshot/codec.h"

namespace gurita::snapshot {

/// "GSNP" little-endian.
inline constexpr std::uint32_t kMagic = 0x504e5347u;
/// v2: added the interval-sampler fingerprint fields and cursor section.
/// v3: flow routes are serialized verbatim (compaction renumbers flow ids,
/// so routes are no longer a pure function of the id), the engine section
/// carries the horizon-pause carry flags, and the kServiceState payload
/// wraps a simulator snapshot with daemon state (DESIGN.md §15).
/// v4: one event boundary for every drive call — the engine section
/// carries only the ramp-refresh bit, and neither payload carries the
/// legacy full-scan touch counter.
/// v5: capacity changes are fault-plan events — the engine section drops
/// the separate capacity-change cursor and the static fingerprint hashes
/// only jobs and the fault plan.
inline constexpr std::uint32_t kFormatVersion = 5;

/// Payload kind byte following the header.
enum class PayloadKind : std::uint8_t {
  kSimulatorState = 1,  ///< Simulator::checkpoint / Simulator::restore
  kResultsCache = 2,    ///< save_results / load_results (finished shard)
  kServiceState = 3,    ///< service daemon auto-checkpoint (service/daemon.h)
};

/// Thrown by the experiment runner when --checkpoint-halt-after stops a run
/// on purpose after writing N snapshots (crash simulation for resume
/// testing). Distinct from SnapshotError so drivers can exit with a
/// "halted, resume me" status instead of reporting corruption.
class HaltedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes the standard snapshot header.
void write_header(Writer& w, PayloadKind kind);
/// Verifies magic/version and returns the payload kind; throws
/// SnapshotError on a mismatch.
[[nodiscard]] PayloadKind read_header(Reader& r);

/// Serializes one trace record field-by-field (shared by the simulator
/// checkpoint and the results cache).
void write_trace_record(Writer& w, const obs::TraceRecord& record);
[[nodiscard]] obs::TraceRecord read_trace_record(Reader& r);

/// Serializes one JobSpec field-by-field. The kServiceState payload embeds
/// the daemon's in-sim and queued job specs — unlike batch restore, an
/// open-horizon resume cannot reconstruct the admitted population from the
/// original inputs (it grew at runtime).
void write_job_spec(Writer& w, const JobSpec& spec);
[[nodiscard]] JobSpec read_job_spec(Reader& r);

/// Serializes a finished run's SimResults — jobs, coflows, every counter,
/// link stats and the trace. The profile is deliberately NOT serialized:
/// it is wall-clock telemetry outside the determinism contract, and a
/// resumed sweep's cached shards report zero profile time (EXPERIMENTS.md).
void save_results(Writer& w, const SimResults& results);
[[nodiscard]] SimResults load_results(Reader& r);

/// Atomically writes `payload` (a Writer buffer) to `path` via
/// `<path>.tmp` + rename, so a crash mid-checkpoint never leaves a
/// truncated snapshot for the resume path to trip over.
void write_snapshot_file(const std::string& path, const std::string& payload);
/// Reads a file written by write_snapshot_file; throws SnapshotError if it
/// cannot be opened.
[[nodiscard]] std::string read_snapshot_file(const std::string& path);

}  // namespace gurita::snapshot
