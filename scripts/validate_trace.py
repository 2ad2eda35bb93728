#!/usr/bin/env python3
"""Validate a structured simulation trace exported by a bench driver.

Usage: validate_trace.py TRACE.jsonl [TRACE.jsonl.summary.json]
                         [--continuation PARTIAL.jsonl]

Checks, in order:
  1. every line parses as JSON and carries "t" (a number) and a known "kind";
  2. kQueueChange records carry the queue transition (old/new/cause) and, for
     Gurita HR decisions, the full Psi factor breakdown (omega, epsilon,
     ell_max, n, cp_discount, psi); fault-model records (fault, flow_abort,
     flow_retry, job_fail) carry their typed fields; interval-sampler
     records (sample, mem_sample, wall_sample — a bench driver's --timeline
     flag) carry theirs, and mem_sample's total_bytes equals the sum of its
     per-subsystem fields;
  3. the event stream pairs up, fault-aware:
       job_arrival    == job_finish + job_fail
       coflow_release == coflow_finish + sum(job_fail.cancelled_coflows)
       flow_release + flow_retry ==
           flow_finish + flow_abort + sum(job_fail.cancelled_running)
     (a parked flow cancelled by its job's failure already produced a
     flow_abort, so it is counted by cancelled_parked, not here);
  4. when the summary is given, per-kind line counts equal the registry's
     "trace.<kind>" counters exactly;
  5. with --continuation, TRACE must be a *seamless continuation* of
     PARTIAL: section by section, PARTIAL's records are a byte-exact prefix
     of TRACE's, and the first record TRACE adds past the seam never steps
     backwards in time. This is how CI checks that a run resumed from a
     checkpoint (DESIGN.md §12) extends its history instead of rewriting it.

Exit code 0 on success, 1 with a diagnostic on the first failure.
"""
import collections
import json
import sys

KNOWN_KINDS = {
    "job_arrival", "coflow_release", "flow_release", "flow_rate_change",
    "flow_finish", "coflow_finish", "stage_complete", "job_finish",
    "queue_change", "starvation_weights", "capacity_change", "heavy_mark",
    "fault", "flow_abort", "flow_retry", "job_fail",
    "sample", "mem_sample", "wall_sample",
    # Open-horizon service records (src/service/, DESIGN.md §15).
    "admit", "shed", "drain_start", "compact", "degrade",
}
# Interval-sampler record fields (obs/sampler.h; --timeline in the bench
# drivers). kSample counts live entities and engine counters; kMemSample
# carries logical per-subsystem byte totals.
SAMPLE_INT_FIELDS = ("active_flows", "active_coflows", "active_jobs")
SAMPLE_NUM_FIELDS = ("events", "events_per_sec", "calendar", "flow_touches",
                     "rate_recomputations", "trace_records")
MEM_SAMPLE_FIELDS = ("state_bytes", "calendar_bytes", "retry_bytes",
                     "trace_bytes", "active_set_bytes", "total_bytes")
WALL_SAMPLE_FIELDS = ("wall_ms", "events", "events_per_wall_sec")
# FaultKind values that emit a "fault" record (fault/fault.h): every kind
# but kLinkCapacity (7), which emits a "capacity_change" record instead.
NUM_FAULT_KINDS = 7
# QueueChangeCause::kHrDecision — the cause whose records must carry the
# full Psi breakdown (obs/trace.h).
CAUSE_HR_DECISION = 1
PSI_FIELDS = ("omega", "epsilon", "ell_max", "n", "cp_discount", "psi")


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require_int(rec, lineno, line, kind, fields, minimum=None):
    for field in fields:
        value = rec.get(field)
        if not isinstance(value, int):
            fail(f"line {lineno} {kind} lacks integer '{field}': {line[:120]}")
        if minimum is not None and value < minimum:
            fail(f"line {lineno} {kind} has {field}={value} < {minimum}: "
                 f"{line[:120]}")


def validate_line(lineno, line, counts, tallies):
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"line {lineno} is not valid JSON ({e}): {line[:120]}")
    if not isinstance(rec.get("t"), (int, float)):
        fail(f"line {lineno} has no numeric 't': {line[:120]}")
    kind = rec.get("kind")
    if kind not in KNOWN_KINDS:
        fail(f"line {lineno} has unknown kind {kind!r}: {line[:120]}")
    counts[kind] += 1
    if kind == "queue_change":
        for field in ("old", "new", "cause"):
            if not isinstance(rec.get(field), int):
                fail(f"line {lineno} queue_change lacks integer "
                     f"'{field}': {line[:120]}")
        if rec["cause"] == CAUSE_HR_DECISION:
            for field in PSI_FIELDS:
                if not isinstance(rec.get(field), (int, float)):
                    fail(f"line {lineno} HR-decision queue_change lacks Psi "
                         f"factor '{field}': {line[:120]}")
    elif kind == "fault":
        require_int(rec, lineno, line, kind, ("fault_kind", "host", "link"))
        if not 0 <= rec["fault_kind"] < NUM_FAULT_KINDS:
            fail(f"line {lineno} fault has fault_kind={rec['fault_kind']} "
                 f"outside [0, {NUM_FAULT_KINDS}): {line[:120]}")
    elif kind == "flow_abort":
        require_int(rec, lineno, line, kind, ("attempt", "cause"))
        if not isinstance(rec.get("lost"), (int, float)) or rec["lost"] < 0:
            fail(f"line {lineno} flow_abort lacks non-negative 'lost': "
                 f"{line[:120]}")
    elif kind == "flow_retry":
        require_int(rec, lineno, line, kind, ("attempt",))
        if not isinstance(rec.get("latency"), (int, float)):
            fail(f"line {lineno} flow_retry lacks numeric 'latency': "
                 f"{line[:120]}")
    elif kind == "job_fail":
        require_int(rec, lineno, line, kind,
                    ("cancelled_coflows", "cancelled_running",
                     "cancelled_parked"), minimum=0)
        tallies["cancelled_coflows"] += rec["cancelled_coflows"]
        tallies["cancelled_running"] += rec["cancelled_running"]
    elif kind == "sample":
        require_int(rec, lineno, line, kind, SAMPLE_INT_FIELDS, minimum=0)
        for field in SAMPLE_NUM_FIELDS:
            value = rec.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"line {lineno} sample lacks non-negative '{field}': "
                     f"{line[:120]}")
    elif kind == "mem_sample":
        total = 0
        for field in MEM_SAMPLE_FIELDS:
            value = rec.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"line {lineno} mem_sample lacks non-negative "
                     f"'{field}': {line[:120]}")
            if field != "total_bytes":
                total += value
        if rec["total_bytes"] != total:
            fail(f"line {lineno} mem_sample total_bytes={rec['total_bytes']} "
                 f"!= sum of subsystems {total}: {line[:120]}")
    elif kind == "wall_sample":
        for field in WALL_SAMPLE_FIELDS:
            if not isinstance(rec.get(field), (int, float)):
                fail(f"line {lineno} wall_sample lacks numeric '{field}': "
                     f"{line[:120]}")
    elif kind == "admit":
        require_int(rec, lineno, line, kind, ("queue_depth",), minimum=0)
        for field in ("arrival", "queue_wait"):
            if not isinstance(rec.get(field), (int, float)):
                fail(f"line {lineno} admit lacks numeric '{field}': "
                     f"{line[:120]}")
    elif kind == "shed":
        require_int(rec, lineno, line, kind, ("policy", "reason"))
        require_int(rec, lineno, line, kind, ("queue_depth",), minimum=0)
        if not isinstance(rec.get("bytes"), (int, float)) or rec["bytes"] < 0:
            fail(f"line {lineno} shed lacks non-negative 'bytes': "
                 f"{line[:120]}")
    elif kind == "drain_start":
        require_int(rec, lineno, line, kind, ("cause",))
        require_int(rec, lineno, line, kind, ("queued",), minimum=0)
    elif kind == "compact":
        require_int(rec, lineno, line, kind,
                    ("jobs_evicted", "coflows_evicted", "flows_evicted"),
                    minimum=0)
    elif kind == "degrade":
        require_int(rec, lineno, line, kind, ("entered",))


def read_sections(path):
    """Raw lines grouped by their "section" field, in first-seen order."""
    sections = collections.OrderedDict()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                section = json.loads(line).get("section", "")
            except json.JSONDecodeError as e:
                fail(f"{path}: not valid JSON ({e}): {line[:120]}")
            sections.setdefault(section, []).append(line)
    return sections


def check_continuation(trace_path, partial_path):
    """TRACE must extend PARTIAL: per section a byte-exact prefix, and the
    first appended record must not step backwards in time."""
    full = read_sections(trace_path)
    partial = read_sections(partial_path)
    carried = 0
    for section, plines in partial.items():
        flines = full.get(section)
        if flines is None:
            fail(f"continuation: section {section!r} of {partial_path} "
                 f"is missing from {trace_path}")
        if len(flines) < len(plines):
            fail(f"continuation: section {section!r} shrank from "
                 f"{len(plines)} to {len(flines)} records")
        for i, (p, f) in enumerate(zip(plines, flines)):
            if p != f:
                fail(f"continuation: section {section!r} record {i} was "
                     f"rewritten:\n  partial: {p[:120]}\n  full:    {f[:120]}")
        if len(flines) > len(plines) and plines:
            t_seam = json.loads(plines[-1])["t"]
            t_next = json.loads(flines[len(plines)])["t"]
            if t_next < t_seam:
                fail(f"continuation: section {section!r} steps backwards "
                     f"across the seam: t={t_next} after t={t_seam}")
        carried += len(plines)
    print(f"validate_trace: continuation OK: {trace_path} extends "
          f"{carried} records of {partial_path} across "
          f"{len(partial)} section(s)")


def main():
    args = sys.argv[1:]
    continuation = None
    if "--continuation" in args:
        idx = args.index("--continuation")
        if idx + 1 >= len(args):
            fail("--continuation needs a PARTIAL.jsonl argument")
        continuation = args[idx + 1]
        del args[idx:idx + 2]
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.argv = [sys.argv[0]] + args
    trace_path = sys.argv[1]
    counts = collections.Counter()
    tallies = collections.Counter()
    lines = 0
    with open(trace_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            validate_line(lineno, line, counts, tallies)
    if lines == 0:
        fail(f"{trace_path} contains no records")

    # Fault-aware pairing: every entity that enters the system leaves it,
    # through completion, abort-and-park, or its job's failure.
    jobs_out = counts["job_finish"] + counts["job_fail"]
    if counts["job_arrival"] != jobs_out:
        fail(f"unpaired events: job_arrival={counts['job_arrival']} but "
             f"job_finish+job_fail={jobs_out}")
    coflows_out = counts["coflow_finish"] + tallies["cancelled_coflows"]
    if counts["coflow_release"] != coflows_out:
        fail(f"unpaired events: coflow_release={counts['coflow_release']} but "
             f"coflow_finish+cancelled_coflows={coflows_out}")
    flows_in = counts["flow_release"] + counts["flow_retry"]
    flows_out = (counts["flow_finish"] + counts["flow_abort"] +
                 tallies["cancelled_running"])
    if flows_in != flows_out:
        fail(f"unpaired events: flow_release+flow_retry={flows_in} but "
             f"flow_finish+flow_abort+cancelled_running={flows_out}")

    if len(sys.argv) == 3:
        with open(sys.argv[2], encoding="utf-8") as f:
            summary = json.load(f)
        registry = summary.get("counters", {})
        for kind in sorted(KNOWN_KINDS):
            expected = registry.get(f"trace.{kind}", 0)
            if counts[kind] != expected:
                fail(f"count mismatch for {kind}: trace has {counts[kind]} "
                     f"records, summary counter says {expected}")
        if registry.get("trace.dropped", 0):
            fail(f"trace dropped {registry['trace.dropped']} records "
                 f"(recorder cap hit); raise the cap for CI smoke runs")

    by_kind = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"validate_trace: OK: {lines} records ({by_kind})")

    if continuation is not None:
        check_continuation(trace_path, continuation)


if __name__ == "__main__":
    main()
