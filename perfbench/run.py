#!/usr/bin/env python3
"""The lumos benchmark: replay, characterize and predict workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (which compiles the library sources under src/) into
.bench_build/, runs the workload in a fresh process, checks every unit's
outputs bit-exactly against perfbench/reference/NAME.json, prints a
summary line and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (jobs_per_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, taken from the
spans the traced passes record. BENCHMARK.json lists both, and
perfbench/layers.json says which end-to-end metric and workload each
per-layer metric should move.

The seed selects one of REFERENCE_SEEDS committed input sets (seed modulo
REFERENCE_SEEDS), so that every run's outputs can be checked against a
committed reference. Regenerating the reference is an explicit command:

    python3 perfbench/run.py --regen-reference [--workload NAME]

A unit is one call sequence into the program (one simulation, one parse
and analysis of all five traces, one model study). error_rate is the share
of unit executions that threw or whose outputs differ from the reference;
it is printed on the summary line and carried as failed/attempted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
WORKLOADS = ("replay-easy", "replay-conservative", "characterize", "predict")
REFERENCE_SEEDS = 32
RUN_DEADLINE_S = 170.0
# Each run sets up at least SETUPS times, and more (up to 3x) until
# SETUP_SECONDS of set-up has been measured; setup_s is the median.
SETUPS = 3
SETUP_SECONDS = 1.5

SIM_UNITS = (
    "bluewaters-easy",
    "philly-easy",
    "bluewaters-adaptive",
    "dag-hedge-faults",
    "bluewaters-conservative",
    "philly-conservative",
)
SIM_COUNTS = (
    "sim.events",
    "sim.event_batches",
    "sim.scheduling_passes",
    "sim.sort_invocations",
    "sim.profile_rebuilds",
    "sim.profile_cache_hits",
    "sim.backfill_attempts",
    "sim.backfill_successes",
    "sim.max_queue_length",
    "sim.events_cancelled",
    "sim.hedges_launched",
    "sim.retries",
)
# Counts also reported per simulation unit: the ones the simulator's
# profile-rebuild and backfill-scan work is made of.
SIM_UNIT_COUNTS = (
    "sim.profile_rebuilds",
    "sim.backfill_attempts",
    "sim.backfill_successes",
)
ANALYSES = (
    "geometry",
    "arrival",
    "domination",
    "utilization",
    "waiting",
    "failure",
    "repetition",
    "queue_behavior",
    "user_status",
)
MODELS = ("last2", "tobit", "xgboost", "linear", "mlp")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ build


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "lumos_perfbench")


# -------------------------------------------------------------------- run


def run_child(binary, workload, input_seed, seconds, trace, size, setups,
              setup_seconds=0.0):
    """Runs one workload in a fresh process; returns (report, peak RSS KiB).

    The peak RSS comes from wait4 on that process alone, so it is this
    workload's own peak and no other process's.
    """
    out = build_dir()
    tag = "%s-%s-%d-%d" % (workload, size, input_seed, os.getpid())
    report_path = os.path.join(out, "report-%s.json" % tag)
    log_path = os.path.join(out, "run-%s.log" % tag)
    cmd = [binary, "--workload", workload, "--seed", str(input_seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--size", size, "--setups", str(setups),
           "--setup-seconds", repr(float(setup_seconds)), "--out", report_path]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        deadline = time.monotonic() + RUN_DEADLINE_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        if proc.returncode != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("%s exited with %d" % (workload, proc.returncode))
        with open(report_path) as f:
            report = json.load(f)
    finally:
        for path in (report_path, log_path):
            if os.path.exists(path):
                os.remove(path)
    return report, usage.ru_maxrss


def unit_outputs(report):
    """Yields (execution, outputs or None when the unit threw)."""
    first = {}
    for e in report["executions"]:
        if e["error"] is not None:
            yield e, None
            continue
        if e["outputs"] is not None:
            first.setdefault(e["unit"], e["outputs"])
            yield e, e["outputs"]
        else:
            yield e, first[e["unit"]]


def load_reference(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check(report, reference):
    """Counts unit executions that threw or differ from the reference."""
    expected = reference.get("seeds", {}).get(str(report["seed"]))
    if expected is None:
        print("perfbench: no reference for %s input seed %d"
              % (report["workload"], report["seed"]), file=sys.stderr)
    failed = 0
    for e, outputs in unit_outputs(report):
        if outputs is None:
            print("perfbench: %s threw: %s" % (e["unit"], e["error"]),
                  file=sys.stderr)
            failed += 1
            continue
        want = None if expected is None else expected.get(e["unit"])
        if outputs != want:
            failed += 1
            if want is not None:
                diff = sorted(k for k in set(outputs) | set(want)
                              if outputs.get(k) != want.get(k))
                print("perfbench: %s pass %d differs from the reference in "
                      "%s" % (e["unit"], e["pass"], ", ".join(diff[:8])),
                      file=sys.stderr)
    return len(report["executions"]), failed


def passes(report, traced):
    """Per pass: (wall seconds, job records), for complete passes."""
    by_pass = {}
    for e in report["executions"]:
        if e["traced"] == traced:
            wall, jobs = by_pass.get(e["pass"], (0.0, 0))
            by_pass[e["pass"]] = (wall + e["wall_s"], jobs + e["jobs"])
    return [by_pass[p] for p in sorted(by_pass)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(report, peak_rss_kib):
    untraced = passes(report, False)
    wall = statistics.median(w for w, _ in untraced)
    jobs = untraced[0][1]
    return {
        "jobs_per_s": metric(jobs / wall, "jobs/s"),
        "setup_s": metric(statistics.median(report["setup_s"]), "s"),
        "peak_rss_mb": metric(peak_rss_kib / 1024.0, "MiB"),
    }


# --------------------------------------------------------------- per layer


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Spans are [name, unit, parent, start_ns, end_ns]; returns seconds.
    """
    children = {}
    for i, s in enumerate(spans):
        if s[2] >= 0:
            children.setdefault(s[2], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s[3]
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][3]):
            start = max(spans[c][3], cursor)
            end = min(spans[c][4], s[4])
            if end > start:
                covered += end - start
                cursor = end
        out.append((s[4] - s[3] - covered) * 1e-9)
    return out


def per_layer(report):
    spans = report["spans"]
    selfs = self_times(spans)
    execs = {e["id"]: e for e in report["executions"]}
    setups = len(report["setup_s"])

    # Self time by (execution id, span name).
    by_exec = {}
    for s, t in zip(spans, selfs):
        key = (s[1], s[0])
        by_exec[key] = by_exec.get(key, 0.0) + t

    def setup_median(name):
        return statistics.median(by_exec.get((i, name), 0.0)
                                 for i in range(setups))

    traced = sorted({e["pass"] for e in execs.values() if e["traced"]})

    def pass_self(p, name, unit=None):
        return sum(t for (i, n), t in by_exec.items()
                   if n == name and i in execs and execs[i]["pass"] == p
                   and (unit is None or execs[i]["unit"] == unit))

    def traced_median(fn):
        return statistics.median(fn(p) for p in traced)

    # Counts repeat exactly from pass to pass; take the first pass's.
    counts = {}
    unit_counts = {}
    for e in execs.values():
        if e["pass"] != 0:
            continue
        unit_counts[e["unit"]] = e["counts"]
        for k, v in e["counts"].items():
            if k == "sim.max_queue_length":
                counts[k] = max(counts.get(k, 0.0), v)
            else:
                counts[k] = counts.get(k, 0.0) + v

    m = {}
    m["synth.generate_s"] = metric(setup_median("synth.generate"), "s")
    m["synth.jobs"] = metric(report["setup_counts"].get("synth.jobs", 0.0),
                             "count")
    m["trace.write_swf_s"] = metric(setup_median("trace.write_swf"), "s")
    m["trace.sort_by_submit_s"] = metric(setup_median("trace.sort_by_submit"),
                                         "s")
    read_s = traced_median(lambda p: pass_self(p, "trace.read_swf"))
    m["trace.read_swf_s"] = metric(read_s, "s")
    swf_mb = counts.get("trace.swf_bytes", 0.0) / 1e6
    m["trace.read_swf_mb_per_s"] = metric(
        swf_mb / read_s if read_s > 0 else 0.0, "MB/s")

    run_s = traced_median(lambda p: pass_self(p, "sim.simulate"))
    m["sim.run_s"] = metric(run_s, "s")
    for unit in SIM_UNITS:
        m["sim.run_s." + unit] = metric(
            traced_median(lambda p: pass_self(p, "sim.simulate", unit)), "s")
    events = counts.get("sim.events", 0.0)
    m["sim.us_per_event"] = metric(
        run_s / events * 1e6 if events > 0 else 0.0, "us")
    m["sim.metrics_s"] = metric(
        traced_median(lambda p: pass_self(p, "sim.compute_metrics")), "s")
    for name in SIM_COUNTS:
        m[name] = metric(counts.get(name, 0.0), "count")
    attempts = counts.get("sim.backfill_attempts", 0.0)
    m["sim.backfill_success_ratio"] = metric(
        counts.get("sim.backfill_successes", 0.0) / attempts
        if attempts > 0 else 0.0, "ratio")
    for unit in SIM_UNITS:
        for name in SIM_UNIT_COUNTS:
            m[name + "." + unit] = metric(
                unit_counts.get(unit, {}).get(name, 0.0), "count")

    for a in ANALYSES:
        m["analysis.%s_s" % a] = metric(
            traced_median(lambda p: pass_self(p, "analysis." + a)), "s")

    ingest_s = traced_median(lambda p: pass_self(p, "stream.ingest_stream"))
    m["stream.ingest_s"] = metric(ingest_s, "s")
    m["stream.publish_s"] = metric(
        traced_median(lambda p: pass_self(p, "stream.publish")), "s")
    stream_events = counts.get("stream.events", 0.0)
    m["stream.events_per_s"] = metric(
        stream_events / ingest_s if ingest_s > 0 else 0.0, "events/s")
    m["stream.events"] = metric(stream_events, "count")
    m["stream.bad_rows"] = metric(counts.get("stream.bad_rows", 0.0), "count")

    m["predict.features_s"] = metric(traced_median(
        lambda p: pass_self(p, "predict.extract_features")
        + pass_self(p, "predict.build_dataset")), "s")
    for model in MODELS:
        m["predict.model_s." + model] = metric(traced_median(
            lambda p: pass_self(p, "predict.run_prediction_study",
                                "model." + model)), "s")

    traced_wall = statistics.median(w for w, _ in passes(report, True))
    untraced_wall = statistics.median(w for w, _ in passes(report, False))
    m["trace_overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return m


# ------------------------------------------------------------- reference


def regenerate(binary, workloads, seeds, size, out_dir):
    """Rewrites the reference from one pass per input seed."""
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads:
        doc = {"workload": workload, "size": size, "seeds": {}}
        for seed in seeds:
            report, _ = run_child(binary, workload, seed, 0, 0, size, 1)
            expected = {}
            for e, outputs in unit_outputs(report):
                if outputs is None:
                    fail("%s seed %d: %s threw: %s"
                         % (workload, seed, e["unit"], e["error"]))
                expected[e["unit"]] = outputs
            doc["seeds"][str(seed)] = expected
            print("%s input seed %d: %d units" % (workload, seed,
                                                   len(expected)))
        path = os.path.join(out_dir, workload + ".json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite the reference for every input seed")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    if args.regen_reference:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        regenerate(binary, workloads, range(REFERENCE_SEEDS), "full",
                   REFERENCE_DIR)
        return
    if args.workload is None:
        fail("--workload is required")

    input_seed = args.seed % REFERENCE_SEEDS
    reference = load_reference(
        os.path.join(REFERENCE_DIR, args.workload + ".json"))
    report, peak_rss_kib = run_child(binary, args.workload, input_seed,
                                     args.seconds, args.trace, "full",
                                     SETUPS, SETUP_SECONDS)
    attempted, failed = check(report, reference)
    if args.trace:
        metrics = per_layer(report)
    else:
        metrics = end_to_end(report, peak_rss_kib)
    summary = " ".join("%s=%.6g %s" % (k, v["value"], v["unit"])
                       for k, v in metrics.items()
                       if not args.trace or "." not in k)
    print("%s seed=%d input_seed=%d error_rate=%.6g (%d/%d units) %s"
          % (args.workload, args.seed, input_seed, failed / attempted,
             failed, attempted, summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
