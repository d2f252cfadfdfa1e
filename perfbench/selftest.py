#!/usr/bin/env python3
"""Self-tests of the lumos benchmark, on tiny inputs.

    python3 perfbench/selftest.py

1. A tiny run of every workload emits every metric BENCHMARK.json names,
   with its unit, untraced and traced, and error_rate 0 against a
   freshly generated tiny reference.
2. A perturbed reference raises error_rate above 0.
3. Self times are non-negative and add up to the traced wall time within
   the tracing overhead.
4. Without the library sources next to it, the benchmark exits non-zero
   and prints no result.

Scratch files go under .bench_build/selftest/ and are removed at the end.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def expect(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def tiny(binary, workload, trace, seed=1):
    return run.run_child(binary, workload, seed, 0.2, trace, "tiny", 2)


def check_metrics(metrics, declared, what):
    expect(set(metrics) == set(declared),
           "%s: metrics %s, declared %s" % (what, sorted(metrics),
                                            sorted(declared)))
    for name, m in metrics.items():
        expect(m["unit"] == declared[name],
               "%s: %s has unit %s, declared %s" % (what, name, m["unit"],
                                                    declared[name]))
        expect(isinstance(m["value"], (int, float)),
               "%s: %s is not a number" % (what, name))


def check_self_times(report, metrics, workload):
    spans = report["spans"]
    selfs = run.self_times(spans)
    traced = {e["id"]: e for e in report["executions"] if e["traced"]}
    total_self = 0.0
    for s, t in zip(spans, selfs):
        expect(t >= 0.0, "%s: span %s has self time %g" % (workload, s[0], t))
        if s[1] in traced:
            total_self += t
    traced_wall = sum(e["wall_s"] for e in traced.values())
    slack = max(abs(metrics["trace_overhead_s"]["value"]), 1e-3 * traced_wall)
    expect(abs(total_self - traced_wall) <= slack,
           "%s: self times add to %.6f s, traced wall %.6f s, overhead %.6f s"
           % (workload, total_self, traced_wall, slack))


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")

    binary = run.build()
    scratch = os.path.join(run.build_dir(), "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        run.regenerate(binary, run.WORKLOADS, [1], "tiny", scratch)
        for workload in run.WORKLOADS:
            path = os.path.join(scratch, workload + ".json")
            reference = run.load_reference(path)

            report, rss = tiny(binary, workload, 0)
            attempted, failed = run.check(report, reference)
            expect(attempted >= 1 and failed == 0,
                   "%s: %d of %d units failed" % (workload, failed,
                                                  attempted))
            check_metrics(run.end_to_end(report, rss), e2e, workload)

            report, _ = tiny(binary, workload, 1)
            attempted, failed = run.check(report, reference)
            expect(failed == 0, "%s traced: %d units failed" % (workload,
                                                                failed))
            metrics = run.per_layer(report)
            check_metrics(metrics, layers, workload + " traced")
            check_self_times(report, metrics, workload)

            # Perturb one value of the first unit; every execution of that
            # unit must now count as failed.
            first = sorted(reference["seeds"]["1"])[0]
            key = sorted(reference["seeds"]["1"][first])[0]
            reference["seeds"]["1"][first][key] += "0"
            with contextlib.redirect_stderr(io.StringIO()):
                attempted, failed = run.check(report, reference)
            expect(failed > 0, "%s: perturbed reference still passes"
                   % workload)
            print("ok  %-20s %d units, %d metrics, %d spans"
                  % (workload, attempted, len(metrics), len(report["spans"])))

        # Only BENCHMARK.json and perfbench/: the build must fail cleanly.
        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(SPEC, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "predict",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "bare checkout: exit %d, stdout %r" % (proc.returncode,
                                                      proc.stdout))
        print("ok  bare checkout exits %d without a result" % proc.returncode)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
