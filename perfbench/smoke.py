#!/usr/bin/env python3
"""Smoke test of the frames-to-verdicts benchmark.

    python3 perfbench/smoke.py BENCH_EXE BENCHMARK.json perfbench/layers.json

Runs every workload of BENCHMARK.json at tiny size (--scale 64, one second)
untraced and traced, and checks that each run

  - prints every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json, with its unit, both as a text line and in the JSON
    result on the last line, and no other metric;
  - reports fail_ratio 0, correct true and no failed packet.

It also checks that perfbench/layers.json names, for every per-layer
metric, end-to-end metrics and workloads that exist.  Exits non-zero on
the first violation.
"""

import json
import os
import re
import subprocess
import sys


def fail(msg):
    sys.exit("smoke: " + msg)


def check_run(exe, workload, trace, declared):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "64"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    where = "%s --trace %d" % (workload, trace)
    if out.returncode != 0:
        fail("%s exited %d:\n%s%s" % (where, out.returncode, out.stdout, out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: unexpected result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: incorrect run %s" % (where, lines[-1]))
    if not any(re.match(r"fail_ratio 0 ratio ", l) for l in lines):
        fail("%s: no 'fail_ratio 0' line" % where)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("%s: metrics %s, declared %s" % (where, sorted(metrics), sorted(declared)))
    for name, unit in declared.items():
        m = metrics[name]
        if m["unit"] != unit or not isinstance(m["value"], (int, float)):
            fail("%s: %s is %s, declared unit %s" % (where, name, m, unit))
        if not any(re.match(r"%s \S+ %s$" % (re.escape(name), re.escape(unit)), l)
                   for l in lines):
            fail("%s: no text line for %s with unit %s" % (where, name, unit))
    print("ok %s (%d metrics)" % (where, len(declared)))


def main():
    exe, bench_json, layers_json = sys.argv[1:4]
    exe = os.path.abspath(exe)
    with open(bench_json) as f:
        bench = json.load(f)
    with open(layers_json) as f:
        layers = json.load(f)["layers"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if set(layers) != set(per_layer):
        fail("layers.json covers %s, BENCHMARK.json declares %s"
             % (sorted(layers), sorted(per_layer)))
    for name, entry in layers.items():
        if not set(entry["moves"]) <= set(e2e):
            fail("layers.json: %s moves unknown metrics %s" % (name, entry["moves"]))
        for key in ("most", "least"):
            if entry[key] is not None and entry[key] not in workloads:
                fail("layers.json: %s names unknown workload %s" % (name, entry[key]))
    for w in workloads:
        check_run(exe, w, 0, e2e)
        check_run(exe, w, 1, per_layer)


if __name__ == "__main__":
    main()
