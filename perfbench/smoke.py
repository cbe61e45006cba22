#!/usr/bin/env python3
"""Smoke test of the benchmark at toy sizes.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs `perfbench/run.py --toy`
untraced once and traced twice with one seed, and checks that:

* each run exits 0 and its last stdout line is a JSON object with exactly
  the keys correct, attempted, failed and metrics, with correct true;
* the untraced run emits exactly the end_to_end metrics and the traced
  runs exactly the per_layer metrics, each with the unit BENCHMARK.json
  names;
* every count the traced run reports repeats exactly across the two runs.

Exits non-zero and names the first failure otherwise.
"""

import json
import os
import subprocess
import sys

# Per-layer metrics that are exact functions of the op stream (everything
# except times and the trace's own timing ratios).
EXACT_UNITS = {"count", "B"}
EXACT_RATIOS = {
    "coord.bottomk.change_ratio",
    "engine.verify.accept_ratio",
    "store.remote.round_trips_per_op",
    "store.shard.resident_skew",
}
SEED = 424242


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}\n{done.stdout}")
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: {last}")
    return result["metrics"]


def expect(workload, trace, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"FAIL {workload} trace={trace}: missing {missing}, extra {extra}, "
                 f"wrong units {wrong}")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        expect(name, 0, run(root, name, 0), bench["end_to_end"])
        first = run(root, name, 1)
        second = run(root, name, 1)
        expect(name, 1, first, bench["per_layer"])
        for metric, m in first.items():
            exact = m["unit"] in EXACT_UNITS or metric in EXACT_RATIOS
            if exact and m["value"] != second[metric]["value"]:
                sys.exit(f"FAIL {name}: {metric} read {m['value']} then "
                         f"{second[metric]['value']} for one seed")
        print(f"ok {name}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
