#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <service|service_remote|join|live> \
        --seed <n> --seconds <s> --trace <0|1> [--toy]

Builds `shard_worker` from this tree and the `perfbench` binary into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the binary with the
given arguments. The worker path is pinned through `MONOTONE_SHARD_WORKER`,
so the remote workload never spawns a stale worker found elsewhere. Traced
runs write their spans under `<target dir>/perfbench-spans/`.

The single-client workloads (`service`, `service_remote`, `live`) run
pinned to one core, with the shard workers they spawn: the client waits
for every reply, so client and workers never run at once, and pinning
removes cross-core wakeups. On a shared 2-core host those wakeups made the
remote workload's p99 vary from 0.07 to 2 ms between runs; pinned, it
stayed near 0.03 ms.

The binary's standard output passes through unchanged; its last line is
the JSON result. The exit code is the binary's, or non-zero when a build
fails (no result is printed then).
"""

import os
import subprocess
import sys

SINGLE_CLIENT = {"service", "service_remote", "live"}


def build(root, target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(
        cmd,
        cwd=root,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, target, ["--manifest-path", "Cargo.toml", "-p", "monotone-store",
                         "--bin", "shard_worker"])
    build(root, target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    release = os.path.join(target, "release")
    env = dict(
        os.environ,
        MONOTONE_SHARD_WORKER=os.path.join(release, "shard_worker"),
        PERFBENCH_OUT=os.path.join(target, "perfbench-spans"),
    )
    if workload in SINGLE_CLIENT and hasattr(os, "sched_setaffinity"):
        cores = os.sched_getaffinity(0)
        # Geometry (worker processes) still follows the cores the run has.
        env["PERFBENCH_NPROC"] = str(len(cores))
        os.sched_setaffinity(0, {max(cores)})
    done = subprocess.run([os.path.join(release, "perfbench")] + args, cwd=root, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
