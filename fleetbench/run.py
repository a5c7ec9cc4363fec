#!/usr/bin/env python3
"""Build the fleet benchmark in Release and run one workload.

    python3 fleetbench/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 fleetbench/run.py --smoke

Run from the root of a checkout. The benchmark is a CMake package of its
own (fleetbench/CMakeLists.txt) that compiles the program's libraries from
src/ and links the benchmark program, fleet_bench, against them. The
build tree is $CARGO_TARGET_DIR (default .bench_build) under the
checkout; spans of a traced run are written there too.

fleet_bench's standard output is passed through unchanged; its last line
is the JSON result. The exit code is fleet_bench's: 0 when every output
check held, 1 when one failed, 2 on bad arguments or a failed build.

--smoke runs all four workloads at a tiny size for a second each and
proves the output checks fire: an unknown binary executed on one machine
must fail steady's check, and a delta with a wrong base digest must make
rollout report a failed push.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "first_contact", "rollout", "reshard")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build fleet_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources at %s/src; nothing to build" % ROOT)
        return None
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "fleetbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "fleet_bench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "fleet_bench")
    return binary if os.path.isfile(binary) else None


def run_bench(binary, args, capture=False):
    """Run fleet_bench to completion; returns (exit code, stdout text)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None)
    out = proc.stdout.decode() if capture else ""
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_bench(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "tiny"], capture=True)
            result = last_json(out)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   "%s trace=%s passes its output checks" % (workload, trace))

    code, out = run_bench(binary, [
        "--workload", "steady", "--seed", "7", "--seconds", "1",
        "--trace", "0", "--size", "tiny", "--inject", "unknown_exec"],
        capture=True)
    result = last_json(out)
    expect(code != 0 and result is not None and not result["correct"],
           "steady with an unknown binary fails its output check")

    code, out = run_bench(binary, [
        "--workload", "rollout", "--seed", "7", "--seconds", "1",
        "--trace", "0", "--size", "tiny", "--inject", "bad_base"],
        capture=True)
    result = last_json(out)
    expect(result is not None and result["failed"] >= 1
           and "delta push refused" in out,
           "rollout with a wrong-base delta reports a failed push")

    print("smoke: %d failure(s)" % len(failures), flush=True)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(os.path.dirname(binary), "spans-%s-%d.jsonl" % (
            args.workload, args.seed))
        bench_args += ["--spans", spans]
    code, _ = run_bench(binary, bench_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
