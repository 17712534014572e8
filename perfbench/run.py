"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload lake_discovery --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --self-test

The first call builds the program from source (see build.py). The runner
then starts one JVM with a fixed heap, which sets up the workload,
measures for --seconds seconds (at least one iteration) and checks every
output. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, and the spans are written under .bench_build/perfbench/.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

# A run must end within 180 s; kill the JVM well before that.
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def java(main_class, args, opts, classpath):
    tmp = os.path.join(build.OUT, "work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java"] + opts + [f"-Djava.io.tmpdir={tmp}", "-cp", classpath, main_class] + args
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the tests of the runner's own code")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    try:
        opts, classpath = build.build(tests=a.self_test)
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")

    if a.self_test:
        code, out = java("perfbench.SelfTest", [], opts, classpath)
        sys.stdout.write(out)
        sys.exit(code)

    want = expected_metrics(a.trace)
    code, out = java("perfbench.Main", ["--workload", a.workload, "--seed", str(a.seed),
                                        "--seconds", str(a.seconds), "--trace", str(a.trace)],
                     opts, classpath)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        sys.exit(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit(f"metrics do not match BENCHMARK.json: got {sorted(got.items())}, "
                 f"want {sorted(want.items())}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
