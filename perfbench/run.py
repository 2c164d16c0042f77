"""tppverify benchmark: time to a certified verdict, end to end and per layer.

    python3 perfbench/run.py --workload su-sampled --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from src/).
The load is a closed loop with one caller: one workload invocation at a
time, each in its own single-threaded process, repeated while another one
fits in --seconds (at least twice, so that two same-seed reports can be
compared byte for byte).  Every invocation is gated against stored values; the first also
runs the untimed negative controls.  --trace 0 prints the end-to-end metrics
(medians over the invocations); --trace 1 makes one untraced and one traced
invocation and prints the per-layer metrics, and writes the spans to
.perfbench_traces/.  The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, gate  # noqa: E402

# Whole-run wall-clock ceiling: no invocation starts that could end past it.
RUN_CEILING_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "tpp_tuples_per_s": "tuples/s",
    "sep_checks_per_s": "checks/s",
    "certified_share": "ratio",
    "peak_rss_mb": "MiB",
}


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name == "tpp.matmuls_per_tuple":
        return "ratio"
    return "count"


def _environment(seed: int, backend: str, python: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tppverify")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": python, "backend": backend, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed}


def _invoke(workload, seed, flags, timeout):
    """One child invocation: (result dict or None, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()
        return None, tail[-1] if tail else f"exit code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


class Ledger:
    """Operations attempted and failed: invocations, A11 checks, controls."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.first_report = None

    def fail(self, message):
        self.failed += 1
        print(f"FAILED: {message}")

    def invocation(self, res, err):
        self.attempted += 1
        if res is None:
            return self.fail(f"invocation crashed: {err}")
        problems = [] if res["rc"] == 0 else [f"exit code {res['rc']}"]
        problems += gate(self.workload, json.loads(res["report"])["details"], self.seed)
        if self.first_report is None:
            self.first_report = res["report"]
        elif res["report"] != self.first_report:
            problems.append("report differs from the first same-seed report (A11)")
        if problems:
            self.fail("; ".join(problems))
        for name, rejected in res.get("controls", {}).items():
            self.attempted += 1
            if not rejected:
                self.fail(f"negative control {name} was not rejected")


def _loop(args, ledger):
    results = []
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # stop when the next invocation would likely end past --seconds
        if len(durations) >= 2 and elapsed + statistics.mean(durations) > args.seconds:
            break
        if elapsed + max(durations, default=0.0) > RUN_CEILING_S:
            break
        flags = [] if durations else ["--controls"]
        t = time.perf_counter()
        res, err = _invoke(args.workload, args.seed, flags, RUN_CEILING_S - elapsed)
        durations.append(time.perf_counter() - t)
        ledger.invocation(res, err)
        if res is not None:
            results.append(res)
            print(f"invocation {len(results)}: setup_s={res['setup_s']:.3f} "
                  f"verdict_s={res['verdict_s']:.3f} "
                  f"tpp={res['tpp']['checks']}/{res['tpp']['seconds']:.3f}s "
                  f"sep={res['sep']['checks']}/{res['sep']['seconds']:.3f}s")
    if len(results) < 2:
        ledger.attempted += 1
        ledger.fail("fewer than two invocations finished; A11 not checked")
    return results


def _pooled_rate(results, phase):
    """Checks per second over all invocations' time in one phase.

    On a shared host, machine speed drifts in phases lasting seconds to
    minutes, so pooling every second of phase time is steadier than a
    median of a few short rates.
    """
    return (sum(r[phase]["checks"] for r in results)
            / sum(r[phase]["seconds"] for r in results))


def _end_to_end(results):
    checks = sum(r[p]["checks"] for r in results for p in ("tpp", "sep"))
    uncertified = sum(r[p]["failed"] + r[p]["inconclusive"]
                      for r in results for p in ("tpp", "sep"))
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "verdict_s": statistics.median(r["verdict_s"] for r in results),
        "tpp_tuples_per_s": _pooled_rate(results, "tpp"),
        "sep_checks_per_s": _pooled_rate(results, "sep"),
        "certified_share": (checks - uncertified) / checks,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _per_layer(args, ledger):
    plain, err = _invoke(args.workload, args.seed, ["--controls"], RUN_CEILING_S / 2)
    ledger.invocation(plain, err)
    traced, err = _invoke(args.workload, args.seed, ["--trace"], RUN_CEILING_S / 2)
    ledger.invocation(traced, err)
    if plain is None or traced is None:
        return None, []
    layers = dict(traced["layers"])
    layers["tpp.tuple_us"] = 1e6 * plain["tpp"]["seconds"] / plain["tpp"]["checks"]
    layers["sepverify.tuple_us"] = 1e6 * plain["sep"]["seconds"] / plain["sep"]["checks"]
    layers["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
    out_dir = os.path.join(ROOT, ".perfbench_traces")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(traced["trace"], fh, indent=1)
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tppverify", "__init__.py")):
        sys.stderr.write(f"perfbench: no tppverify source under {ROOT}/src\n")
        return 2

    ledger = Ledger(args.workload, args.seed)
    if args.trace:
        metrics, results = _per_layer(args, ledger)
    else:
        results = _loop(args, ledger)
        metrics = _end_to_end(results) if results else None
    if metrics is None:
        sys.stderr.write("perfbench: no invocation finished; nothing to report\n")
        return 1
    env = _environment(args.seed, results[0]["backend"], results[0]["python"])
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
