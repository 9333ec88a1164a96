"""Benchmark for hexdimer: closed-loop workloads of identity checks.

Usage (from the root of a checkout that holds ``src/hexdimer``):

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/selftest.py      # checks the benchmark itself

One caller drives one worker process at a time (a closed loop with one
client).  Every repetition of a workload runs in a fresh worker
(perfbench/worker.py), so each pays interpreter start-up, the import and
the module memo tables, as a user of the ``hexdimer`` command does.
Repetitions continue until ``--seconds`` have passed.  A timing is the sum
over the workload's calls of each call's fastest repetition, scaled by the
host's speed during the run as a fixed reference computation measures it
(see reference_s and best_calls).  Every output is checked against oracles
that do not use the program's partition-function DP (perfbench/oracles.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics
(perfbench/tracer.py), including the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
_perf = time.perf_counter

# Why each workload exists is recorded in BENCHMARK.json ("why").
CLI_WORKLOADS = {
    "theorem": [["check", "theorem", "-d", "3,3,2"],
                ["check", "eq1", "--order", "5"],
                ["zfun", "-d", "4,4,4", "-w", "z2z2"],
                ["check", "eq2", "--order", "4"],
                ["check", "eq3", "--order", "10"]],
    "lemmas": [["check", "parity", "--max-dims", "3,2,2"],
               ["check", "split", "-d", "3,2,2"],
               ["check", "minus-one", "-d", "2,2,2"],
               ["check", "fibers", "-d", "2,2,1"],
               ["check", "pullback", "-d", "4,4,2"],
               ["check", "consistency", "-d", "4,2,2"]],
}
BIJECTION_DIMS = (12, 12, 12)
BIJECTION_PARTITIONS = 30
WORKLOADS = tuple(CLI_WORKLOADS) + ("bijection",)

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_ONLY_LAUNCHES = 5   # extra set-up samples besides one per repetition
REFERENCE_SAMPLES = 2     # reference_s() samples per CPU before each launch
CPUS = sorted(os.sched_getaffinity(0))
REFERENCE_NOMINAL_S = 0.017  # fastest reference_s() on a 2-vCPU Xeon VM, Python 3.11
RUN_LIMIT_S = 170         # every run must end well inside 180 s


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed call)."""


# -- inputs ----------------------------------------------------------------------


def random_heights(rng: random.Random, a: int, b: int, c: int):
    """A random plane partition: sorting every row and then every column of a
    random matrix leaves both weakly decreasing."""
    rows = [sorted((rng.randint(0, c) for _ in range(b)), reverse=True)
            for _ in range(a)]
    cols = [sorted((rows[i][j] for i in range(a)), reverse=True) for j in range(b)]
    return [[cols[j][i] for j in range(b)] for i in range(a)]


def make_job(workload: str, seed: int, trace: bool, sizes=None) -> dict:
    """The calls of one repetition.  ``sizes`` overrides the call lists and
    the bijection parameters (the self-test uses tiny ones)."""
    sizes = sizes or {}
    if workload in CLI_WORKLOADS:
        calls = sizes.get(workload, CLI_WORKLOADS[workload])
        return {"kind": "cli", "trace": trace,
                "calls": [list(argv) + ["--format", "json"] for argv in calls]}
    if workload != "bijection":
        raise BenchError(f"unknown workload {workload!r}")
    dims, n = sizes.get("bijection", (BIJECTION_DIMS, BIJECTION_PARTITIONS))
    rng = random.Random(seed)
    parts = [(random_heights(rng, *dims), random_heights(rng, *dims),
              rng.randrange(2 ** 32)) for _ in range(n)]
    return {"kind": "bijection", "trace": trace, "dims": list(dims),
            "partitions": parts}


# -- output checks -----------------------------------------------------------------


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def check_cli_output(argv, stdout: str):
    """Failure reason for one ``hexdimer`` call's JSON output, or None."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if argv[0] == "zfun":
        return _check_zfun(argv, obj)
    if not (isinstance(obj, list) and len(obj) == 1):
        return "expected exactly one report"
    rep = obj[0]
    name, params = argv[1], rep.get("params", {})
    if rep.get("check") != name or rep.get("status") != "pass":
        return f"check {rep.get('check')} reported {rep.get('status')}"
    # a silently smaller instance than the one requested counts as failed
    for flag, key, conv in (("-d", "dims", str), ("--order", "order", int),
                            ("--max-dims", "max_dims", str)):
        want = _flag(argv, flag)
        if want is not None and params.get(key) != conv(want):
            return f"params {key}={params.get(key)!r}, requested {want}"
    if name == "theorem":
        dims = map(int, params["dims"].split(","))
        try:
            lhs = oracles.parse_univariate(params["lhs"])
        except ValueError as exc:
            return f"unreadable lhs: {exc}"
        if lhs != oracles.theorem_rhs(*dims):
            return "lhs differs from the box formula's Z(-p)^2"
    elif name == "eq1":
        n = params["order"]
        if params.get("coefficients") != list(oracles.macmahon(n, n, n)[:n + 1]):
            return "eq1 coefficients differ from the box formula"
    elif name == "fibers":
        a, b, c = (2 * int(x) for x in params["dims"].split(","))
        if sum(params.get("fiber_sizes", [])) != oracles.box_count(a, b, c):
            return "fiber sizes do not add up to the even box's diagram count"
    return None


def _check_zfun(argv, obj):
    a, b, c = map(int, _flag(argv, "-d").split(","))
    if obj.get("vars") != ["p", "q", "r", "s"]:
        return f"unexpected variables {obj.get('vars')}"
    # every box weighs one of p,q,r,s, so on the diagonal p=q=r=s the
    # four-variable Z is the box formula in one variable
    by_degree = {}
    for t in obj["terms"]:
        n = sum(t["exp"])
        by_degree[n] = by_degree.get(n, 0) + t["coeff"]
    box = oracles.macmahon(a, b, c)
    if any(by_degree.get(n, 0) != m for n, m in enumerate(box)) \
            or max(by_degree) >= len(box):
        return "Z at p=q=r=s differs from the box formula"
    if sum(by_degree.values()) != oracles.box_count(a, b, c):
        return "Z at p=q=r=s=1 differs from the box count"
    return None


# -- machine speed ---------------------------------------------------------------


def reference_s() -> float:
    """Seconds for a fixed pure-Python sparse product (no hexdimer code).

    The host shares its cores with other machines.  For seconds to tens of
    seconds at a time, each CPU here may run about 1.8 times slower, so the
    raw timings of a 20-second run drift by tens of percent from run to
    run.  The reference is sampled on every CPU before each launch, the
    worker is started on the fastest one, and timings are scaled by
    REFERENCE_NOMINAL_S / (fastest reference sample of the run).
    """
    x = {(i, j, 0, 0): i - j for i in range(16) for j in range(16)}
    y = {(i, 0, j, 1): i + j + 1 for i in range(16) for j in range(16)}
    t0 = _perf()
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = out.get(e, 0) + c1 * c2
    return _perf() - t0


# -- repetitions -------------------------------------------------------------------------


def _worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence counts, repeat exactly
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as users do
    return env


def launch(root: str, job, timeout: float):
    """Start a worker, time its set-up, run the job (or none); returns
    (setup seconds, result dict or None)."""
    t0 = _perf()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=root, env=_worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = _perf() - t0
        payload = "" if job is None else json.dumps(job) + "\n"
        out, err = proc.communicate(payload, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a repetition took longer than {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready":
        raise BenchError(f"worker failed to start:\n{err.strip()[-2000:]}")
    if job is None:
        return setup, None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
    return setup, json.loads(lines[-1])


def failures_of(job, result):
    """(attempted, failure messages) for one repetition."""
    failed = []
    for rec in result["calls"]:
        reason = rec["failure"]
        if reason is None and job["kind"] == "cli":
            reason = check_cli_output(rec["name"].split(), rec["stdout"])
        if reason is not None:
            failed.append(f"{rec['name']}: {reason}")
    return len(result["calls"]), failed


def reference_block():
    """Reference samples on each CPU this process may use; moves the process
    (and so the next worker) to the CPU that ran fastest."""
    samples = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        samples[cpu] = [reference_s() for _ in range(REFERENCE_SAMPLES)]
    best = min(CPUS, key=lambda cpu: min(samples[cpu]))
    os.sched_setaffinity(0, {best})
    return samples[best]


def run_workload(root, workload, seed, seconds, trace, sizes=None):
    """Repeat one workload for ``seconds``; returns a summary dict."""
    t_begin = _perf()
    deadline = t_begin + seconds
    summary = {"workload": workload, "refs": [], "setups": [], "plain": [],
               "traced": [], "attempted": 0, "failed": []}

    def once(job, reps):
        summary["refs"] += reference_block()
        left = RUN_LIMIT_S - (_perf() - t_begin)
        setup, result = launch(root, job, max(left, 1.0))
        summary["setups"].append(setup)
        if result is not None:
            reps.append(result)
            n, bad = failures_of(job, result)
            summary["attempted"] += n
            summary["failed"] += bad

    for _ in range(SETUP_ONLY_LAUNCHES):
        once(None, None)
    plain = make_job(workload, seed, False, sizes)
    traced = make_job(workload, seed, True, sizes)
    while True:
        once(plain, summary["plain"])
        if trace:
            once(traced, summary["traced"])
        if _perf() >= deadline:
            break
    summary["refs"] += reference_block()
    return summary


# -- aggregation ------------------------------------------------------------------------------


def speed_factor(summary) -> float:
    return REFERENCE_NOMINAL_S / min(summary["refs"])


def best_calls(reps, key) -> float:
    """Sum over the calls of each call's least ``key`` ('wall' or 'cpu')
    across repetitions: interference from the host hits calls at random,
    and a call's fastest repetition is the one it missed."""
    return sum(min(r["calls"][i][key] for r in reps)
               for i in range(len(reps[0]["calls"])))


def end_to_end(summary) -> dict:
    """run_s and cpu_s: best_calls, set-up: the fastest launch, all scaled by
    speed_factor; memory: the median over repetitions."""
    k = speed_factor(summary)
    reps = summary["plain"]
    values = {"run_s": k * best_calls(reps, "wall"), "cpu_s": k * best_calls(reps, "cpu"),
              "setup_s": k * min(summary["setups"]),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(summary) -> dict:
    """Layers of the fastest traced repetition, times scaled by speed_factor;
    counts repeat exactly between repetitions."""
    k = speed_factor(summary)
    best = min(summary["traced"], key=lambda r: r["run_s"])
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = k * (best_calls(summary["traced"], "wall")
                         - best_calls(summary["plain"], "wall"))
        elif unit == "s":
            value = k * best["layers"][name]
        else:
            value = best["layers"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def describe(summary, metrics):
    """Human-readable lines for one workload."""
    reps = summary["plain"]
    runs = sorted(r["run_s"] for r in reps)
    lines = [f"# workload {summary['workload']}: {len(reps)} repetitions "
             f"(+{len(summary['traced'])} traced), {len(summary['setups'])} set-ups, "
             f"run_s min/median/max {runs[0]:.4f}/{statistics.median(runs):.4f}/"
             f"{runs[-1]:.4f} s (unscaled), fastest reference {min(summary['refs']):.5f} s "
             f"of {len(summary['refs'])}, speed factor {speed_factor(summary):.4f}, "
             f"fail_ratio {len(summary['failed'])}/{summary['attempted']}"]
    if summary["workload"] in CLI_WORKLOADS:
        for i, rec in enumerate(reps[0]["calls"]):
            walls = [r["calls"][i]["wall"] for r in reps]
            lines.append(f"#   call {rec['name']}: fastest {min(walls):.4f} s, "
                         f"median {statistics.median(walls):.4f} s (unscaled)")
    if summary["traced"]:
        # self times partition the traced run, so they attribute it to modules
        best = min(summary["traced"], key=lambda r: r["run_s"])
        share = {}
        for group, secs in best["self_s"].items():
            module = group.split(".")[0]
            share[module] = share.get(module, 0.0) + secs / best["run_s"]
        for module, frac in sorted(share.items()):
            lines.append(f"#   self time in {module}: {100 * frac:.0f}% of traced run_s")
    for name, m in metrics.items():
        lines.append(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for msg in summary["failed"][:20]:
        lines.append(f"#   FAILED {msg}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hexdimer", "cli.py")):
        print("error: run from the root of a hexdimer checkout "
              "(src/hexdimer/cli.py not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            summary = run_workload(root, name, args.seed, args.seconds, args.trace)
            ms = per_layer(summary) if args.trace else end_to_end(summary)
            print("\n".join(describe(summary, ms)), flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in ms.items()})
            attempted += summary["attempted"]
            failed += len(summary["failed"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
