"""Self-test of the benchmark on tiny instances of every workload.

Run from the root of a checkout:  python3 perfbench/selftest.py

It checks that
* the oracles agree with brute force over heights matrices;
* BENCHMARK.json lists exactly the workloads and metrics the runner emits;
* the tracer records every per-layer metric with nonzero calls on a
  workload that uses its layer, and zero where the layer is not used;
* traced and untraced repetitions give identical verdicts;
* count metrics repeat exactly for one seed, and a different seed changes
  bijection's counts but not its verdicts;
* a silently capped instance and a failed call are counted as failed, and
  the runner carries on after them.
Exits 1 with one line per broken expectation.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import METRICS  # noqa: E402

TINY = {
    "theorem": [["check", "theorem", "-d", "1,1,1"], ["check", "eq1", "--order", "2"],
                ["zfun", "-d", "2,2,1", "-w", "z2z2"], ["check", "eq2", "--order", "2"],
                ["check", "eq3", "--order", "4"]],
    "lemmas": [["check", "parity", "--max-dims", "2,1,1"], ["check", "split", "-d", "1,1,1"],
               ["check", "minus-one", "-d", "1,1,1"], ["check", "fibers", "-d", "1,1,1"],
               ["check", "pullback", "-d", "2,2,2"], ["check", "consistency", "-d", "2,2,2"]],
    "bijection": ((3, 3, 3), 3),
}

# The workload on which each per-layer metric must be nonzero.
USED_ON = {
    "theorem": ("diagrams.z_poly.", "algebra.poly_add.", "algebra.poly.peak_terms",
                "algebra.poly_mul.", "algebra.series_mul.", "algebra.lp_mul.",
                "algebra.series_inv.", "series.", "cli.self_s"),
    "lemmas": ("algebra.monomial_mul.", "diagrams.enumerate_matchings.",
               "diagrams.matchings", "overlay.", "mesh.is_perfect_matching.",
               "mesh.build_mesh.", "squish."),
    "bijection": ("mesh.hexface_edges.", "diagrams.matching_of.",
                  "diagrams.diagram_of.", "diagrams.flippable_faces."),
}
# Layers a workload must never touch.
UNUSED_ON = {"theorem": ("overlay.overlay.calls", "mesh.build_mesh.calls"),
             "lemmas": ("diagrams.z_poly.calls",)}

ROOT = os.getcwd()
problems = []


def expect(ok: bool, what: str):
    if not ok:
        problems.append(what)


def traced_run(workload, seed, sizes=TINY):
    return run.run_workload(ROOT, workload, seed, 0.001, 1, sizes)


def verdict(rec):
    if rec["failure"] or "stdout" not in rec:
        return rec["failure"]
    return run.check_cli_output(rec["name"].split(), rec["stdout"])


def verdicts(reps):
    return [[(rec["name"], verdict(rec)) for rec in r["calls"]] for r in reps]


def counts(summary):
    layers = run.per_layer(summary)
    return {k: v["value"] for k, v in layers.items() if v["unit"] == "count"}


def test_oracles():
    for dims in [(1, 1, 1), (2, 1, 3), (2, 2, 2), (3, 2, 2)]:
        a, b, c = dims
        gf = [0] * (a * b * c + 1)
        for cells in itertools.product(range(c + 1), repeat=a * b):
            h = [cells[i * b:(i + 1) * b] for i in range(a)]
            if all(h[i][j] >= h[i][j + 1] for i in range(a) for j in range(b - 1)) and \
                    all(h[i][j] >= h[i + 1][j] for i in range(a - 1) for j in range(b)):
                gf[sum(cells)] += 1
        expect(list(oracles.macmahon(*dims)) == gf, f"macmahon{dims} != brute force")
        expect(oracles.box_count(*dims) == sum(gf), f"box_count{dims} != brute force")
    expect(oracles.parse_univariate("1 - 2*p + 7*p^2 - p^3") == [1, -2, 7, -1],
           "parse_univariate")
    expect(oracles.flippable_count([[0]], 1) == 1 and oracles.flippable_count([[1, 0]], 1) == 2,
           "flippable_count")


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(METRICS),
           "BENCHMARK.json per_layer differs from tracer.METRICS")


def test_tracing():
    for workload in run.WORKLOADS:
        first = traced_run(workload, 1)
        expect(not first["failed"], f"{workload}: failures {first['failed']}")
        expect(verdicts(first["plain"]) == verdicts(first["traced"]),
               f"{workload}: traced and untraced verdicts differ")
        layers = run.per_layer(first)
        expect(list(layers) == [m[0] for m in METRICS], f"{workload}: metric list")
        for name, m in layers.items():
            if name.startswith(USED_ON[workload]):
                expect(m["value"] > 0, f"{workload}: {name} not recorded")
        for name in UNUSED_ON.get(workload, ()):
            expect(layers[name]["value"] == 0, f"{workload}: {name} should be 0")
        again = traced_run(workload, 1)
        expect(counts(first) == counts(again), f"{workload}: counts differ for one seed")
        if workload == "bijection":
            other = traced_run(workload, 2)
            expect(counts(other) != counts(first), "bijection: seed does not change counts")
            expect(not other["failed"], f"bijection seed 2: failures {other['failed']}")
    covered = {m[0] for m in METRICS
               if any(m[0].startswith(USED_ON[w]) for w in USED_ON)}
    expect(covered == {m[0] for m in METRICS} - {"trace.overhead_s"},
           f"metrics not required anywhere: {sorted({m[0] for m in METRICS} - covered)}")


def test_failure_accounting():
    # check_eq2 caps the order at 4; the report must not pass for order 5
    sizes = {"theorem": [["check", "eq2", "--order", "5"], ["zfun", "-d", "0,1,1"],
                         ["check", "eq2", "--order", "2"]]}
    summary = run.run_workload(ROOT, "theorem", 1, 0.001, 0, sizes)
    expect(summary["attempted"] == 3, "failed calls were not all attempted")
    expect(len(summary["failed"]) == 2 and "order" in summary["failed"][0],
           f"expected the capped order and the bad dims to fail: {summary['failed']}")


def main() -> int:
    test_oracles()
    test_benchmark_json()
    test_failure_accounting()
    test_tracing()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
