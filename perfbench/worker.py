"""One repetition of a benchmark workload, in a fresh interpreter.

Protocol (driven by run.py): the worker imports ``hexdimer.cli`` from
``./src``, writes ``ready`` on stdout, reads one JSON job line from stdin,
runs the job's calls in order and writes one JSON result line.  A fresh
process per repetition makes every repetition pay the module memo tables
(mesh cache, lru_caches, the sign-rule search) as a CLI user does.
"""

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

import oracles
from tracer import Tracer

_perf = time.perf_counter


def cli_call(argv):
    """Run ``hexdimer`` in-process; returns (stdout, failure or None)."""
    import hexdimer.cli

    out, err = io.StringIO(), io.StringIO()
    rc, failure = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = hexdimer.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a dead run
            failure = f"raised {exc!r}"
    if failure is None and rc != 0:
        failure = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), failure


def bijection_calls(job):
    """Yield (name, thunk) pairs; a thunk returns a failure string or None.
    The expected values come from heights matrices and the oracles, never
    from the program."""
    from hexdimer import diagrams, mesh, overlay

    a, b, c = job["dims"]
    dims = mesh.BoxDims(a, b, c)
    want_parity = (a * b + b * c + c * a) % 2
    state = {}

    def start():
        state["mesh"] = mesh.build_mesh(dims)
        state["empty"] = diagrams.matching_of(diagrams.PlanePartition.empty(dims))

    def roundtrip(h):
        state["M"], state["picks"] = None, []
        M = diagrams.matching_of(diagrams.PlanePartition(dims, tuple(map(tuple, h))))
        back = diagrams.diagram_of(state["mesh"], M)
        state["M"] = M
        return None if [list(r) for r in back.h] == h else "round trip changed heights"

    def flippable(h, pick_seed):
        faces = diagrams.flippable_faces(state["mesh"], state["M"])
        want = oracles.flippable_count(h, c)
        if len(faces) != want:
            return f"{len(faces)} flippable faces, expected {want}"
        state["picks"] = random.Random(pick_seed).sample(faces, min(10, len(faces)))
        return None

    def flip(h, face):
        M2 = diagrams.tau_move(state["mesh"], state["M"], face)
        h2 = diagrams.diagram_of(state["mesh"], M2).h
        return None if oracles.one_box_apart(h, h2) else f"flip at {face} is not one box"

    def parity(M2, label):
        lam = overlay.overlay(state["mesh"], state["M"], M2)
        return None if lam.component_count() % 2 == want_parity else f"parity ({label})"

    def parity_random(h2):
        M2 = diagrams.matching_of(diagrams.PlanePartition(dims, tuple(map(tuple, h2))))
        return parity(M2, "random")

    yield "build_mesh", start
    for idx, (h, h2, pick_seed) in enumerate(job["partitions"]):
        yield f"p{idx}.roundtrip", lambda: roundtrip(h)
        yield f"p{idx}.flippable", lambda: flippable(h, pick_seed)
        # the generator resumes only after the previous thunk ran, so the
        # picks are those of this partition
        for k, face in enumerate(state["picks"]):
            yield f"p{idx}.flip{k}", lambda: flip(h, face)
        yield f"p{idx}.overlay_empty", lambda: parity(state["empty"], "empty")
        yield f"p{idx}.overlay_random", lambda: parity_random(h2)


def run(job):
    """Run the job's calls; returns timings, peak memory and one record
    (a top-level span) per call."""
    if job["kind"] == "cli":
        calls = [(" ".join(argv), argv) for argv in job["calls"]]
    else:
        calls = bijection_calls(job)
    records = []
    cpu0 = time.process_time()
    t_start = _perf()
    for name, what in calls:
        t0, c0 = _perf(), time.process_time()
        rec = {"name": name}
        if job["kind"] == "cli":
            rec["stdout"], failure = cli_call(what)
        else:
            try:
                failure = what()
            except Exception as exc:  # a crash is a failed call, not a dead run
                failure = f"raised {exc!r}"
        t1 = _perf()
        rec.update(start=t0 - t_start, end=t1 - t_start, wall=t1 - t0,
                   cpu=time.process_time() - c0, failure=failure)
        records.append(rec)
    run_s = _perf() - t_start
    cpu_s = time.process_time() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_mb,
            "calls": records}


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import hexdimer.cli  # noqa: F401  (set-up ends when this import does)

    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    line = sys.stdin.readline()
    if not line:  # a launch that only measures set-up
        return
    job = json.loads(line)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    result = run(job)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_s"] = tracer.self_s
    proto.write(json.dumps(result) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
