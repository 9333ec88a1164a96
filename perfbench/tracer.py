"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer wraps public functions and operators of ``hexdimer``.  Several
modules bind library functions with ``from .x import f``, so a wrapper is
rebound in every ``hexdimer`` module namespace that holds the original
object; operators and methods are patched on their class.  Hot boundaries
are aggregated as counters and inclusive / self times; spans are kept only
for the benchmark's top-level calls (see worker.py).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


def _zpoly_states(tr, args, out):
    a, _, c = args[0]
    tr.counts["diagrams.z_poly.states"] += math.comb(a + c, a)


def _poly_add(tr, args, out):
    tr.counts["algebra.poly_add.terms"] += len(args[0].terms) + len(args[1].terms)
    tr.peak_terms = max(tr.peak_terms, len(out.terms))


def _poly_mul(tr, args, out):
    other = args[1]
    n = len(other.terms) if hasattr(other, "terms") else 1  # Monomial operand
    tr.counts["algebra.poly_mul.term_pairs"] += len(args[0].terms) * n
    tr.peak_terms = max(tr.peak_terms, len(out.terms))


def _lp_mul(tr, args, out):
    tr.counts["algebra.lp_mul.term_pairs"] += len(args[0]) * len(args[1])


def _matchings(tr, args, out):
    tr.counts["diagrams.matchings"] += len(out)


def _overlay(tr, args, out):
    tr.two_factors.add(out)


def _loops(tr, args, out):
    tr.counts["overlay.loops"] += len(out.loops)


# (group, module, attribute, timed, hook).  A "Class.method" attribute is
# patched on the class; untimed groups only count calls, which keeps the
# hottest operators cheap to trace.
TARGETS = (
    ("diagrams.z_poly", "hexdimer.diagrams", "z_poly", True, _zpoly_states),
    ("algebra.poly_add", "hexdimer.algebra", "Poly.__add__", True, _poly_add),
    ("algebra.poly_mul", "hexdimer.algebra", "Poly.__mul__", True, _poly_mul),
    ("algebra.series_mul", "hexdimer.algebra", "Series.__mul__", True, None),
    ("algebra.lp_mul", "hexdimer.algebra", "lp_mul", False, _lp_mul),
    ("algebra.series_inv", "hexdimer.algebra", "series_inv", True, None),
    ("algebra.monomial_mul", "hexdimer.algebra", "Monomial.__mul__", False, None),
    ("diagrams.enumerate_matchings", "hexdimer.diagrams", "enumerate_matchings", True, _matchings),
    ("diagrams.matching_of", "hexdimer.diagrams", "matching_of", True, None),
    ("diagrams.diagram_of", "hexdimer.diagrams", "diagram_of", True, None),
    ("diagrams.flippable_faces", "hexdimer.diagrams", "flippable_faces", True, None),
    ("overlay.overlay", "hexdimer.overlay", "overlay", True, _overlay),
    ("overlay.assemble_two_factor", "hexdimer.overlay", "assemble_two_factor", True, _loops),
    ("mesh.is_perfect_matching", "hexdimer.mesh", "HexMesh.is_perfect_matching", True, None),
    ("mesh.build_mesh", "hexdimer.mesh", "build_mesh", True, None),
    ("mesh.hexface_edges", "hexdimer.mesh", "HexMesh.hexface_edges", True, None),
    ("squish.project", "hexdimer.squish", "project", True, None),
    ("squish.lift_preimages", "hexdimer.squish", "lift_preimages", True, None),
    ("squish.loop_lift_sum", "hexdimer.squish", "loop_lift_sum", True, None),
    ("squish.lemma2_sum", "hexdimer.squish", "lemma2_sum", True, None),
    ("squish.weightings", "hexdimer.squish", "wp_edge_weighting", True, None),
    ("squish.weightings", "hexdimer.squish", "pullback_weighting", True, None),
    ("squish.weightings", "hexdimer.squish", "sign_weighting", True, None),
    ("squish.weightings", "hexdimer.squish", "EdgeWeighting.weight_of", True, None),
    ("squish.calibrate_sign_rule", "hexdimer.squish", "calibrate_sign_rule", True, None),
    ("series.mac", "hexdimer.series", "mac", True, None),
    ("series.z2z2_rhs", "hexdimer.series", "z2z2_rhs", True, None),
    ("series.compare_box_vs_series", "hexdimer.series", "compare_box_vs_series", True, None),
    ("cli.main", "hexdimer.cli", "main", True, None),
)

# Reported per-layer metrics, in order: (name, unit, better).
METRICS = (
    ("diagrams.z_poly.calls", "count", "lower"),
    ("diagrams.z_poly.s", "s", "lower"),
    ("diagrams.z_poly.self_s", "s", "lower"),
    ("diagrams.z_poly.states", "count", "lower"),
    ("algebra.poly_add.calls", "count", "lower"),
    ("algebra.poly_add.s", "s", "lower"),
    ("algebra.poly_add.terms", "count", "lower"),
    ("algebra.poly_mul.calls", "count", "lower"),
    ("algebra.poly_mul.s", "s", "lower"),
    ("algebra.poly_mul.term_pairs", "count", "lower"),
    ("algebra.poly.peak_terms", "count", "lower"),
    ("algebra.series_mul.calls", "count", "lower"),
    ("algebra.series_mul.s", "s", "lower"),
    ("algebra.lp_mul.calls", "count", "lower"),
    ("algebra.lp_mul.term_pairs", "count", "lower"),
    ("algebra.series_inv.calls", "count", "lower"),
    ("algebra.series_inv.s", "s", "lower"),
    ("algebra.monomial_mul.calls", "count", "lower"),
    ("diagrams.enumerate_matchings.calls", "count", "lower"),
    ("diagrams.enumerate_matchings.s", "s", "lower"),
    ("diagrams.matchings", "count", "lower"),
    ("overlay.overlay.calls", "count", "lower"),
    ("overlay.overlay.s", "s", "lower"),
    ("overlay.assemble_two_factor.calls", "count", "lower"),
    ("overlay.assemble_two_factor.s", "s", "lower"),
    ("overlay.loops", "count", "lower"),
    ("overlay.two_factors", "count", "lower"),
    ("overlay.useful_ratio", "ratio", "higher"),
    ("mesh.is_perfect_matching.calls", "count", "lower"),
    ("mesh.is_perfect_matching.s", "s", "lower"),
    ("mesh.build_mesh.calls", "count", "lower"),
    ("mesh.build_mesh.s", "s", "lower"),
    ("mesh.hexface_edges.calls", "count", "lower"),
    ("mesh.hexface_edges.s", "s", "lower"),
    ("diagrams.matching_of.calls", "count", "lower"),
    ("diagrams.matching_of.s", "s", "lower"),
    ("diagrams.diagram_of.calls", "count", "lower"),
    ("diagrams.diagram_of.s", "s", "lower"),
    ("diagrams.flippable_faces.s", "s", "lower"),
    ("squish.project.calls", "count", "lower"),
    ("squish.project.s", "s", "lower"),
    ("squish.lift_preimages.calls", "count", "lower"),
    ("squish.lift_preimages.s", "s", "lower"),
    ("squish.loop_lift_sum.calls", "count", "lower"),
    ("squish.loop_lift_sum.s", "s", "lower"),
    ("squish.lemma2_sum.s", "s", "lower"),
    ("squish.weightings.s", "s", "lower"),
    ("squish.calibrate_sign_rule.s", "s", "lower"),
    ("series.mac.calls", "count", "lower"),
    ("series.mac.s", "s", "lower"),
    ("series.z2z2_rhs.s", "s", "lower"),
    ("series.compare_box_vs_series.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Counters and times for one repetition in one worker process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.s = defaultdict(float)        # inclusive, outermost call per group
        self.self_s = defaultdict(float)   # excluding timed children
        self.counts = defaultdict(int)
        self.peak_terms = 0
        self.two_factors = set()
        self._depth = defaultdict(int)
        self._child = [0.0]                # timed-children seconds per open frame

    def _timed(self, group, fn, hook):
        calls, incl, excl, depth, child = (self.calls, self.s, self.self_s,
                                           self._depth, self._child)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            calls[group] += 1
            depth[group] += 1
            child.append(0.0)
            t0 = _perf()
            try:
                out = fn(*args, **kw)
            finally:
                dt = _perf() - t0
                inner = child.pop()
                child[-1] += dt
                depth[group] -= 1
                if not depth[group]:
                    incl[group] += dt
                excl[group] += dt - inner
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def _counted(self, group, fn, hook):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            calls[group] += 1
            out = fn(*args, **kw)
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def install(self):
        """Patch every target; hexdimer.cli must already be imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hexdimer" or name.startswith("hexdimer.")]
        for group, modname, attr, timed, hook in TARGETS:
            make = self._timed if timed else self._counted
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, make(group, cls.__dict__[meth], hook))
                continue
            orig = getattr(mod, attr)
            wrapper = make(group, orig, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)

    def metrics(self) -> dict:
        """Every reported metric except trace.overhead_s, which needs an
        untraced run to compare against."""
        fields = {"calls": self.calls, "s": self.s, "self_s": self.self_s}
        out = {}
        for name, _, _ in METRICS:
            group, _, field = name.rpartition(".")
            out[name] = fields[field][group] if field in fields else self.counts[name]
        n_overlays = self.calls["overlay.overlay"]
        out.update({
            "cli.self_s": self.self_s["cli.main"],
            "algebra.poly.peak_terms": self.peak_terms,
            "overlay.two_factors": len(self.two_factors),
            "overlay.useful_ratio": len(self.two_factors) / n_overlays if n_overlays else 0.0,
        })
        del out["trace.overhead_s"]
        return out
