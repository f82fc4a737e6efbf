"""Span tracer for the geodesica benchmark, installed from outside ``src/``.

Every traced function is replaced, in every ``geodesica`` namespace that
binds it (``from .x import y`` copies a reference, and class attributes such
as ``__rmul__ = __mul__`` copy it again), by a wrapper that records one span:
name, start, end, parent span and whether the call raised.  Spans stay in
memory as flat arrays and are written out once, when the process ends.

Run as a program, this file is the traced child of ``run.py``: it installs
the tracer, runs ``geodesica report`` through ``geodesica.cli.main`` and
writes the spans of this process and of every pool worker it forks.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

# (metric prefix, module, attribute path).  The metric prefix is
# "<module>.<function>"; methods get the name the layer is known by.
TRACED = (
    ("numfield.field_mul", "numfield", "FieldElement.__mul__"),
    ("numfield.nf_inverse", "numfield", "nf_inverse"),
    ("numfield.embed", "numfield", "RealPlace.embed"),
    ("numfield.is_algebraic_integer", "numfield", "is_algebraic_integer"),
    ("knotgroup.evaluate_word", "knotgroup", "evaluate_word"),
    ("knotgroup.mat2_mul", "knotgroup", "Mat2.__mul__"),
    ("knotgroup.longitude_translation", "knotgroup", "MatrixRep.longitude_translation"),
    ("knotgroup.verify", "knotgroup", "MatrixRep.verify"),
    ("knotgroup.riley_polynomial", "knotgroup", "riley_polynomial"),
    ("polycore.irreducibility_certificate", "polycore", "irreducibility_certificate"),
    ("polycore.sturm_real_roots", "polycore", "sturm_real_roots"),
    ("polycore.complex_roots", "polycore", "complex_roots"),
    ("polycore.ratpoly_mul", "polycore", "RatPoly.__mul__"),
    ("eulerclass.euler_tuple", "eulerclass", "euler_tuple"),
    ("eulerclass.euler_number", "eulerclass", "euler_number"),
    ("eulerclass.lift_representation", "eulerclass", "lift_representation"),
    ("eulerclass.ucover_mul", "eulerclass", "ucover_mul"),
    ("eulerclass.closed_surface_obstruction", "eulerclass", "closed_surface_obstruction"),
    ("slopes.slope_set_for_knot", "slopes", "slope_set_for_knot"),
    ("mobius.uniqueness_system", "mobius", "uniqueness_system"),
    ("mobius.tangency", "mobius", "tangency"),
    ("mobius.render_svg", "mobius", "render_svg"),
    ("pretzel.pretzel_holonomy", "pretzel", "pretzel_holonomy"),
    ("pretzel.tangency_chain", "pretzel", "tangency_chain"),
    ("pretzel.psi_root_census", "pretzel", "psi_root_census"),
    ("pretzel.relator_factorization_check", "pretzel", "relator_factorization_check"),
    ("pipeline.load_census", "pipeline", "load_census"),
    ("pipeline.run", "pipeline", "run"),
)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, names):
        self.names = list(names)
        self.name_id = array("i")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.failed = array("b")
        self.stack = []
        # (start bits, final bits) of every EulerResult, for the ladder counts
        self.ladders = []

    def reset(self):
        """Forget every span, in place: the wrappers hold these containers."""
        del self.name_id[:], self.parent[:], self.start_ns[:], self.end_ns[:], self.failed[:]
        self.stack.clear()
        self.ladders.clear()

    def wrap(self, name_id, fn):
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start_ns, self.end_ns
        failed, stack, clock = self.failed, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            failed.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_ladder(self, fn):
        """Record each EulerResult's final precision next to its start bits."""
        signature = inspect.signature(fn)
        ladders = self.ladders

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            ladders.append((bound.arguments["precision_bits"], result.precision_bits))
            return result

        return recorded

    def dump(self):
        return {
            "pid": os.getpid(),
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start_ns.tolist(),
            "end_ns": self.end_ns.tolist(),
            "failed": self.failed.tolist(),
            "ladders": self.ladders,
        }


def install(package="geodesica"):
    """Import every module of the package and wrap each TRACED function
    wherever it is bound.  Returns the tracer; raises LookupError when a
    traced name no longer exists, so a rename cannot silently zero a metric."""
    pkg = importlib.import_module(package)
    modules = [pkg] + [
        importlib.import_module(f"{package}.{p.stem}")
        for p in sorted(Path(pkg.__file__).parent.glob("*.py"))
        if p.stem != "__init__"
    ]
    # every module, and every class a module defines, can hold a reference
    owners = list(modules)
    for m in modules:
        owners.extend(
            v for v in vars(m).values()
            if isinstance(v, type) and v.__module__ == m.__name__
        )
    tracer = Tracer(name for name, _, _ in TRACED)
    for name_id, (name, mod, path) in enumerate(TRACED):
        owner = importlib.import_module(f"{package}.{mod}")
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        original = vars(owner).get(attr)
        if original is None:
            raise LookupError(f"traced function {mod}.{path} not found")
        wrapped = tracer.wrap(name_id, original)
        if name == "eulerclass.euler_number":
            wrapped = tracer.wrap_ladder(wrapped)
        for o in owners:
            for key, value in list(vars(o).items()):
                if value is original:
                    setattr(o, key, wrapped)
    return tracer


# ---------------------------------------------------------------------------
# Aggregation (pure; used by run.py on the dumped spans)
# ---------------------------------------------------------------------------


def aggregate(dumps):
    """Per traced name: calls, failed calls, inclusive and self seconds.

    Self time is a span's duration minus the durations of its direct child
    spans, which nest strictly inside it within one process.  Spans of
    every process (the parent and each pool worker) are summed."""
    out = {}
    for d in dumps:
        names, parent, start, end = d["names"], d["parent"], d["start_ns"], d["end_ns"]
        dur = [e - s for s, e in zip(start, end)]
        child = [0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        for i, nid in enumerate(d["name_id"]):
            row = out.setdefault(names[nid], {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["failed"] += d["failed"][i]
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
    return out


def ladder_counts(dumps):
    """Real places, rungs tried and rungs failed, from each EulerResult's
    final precision: a place that certified at start * 2**j tried j + 1
    rungs and failed j of them."""
    places = rungs = 0
    for d in dumps:
        for start, final in d["ladders"]:
            tried = (final // start).bit_length()
            places += 1
            rungs += tried
    return {"real_places": places, "ladder_rungs": rungs, "rungs_failed": rungs - places}


# ---------------------------------------------------------------------------
# Traced child
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="run geodesica report under the span tracer")
    ap.add_argument("--src", required=True, help="directory holding the geodesica package")
    ap.add_argument("--spans", required=True, help="write span dumps to this directory")
    ap.add_argument("report_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    tracer = install()
    spans = Path(args.spans)

    def write():
        (spans / f"spans-{os.getpid()}.json").write_text(json.dumps(tracer.dump()))

    # pool workers fork from this process with the wrappers in place; each
    # clears the parent's spans and writes its own as it exits
    import multiprocessing.util as mpu

    def in_worker(t):
        t.reset()
        mpu.Finalize(t, write, exitpriority=10)

    mpu.register_after_fork(tracer, in_worker)

    from geodesica import cli

    status = cli.main(args.report_args)
    write()
    return status


if __name__ == "__main__":
    sys.exit(main())
