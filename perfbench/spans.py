"""Span tracing of anisomag's layers, installed from outside the package.

A ``Tracer`` replaces the public functions and methods listed in ``TARGETS``
with wrappers that record one span per call: name, parent span, start, end
and the work the call did (points, rays, nodes, ...).  Work is counted only
on the outermost span of a name, so a rule that builds its own coarse rule or
a body whose ``contains`` delegates to its polytope is counted once.  Spans
stay in memory; ``unit_metrics`` turns the spans of one unit into per-layer
counts and self times, where a span's self time is its duration minus the
durations of its direct children (calls are sequential, one thread).

Fields and potentials are frozen dataclasses holding closures, so they are
traced by ``traced_inputs``, which returns copies whose ``evaluate`` and
``gradient`` are wrapped.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from anisomag import bodies, energy, functionals, grids, limits, norms, spheres
from anisomag.fields import ComplexField, MagneticPotential


def _lead(a) -> int:
    """Number of points in a (..., dim) batch."""
    return math.prod(np.shape(a)[:-1])


def _ray_interval_work(args, kwargs, result):
    poly, x, sigma = args[0], args[1], args[2]
    n_x, n_s = _lead(x), _lead(sigma)
    rays = math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(sigma)[:-1]))
    f, d = len(poly.normals), poly.dim
    # two facet projections, the slack, then per (ray, facet): divide, two
    # sign tests, two selects, two reductions and the three-way parallel test
    flop = 2 * d * f * (n_x + n_s) + f * n_x + 10 * rays * f
    # read points and directions, write (t_lo, t_hi), and the (ray, facet)
    # temporaries numpy materialises: bound, two selects (8 B each) and five
    # boolean masks (1 B each)
    nbytes = 8 * d * (n_x + n_s) + 16 * rays + 29 * rays * f
    return {"rays": rays, "flop": flop, "bytes_computed": nbytes}


def _norms_pow_p_work(args, kwargs, result):
    kernel, v = args[0], args[1]
    n_v, m, d = _lead(v), kernel.rule.size, kernel.body.dim
    modulus_ops = 3 if kernel.p in (1.0, 2.0) else 5
    # two real projections (multiply-add per coordinate), the complex build,
    # |.|_p^p and the weighted sum over nodes
    flop = n_v * m * (4 * d + 2 + modulus_ops)
    # read vectors (complex), nodes and weights, write one value per vector;
    # per (vector, node): re, im, the complex array, two modulus temporaries
    # and the modulus (56 B)
    nbytes = 16 * d * n_v + 8 * m * (d + 1) + 8 * n_v + 56 * n_v * m
    return {"contractions": n_v * m, "flop": flop, "bytes_computed": nbytes}


def _points_arg(index):
    return lambda args, kwargs, result: {"points": _lead(args[index])}


def _rule_nodes(args, kwargs, result):
    return {"nodes": result.size}


def _grid_points(args, kwargs, result):
    return {"points": len(result.points)}


def _sample_points(args, kwargs, result):
    return {"points": len(result)}


def _modulus_elements(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _field_points(args, kwargs, result):
    """Rank >= 3 inputs are scan or radial grids, lower ranks outer points or roots."""
    kind = "dense_points" if np.ndim(args[0]) >= 3 else "flat_points"
    return {kind: _lead(args[0])}


def _kernel_build(args, kwargs, result):
    return {"builds": 1}


def _batch_vectors(args, kwargs, result):
    return {"vectors": len(result[0])}


_BODY_CLASSES = (bodies.EuclideanBall, bodies.Ellipsoid, bodies.SymmetricPolytope, bodies.LqBall)


# (owner, attribute, span name, work counter).  When the owner is a module,
# every anisomag module that bound the same function object by name is
# patched too, since ``from .x import f`` copies the reference.
TARGETS = (
    [
        (bodies.Polytope, "ray_interval", "bodies.ray_interval", _ray_interval_work),
        (bodies.Polytope, "contains", "bodies.contains", _points_arg(1)),
        (bodies.ConvexBody, "sample_uniform", "bodies.sample_uniform", _sample_points),
    ]
    + [(cls, "gauge", "bodies.gauge", _points_arg(1)) for cls in _BODY_CLASSES]
    + [(cls, "contains", "bodies.contains", _points_arg(1)) for cls in _BODY_CLASSES]
    + [
        (spheres, "sphere_rule", "spheres.rule", _rule_nodes),
        (spheres, "circle_panels", "spheres.rule", _rule_nodes),
        (spheres, "slice_rule", "spheres.rule", _rule_nodes),
        (grids, "trapezoid_grid", "grids", _grid_points),
        (grids, "midpoint_grid", "grids", _grid_points),
        (norms, "scalar_mixed_modulus_pow", "norms.modulus_pow", _modulus_elements),
        (norms.SphereMomentKernel, "__init__", "norms.kernel", _kernel_build),
        (norms.SphereMomentKernel, "norms_pow_p", "norms.norms_pow_p", _norms_pow_p_work),
        (norms, "moment_norm_batch", "norms.moment_norm_batch", _batch_vectors),
        (norms, "moment_norm_sphere", "norms.moment_norm_sphere", None),
        (functionals, "gagliardo", "functionals.gagliardo", None),
        (functionals, "nguyen", "functionals.nguyen", None),
        (functionals, "bbm", "functionals.bbm", None),
        (energy, "local_energy", "energy.local_energy", None),
        (energy, "anisotropic_perimeter", "energy.anisotropic_perimeter", None),
        (limits, "extrapolate", "limits.extrapolate", None),
        (limits, "run_study", "limits.run_study", None),
    ]
)


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    unit: int
    t0: float = 0.0
    t1: float = 0.0
    work: dict | None = None  # None on spans nested in a span of the same name


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._unit = -1

    def wrap(self, fn, name, work=None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self._unit)
            outer = parent is None or spans[parent].name != name
            stack.append(len(spans))
            spans.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if outer:
                span.work = work(args, kwargs, result) if work else {}
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, work in TARGETS:
                original = owner.__dict__[attr]
                holders = [owner]
                if isinstance(owner, types.ModuleType):
                    holders += [m for key, m in sorted(sys.modules.items())
                                if key.startswith("anisomag") and m is not owner
                                and getattr(m, attr, None) is original]
                wrapped = self.wrap(original, name, work)
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    @contextmanager
    def unit(self, index: int):
        """Root span of one unit of work; every span inside shares its id."""
        self._unit = index
        start = len(self.spans)
        self.spans.append(Span("unit", None, index, work={}))
        self._stack.append(start)
        self.spans[start].t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[start].t1 = time.perf_counter()
            self._stack.pop()
            self._unit = -1

    def traced_inputs(self, inputs: dict) -> dict:
        """Copy of ``inputs`` whose fields and potentials record spans."""
        out = dict(inputs)
        for key, value in inputs.items():
            if isinstance(value, ComplexField):
                changes = {"evaluate": self.wrap(value.evaluate, "fields.u_eval", _field_points)}
                if value.gradient is not None:
                    changes["gradient"] = self.wrap(value.gradient, "fields.grad", _points_arg(0))
                out[key] = dataclasses.replace(value, **changes)
            elif isinstance(value, MagneticPotential):
                out[key] = dataclasses.replace(
                    value, evaluate=self.wrap(value.evaluate, "fields.a_eval", _points_arg(0)))
        return out

    def to_records(self) -> list:
        """Spans as JSON-ready rows: unit, id, parent, name, start, end, work."""
        return [[s.unit, i, s.parent, s.name, s.t0, s.t1, s.work]
                for i, s in enumerate(self.spans)]


def self_times(tracer: Tracer, index: int) -> dict[int, float]:
    """Span id -> self time for the spans of one unit."""
    ids = [i for i, s in enumerate(tracer.spans) if s.unit == index]
    own = {i: tracer.spans[i].t1 - tracer.spans[i].t0 for i in ids}
    for i in ids:
        parent = tracer.spans[i].parent
        if parent is not None:
            own[parent] -= tracer.spans[i].t1 - tracer.spans[i].t0
    return own


def unit_metrics(tracer: Tracer, index: int) -> dict[str, float]:
    """Per-layer totals of one unit: ``<span>.self_s``, ``<span>.calls`` and
    ``<span>.<work counter>``."""
    totals: dict[str, float] = defaultdict(float)
    for i, own in self_times(tracer, index).items():
        span = tracer.spans[i]
        totals[f"{span.name}.self_s"] += own
        if span.work is not None:
            totals[f"{span.name}.calls"] += 1
            for key, value in span.work.items():
                totals[f"{span.name}.{key}"] += value
    return dict(totals)
