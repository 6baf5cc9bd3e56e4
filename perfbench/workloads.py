"""The benchmark's workloads: inputs, one unit of work, and its output checks.

A unit is what a user of anisomag waits for: a limit study, or a pass of the
id2 identity check, run single-threaded through the public API.  Every unit
uses the seeds the acceptance suite pins at its default seed: the studies'
Monte Carlo seeds, the id2 body samples and the id2 vectors.  So all units of
a run do the same work, and their values, the accuracy metrics and the
per-layer counts repeat exactly on every run.  README.md explains why no
input is drawn from the benchmark's ``--seed``.

Every setting that is not a field of a workload's dataclass is the acceptance
suite's pinned value; README.md says which fields are scaled down, and why.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import anisomag
from anisomag import limits, norms
from anisomag.functionals import IntegrationBudget, ShrinkingUniformFamily
from anisomag.seeding import derive_seed

SNAPSHOT_PATH = Path(__file__).resolve().parent / "snapshot.json"
ACCEPTANCE_SEED = 0


@dataclass
class UnitResult:
    """What one unit produced and how its checks went."""

    points: list  # (value, error) pairs: schedule points, or per-vector norms
    rel_gap: float
    err_rel: float
    ops: int
    failed: int


def snapshot_failures(points, snapshot) -> list[bool]:
    """Per point: outside 3 x (its error + the snapshot's error) of the snapshot."""
    return [abs(v - sv) > 3.0 * (e + se) for (v, e), (sv, se) in zip(points, snapshot, strict=True)]


def _study_result(rep, snapshot, study_ok: bool = True, oracle_ok: bool | None = None) -> UnitResult:
    """The study is one operation, the oracle (when given) another."""
    points = [(pt.value, pt.error) for pt in rep.points]
    study_bad = not (rep.passed and study_ok)
    if snapshot is not None:
        study_bad = study_bad or any(snapshot_failures(points, snapshot))
    ops, failed = 1, int(study_bad)
    if oracle_ok is not None:
        ops, failed = ops + 1, failed + (not oracle_ok)
    err_rel = max(e for _, e in points) / abs(rep.target)
    return UnitResult(points, rep.relative_gap, err_rel, ops, failed)


@dataclass(frozen=True)
class ThresholdMagnetic:
    """Threshold (nguyen) study of the modulated gaussian under a rotational
    potential on the disk, Monte Carlo outer rule: the dense threshold scan
    and bisection through fields and functionals."""

    name: str = "threshold_magnetic"
    samples: int = 24  # acceptance value: 1024

    def setup(self) -> dict:
        return {
            "u": anisomag.modulated_gaussian(2, [1.0, 0.0]),
            "a": anisomag.rotational_potential(1.0),
            "body": anisomag.EuclideanBall(2),
            "budget": IntegrationBudget(outer="montecarlo", samples=self.samples, sphere_nodes=96),
        }

    def run(self, inputs: dict, snapshot=None) -> UnitResult:
        rep = limits.run_study(inputs["u"], inputs["a"], inputs["body"], 2.0, "nguyen", None,
                               inputs["budget"], seed=derive_seed(ACCEPTANCE_SEED, "c4", "ball"),
                               tolerance=0.02, threads=1)
        return _study_result(rep, snapshot)


@dataclass(frozen=True)
class IndicatorPerimeter:
    """Mollified (bbm) study of the unit-square indicator on the disk, whose
    limit is the perimeter 16: ray/region intersections, no field calls."""

    name: str = "indicator_perimeter"
    resolution: int = 64  # acceptance value: 128

    def setup(self) -> dict:
        return {
            "u": anisomag.indicator(anisomag.unit_square()),
            "a": anisomag.zero_potential(2),
            "body": anisomag.EuclideanBall(2),
            "family": ShrinkingUniformFamily(2, 1.0),
            "budget": IntegrationBudget(outer="tensor", resolution=self.resolution, sphere_nodes=96),
        }

    def run(self, inputs: dict, snapshot=None) -> UnitResult:
        rep = limits.run_study(inputs["u"], inputs["a"], inputs["body"], 1.0, "bbm", None,
                               inputs["budget"], seed=derive_seed(ACCEPTANCE_SEED, "c6", "disk"),
                               tolerance=0.03, mollifier_family=inputs["family"], threads=1)
        return _study_result(rep, snapshot, study_ok=abs(rep.target - 16.0) <= 1e-9)


@dataclass(frozen=True)
class FractionalSmooth:
    """Fractional (gagliardo) study of the gaussian on the disk along seven
    s-values, checked against an independent quadrature of its target: fields
    on fixed radial nodes and the large local-energy contraction in norms."""

    name: str = "fractional_smooth"
    resolution: int = 48

    def setup(self) -> dict:
        # K_{2,2} * integral of |grad u|^2 for the unit gaussian
        grad_sq = quad(lambda r: r**3 * math.exp(-(r**2)) * 2.0 * math.pi, 0.0, 30.0,
                       epsabs=1e-12)[0]
        return {
            "u": anisomag.gaussian(2),
            "a": anisomag.zero_potential(2),
            "body": anisomag.EuclideanBall(2),
            "schedule": anisomag.Schedule("s", (0.80, 0.88, 0.93, 0.96, 0.98, 0.99, 0.995)),
            "budget": IntegrationBudget(outer="tensor", resolution=self.resolution, sphere_nodes=64),
            "oracle": (math.pi / 2.0) * grad_sq,
        }

    def run(self, inputs: dict, snapshot=None) -> UnitResult:
        rep = limits.run_study(inputs["u"], inputs["a"], inputs["body"], 2.0, "gagliardo",
                               inputs["schedule"], inputs["budget"],
                               seed=derive_seed(ACCEPTANCE_SEED, "c3", "ball"), tolerance=0.01, threads=1)
        oracle = inputs["oracle"]
        return _study_result(rep, snapshot, oracle_ok=abs(rep.target - oracle) <= 1e-6 * oracle)


_ID2_BODIES = (
    ("ball", lambda: anisomag.EuclideanBall(2)),
    ("cube", lambda: anisomag.cube(2)),
    ("ellipse", lambda: anisomag.Ellipsoid.from_semi_axes([2.0, 1.0])),
    ("hexagon", anisomag.regular_hexagon),
    ("ball3", lambda: anisomag.EuclideanBall(3)),
    ("cube3", lambda: anisomag.cube(3)),
)


@dataclass(frozen=True)
class MomentNorms:
    """The id2 identity check: Monte Carlo over six bodies (two in 3-D)
    against per-vector adapted sphere rules, at p = 1, 2, 3."""

    name: str = "moment_norms"
    vectors: int = 25  # acceptance value: 100 per (body, p)
    samples: int = 65536

    def setup(self) -> dict:
        cases = []
        for name, make in _ID2_BODIES:
            body = make()
            for p in (1.0, 2.0, 3.0):
                rng = np.random.default_rng(derive_seed(ACCEPTANCE_SEED, "id2-vectors", name, p))
                shape = (self.vectors, body.dim)
                vectors = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                cases.append((name, body, p, vectors))
        return {"cases": cases}

    def run(self, inputs: dict, snapshot=None) -> UnitResult:
        points, ok, gaps, errs = [], [], [], []
        for name, body, p, vectors in inputs["cases"]:
            method = norms.BodyMonteCarlo(self.samples, derive_seed(ACCEPTANCE_SEED, "id2", name, p))
            ev = norms.MomentNormEvaluator(body, p, method)
            mc_vals, mc_errs = norms.moment_norm_batch(ev, vectors)
            for v, mc_val, mc_err in zip(vectors, mc_vals, mc_errs):
                sp_val, sp_err = norms.moment_norm_sphere(ev, v)
                ok.append(abs(mc_val - sp_val) <= 3.0 * (mc_err + sp_err) + 1e-9)
                gaps.append(abs(mc_val - sp_val) / sp_val)
                errs.append((mc_err + sp_err) / sp_val)
                points += [(float(mc_val), float(mc_err)), (float(sp_val), float(sp_err))]
        bad = [not o for o in ok]
        if snapshot is not None:
            drift = snapshot_failures(points, snapshot)
            bad = [b or drift[2 * i] or drift[2 * i + 1] for i, b in enumerate(bad)]
        return UnitResult(points, max(gaps), max(errs), len(ok), sum(bad))


WORKLOADS = {w.name: w for w in (ThresholdMagnetic(), IndicatorPerimeter(),
                                 FractionalSmooth(), MomentNorms())}


def load_snapshot(name: str):
    """The (value, error) pairs recorded for ``name``, or None if absent."""
    if not SNAPSHOT_PATH.exists():
        return None
    pairs = json.loads(SNAPSHOT_PATH.read_text()).get(name)
    return None if pairs is None else [tuple(p) for p in pairs]
