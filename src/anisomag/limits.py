"""Limit studies: schedules, extrapolation and comparison against local energies.

A study evaluates one nonlocal functional along a parameter schedule
(s up to 1, delta down to 0, or mollifier index n up to infinity), applies the
theorem normalization, extrapolates to the limit with one weighted linear
least-squares fit in the expansion that the path has in its small parameter t
(1 - s, delta or 1/n), and compares against the directly computed local
target.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import functionals
from .bodies import ConvexBody
from .energy import GridSpec, anisotropic_perimeter, local_energy
from .fields import ComplexField, MagneticPotential
from .functionals import (
    Bbm,
    FunctionalSpec,
    Gagliardo,
    IntegrationBudget,
    LudwigFamily,
    Nguyen,
    ShrinkingUniformFamily,
)
from .seeding import derive_seed

REPORT_SCHEMA_VERSION = 2
# smallest fit error: the weights 1/error then square to at most 1e300, so
# all-zero data (errors 0, scale 1e-300) cannot overflow them into a NaN limit
ERR_FLOOR_MIN = 1e-150


@dataclass(frozen=True)
class Schedule:
    """Monotone parameter schedule; ``kind`` is one of "s", "delta", "n"."""

    kind: str
    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 4:
            raise ValueError("schedules need at least 4 points for extrapolation")
        if self.kind == "s":
            if not all(0.0 < v < 1.0 for v in vals):
                raise ValueError("s values must lie in (0, 1)")
            if not all(a < b for a, b in zip(vals, vals[1:])):
                raise ValueError("s values must increase")
        elif self.kind == "delta":
            if not all(v > 0 for v in vals):
                raise ValueError("delta values must be positive")
            if not all(a > b for a, b in zip(vals, vals[1:])):
                raise ValueError("delta values must decrease")
        elif self.kind == "n":
            if not all(int(v) == v and v >= 1 for v in vals):
                raise ValueError("n values must be positive integers")
            if not all(a < b for a, b in zip(vals, vals[1:])):
                raise ValueError("n values must increase")
        else:
            raise ValueError("schedule kind must be 's', 'delta' or 'n'")

    @property
    def t_values(self) -> np.ndarray:
        """Small parameter tending to zero (1-s, delta, or 1/n)."""
        v = np.asarray(self.values, dtype=float)
        if self.kind == "s":
            return 1.0 - v
        if self.kind == "delta":
            return v
        return 1.0 / v


def default_schedule(kind: str) -> Schedule:
    if kind == "s":
        return Schedule("s", (0.80, 0.88, 0.93, 0.96, 0.98, 0.99))
    if kind == "delta":
        return Schedule("delta", (0.1, 0.05, 0.02, 0.01, 0.005))
    if kind == "n":
        return Schedule("n", (4, 8, 16, 32, 64))
    raise ValueError("schedule kind must be 's', 'delta' or 'n'")


@dataclass(frozen=True)
class Extrapolation:
    limit: float
    residual: float
    aitken: float
    limit_stderr: float
    fit_model: str  # the fitted basis, e.g. "1, t^2, t^4"


def extrapolate(points, powers) -> Extrapolation:
    """Weighted linear fit value = C + sum_j a_j t^q_j to points (t, value,
    error), t > 0 strictly decreasing, with q_j the leading ``powers`` of the
    path's expansion in t; C is the limit.

    Only the first len(points) - 2 powers are kept, so the fit always has a
    degree of freedom.  A point weighs 1/max(error, floor).  The fit runs on
    value - value[-1], so C is a fixed linear combination of the values, and
    a constant series gives its value exactly.  ``limit_stderr`` is
    sqrt(cov_00 max(chi2_red, 1)): the covariance is scaled up when the points
    scatter more than their errors say.  ``residual`` is the RMS weighted
    residual; ``aitken`` is the delta-squared accelerant of the last three
    points, a cross-check outside the fit.
    """
    pts = [(float(t), float(v), float(e)) for t, v, e in points]
    if len(pts) < 4:
        raise ValueError("extrapolation needs at least 4 points")
    t, v, e = np.array(pts).T
    if np.any(t <= 0.0) or not np.all(np.diff(t) < 0.0):
        raise ValueError("t must be positive and strictly decreasing")
    scale = max(float(np.max(np.abs(v))), 1e-300)
    err_floor = max(1e-12 * scale, float(np.min(e[e > 0])) if np.any(e > 0) else 1e-12 * scale,
                    ERR_FLOOR_MIN)
    w = 1.0 / np.maximum(e, err_floor)

    d1, d2 = v[-2] - v[-3], v[-1] - v[-2]
    if abs(d2 - d1) > 1e-300:
        aitken = float(v[-1] - d2 * d2 / (d2 - d1))
    else:  # a constant tail is its own limit; an arithmetic one has none
        aitken = float(v[-1]) if d2 == 0.0 else math.nan

    q = tuple(float(x) for x in powers)[: len(t) - 2]
    # columns (t/t_0)^q keep the Gram matrix well scaled; C is unchanged
    design = np.einsum("i,ij->ij", w, (t / t[0])[:, None] ** np.array((0.0,) + q))
    cov = np.linalg.inv(np.einsum("ij,ik->jk", design, design))
    # the coefficients are a fixed linear map of the values, formed first
    gain = np.einsum("jk,ik,i->ji", cov, design, w)
    shifted = v - v[-1]
    coef = np.einsum("ji,i->j", gain, shifted)
    resid = np.einsum("ij,j->i", design, coef) - w * shifted
    chi2 = float(np.einsum("i,i->", resid, resid))
    stderr = math.sqrt(max(float(cov[0, 0]), 0.0) * max(chi2 / (len(t) - len(q) - 1), 1.0))
    model = ", ".join(["1"] + ["t" if x == 1.0 else f"t^{x:g}" for x in q])
    return Extrapolation(float(v[-1] + coef[0]), math.sqrt(chi2 / len(t)), aitken, stderr, model)


@dataclass(frozen=True)
class StudyPoint:
    parameter: float
    t: float
    value: float  # normalized value entering the fit
    error: float
    raw_value: float


@dataclass(frozen=True)
class ConvergenceReport:
    study: dict
    points: tuple
    extrapolation: Extrapolation
    target: float
    target_error: float
    relative_gap: float
    tolerance: float
    passed: bool
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "study": self.study,
            "points": [asdict(p) for p in self.points],
            "extrapolation": asdict(self.extrapolation),
            "target": self.target,
            "target_error": self.target_error,
            "relative_gap": self.relative_gap,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConvergenceReport":
        if data.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ValueError("unsupported report schema version")
        return cls(
            study=data["study"],
            points=tuple(StudyPoint(**p) for p in data["points"]),
            extrapolation=Extrapolation(**data["extrapolation"]),
            target=data["target"],
            target_error=data["target_error"],
            relative_gap=data["relative_gap"],
            tolerance=data["tolerance"],
            passed=data["pass"],
            diagnostics=data["diagnostics"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ConvergenceReport":
        return cls.from_dict(json.loads(text))

    def points_csv_rows(self):
        yield ("parameter", "value", "error")
        for p in self.points:
            yield (repr(p.parameter), repr(p.value), repr(p.error))

    def write_plot_dat(self, path) -> None:
        with open(path, "w") as fh:
            for p in self.points:
                fh.write(f"{p.parameter!r} {p.value!r}\n")


def compare(extrapolation: Extrapolation, target: float, tolerance: float,
            points=None) -> tuple[bool, dict]:
    """Pass/fail with diagnostics: |limit - target| within the tolerance band.

    The band is tolerance * |target| plus three propagated fit uncertainties;
    a zero target switches to absolute mode.
    """
    gap = abs(extrapolation.limit - target)
    band = tolerance * abs(target) + 3.0 * extrapolation.limit_stderr
    if target == 0.0:
        band = tolerance + 3.0 * extrapolation.limit_stderr
    passed = bool(gap <= band)
    diagnostics = {
        "gap": gap,
        "band": band,
        "fit_model": extrapolation.fit_model,
        "aitken_gap": abs(extrapolation.aitken - target) if np.isfinite(extrapolation.aitken) else None,
    }
    if points:
        quad = max(p.error for p in points)
        trunc = abs(points[-1].value - extrapolation.limit)
        diagnostics["max_point_error"] = quad
        diagnostics["schedule_truncation"] = trunc
        diagnostics["dominant_error_source"] = (
            "quadrature" if quad >= trunc else "schedule truncation"
        )
    return passed, diagnostics


# functional kind -> (its FunctionalSpec kind class, its schedule kind).  The
# functional itself is looked up by name in ``functionals`` at each call, so a
# wrapper patched over ``functionals.gagliardo``, ``nguyen`` or ``bbm`` sees it.
_KINDS = {"gagliardo": (Gagliardo, "s"), "nguyen": (Nguyen, "delta"), "bbm": (Bbm, "n")}


def _expansion(kind: str, smooth: bool, mollifier_family) -> tuple:
    """Powers of t in a path's expansion about its limit.  Linear for
    indicator fields (a chord of length L adds c^2 - (c - L)_+^2, c = 1/(n g))
    and the threshold functional; even in t = 1/n for the shrinking family on
    smooth fields (F(-h) = F(h)); analytic in t = 1 - s for the fractional
    seminorm, and for the Ludwig family fitted in t = 1/n (= 1 - s_n for the
    default s_n).  Fitted to the exact values of the seven-point acceptance
    schedule, three powers leave that limit 1e-5 to 3e-5 low, four about
    1e-6."""
    if not smooth or kind == "nguyen":
        return (1,)
    if kind == "bbm" and isinstance(mollifier_family, ShrinkingUniformFamily):
        return (2, 4)
    return (1, 2, 3, 4)


def _point_budget(base: IntegrationBudget, t: float, t0: float,
                  indicator: bool) -> IntegrationBudget:
    """Budget growth along the schedule: MC samples like 1/t; tensor resolution
    like 1/t for indicator pipelines (the integrand concentrates in a band)."""
    if base.outer == "montecarlo":
        return replace(base, samples=int(round(base.samples * t0 / t)))
    if indicator:
        return replace(base, resolution=int(round(base.resolution * t0 / t)))
    return base


def run_study(
    u: ComplexField,
    a: MagneticPotential,
    body: ConvexBody,
    p: float,
    kind: str,
    schedule: Schedule | None = None,
    budget: IntegrationBudget | None = None,
    seed: int = 0,
    tolerance: float = 0.02,
    mollifier_family=None,
    target_grid: GridSpec | None = None,
    threads: int = 1,
) -> ConvergenceReport:
    """Evaluate a functional along a schedule, extrapolate, compare to the target.

    Normalizations: the fractional value is multiplied by (1 - s); the
    threshold and mollified values are used as-is, but the mollified target is
    p times the local energy.  Indicator fields (p = 1) target the anisotropic
    perimeter.  The schedule must be of the functional's kind: "s" for
    gagliardo, "delta" for nguyen, "n" for bbm.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown functional kind {kind!r}, not one of {list(_KINDS)}")
    spec_class, schedule_kind = _KINDS[kind]
    schedule = schedule or default_schedule(schedule_kind)
    if schedule.kind != schedule_kind:
        raise ValueError(f"a {kind} study needs a schedule of kind {schedule_kind!r}, "
                         f"not {schedule.kind!r}")
    budget = budget or IntegrationBudget()
    if kind == "bbm" and mollifier_family is None:
        mollifier_family = ShrinkingUniformFamily(body.dim, p)
    indicator = not u.smooth

    if indicator:
        # the functional itself rejects an indicator at p != 1
        target_mode = "perimeter"
        target, target_error = anisotropic_perimeter(u.region, body), 0.0
    else:
        target_mode = "p_local_energy" if kind == "bbm" else "local_energy"
        e, e_err = local_energy(u, a, body, p, target_grid or GridSpec(resolution=128))
        factor = p if kind == "bbm" else 1.0
        target, target_error = factor * e, factor * e_err

    t_vals = schedule.t_values
    t0 = float(t_vals[0])

    def study_point(i: int, raw: float, err: float) -> StudyPoint:
        param = schedule.values[i]
        scale = 1.0 - param if kind == "gagliardo" else 1.0
        return StudyPoint(float(param), float(t_vals[i]), float(scale * raw), float(scale * err),
                          float(raw))

    def eval_point(i: int) -> StudyPoint:
        param = schedule.values[i]
        pb = _point_budget(budget, float(t_vals[i]), t0, indicator)
        pb = replace(pb, seed=derive_seed(seed, "study", kind, i))
        args = (mollifier_family, int(param)) if kind == "bbm" else (float(param),)
        spec = FunctionalSpec(spec_class(*args), p, body, a)
        return study_point(i, *getattr(functionals, kind)(u, spec, pb, seed=i))

    # schedule points are independent; results are assembled in schedule order
    # and each point's seed derives from its index, so the thread count can
    # never change any value.  A fractional study of a smooth field on the
    # ball rule is one call: the rule's nodes depend on neither a point's seed
    # nor its t, one pass evaluates every s, and ``threads`` does nothing there.
    # A Ludwig-family mollified study of a smooth field is the same pass at the
    # s_n, each point p (1 - s_n) times the raw value, as ``bbm`` scales it
    ludwig = kind == "bbm" and isinstance(mollifier_family, LudwigFamily)
    if (kind == "gagliardo" or ludwig) and u.smooth and budget.outer == "tensor":
        s_values = tuple(mollifier_family.s_value(int(v)) if ludwig else float(v)
                         for v in schedule.values)
        raws, errs = functionals.gagliardo(u, FunctionalSpec(Gagliardo(s_values), p, body, a),
                                           budget)
        factors = [p * (1.0 - s) if ludwig else 1.0 for s in s_values]
        points = [study_point(i, f * raw, f * err)
                  for i, (f, raw, err) in enumerate(zip(factors, raws, errs))]
    elif threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(eval_point, range(len(schedule.values))))
    else:
        points = [eval_point(i) for i in range(len(schedule.values))]

    extrap = extrapolate([(pt.t, pt.value, pt.error) for pt in points],
                         _expansion(kind, u.smooth, mollifier_family))
    passed, diagnostics = compare(extrap, target, tolerance, points)
    rel_gap = abs(extrap.limit - target) / abs(target) if target != 0.0 else abs(extrap.limit)
    study = {
        "field": u.name,
        "potential": a.name,
        "body": body.name,
        "dim": body.dim,
        "p": p,
        "kind": kind,
        "schedule_kind": schedule.kind,
        "schedule": list(schedule.values),
        "seed": seed,
        "outer": budget.outer,
        "target_mode": target_mode,
    }
    return ConvergenceReport(
        study=study,
        points=tuple(points),
        extrapolation=extrap,
        target=float(target),
        target_error=float(target_error),
        relative_gap=float(rel_gap),
        tolerance=float(tolerance),
        passed=passed,
        diagnostics=diagnostics,
    )
