"""Limit studies: schedules, extrapolation and comparison against local energies.

A study evaluates one nonlocal functional along a parameter schedule
(s up to 1, delta down to 0, or mollifier index n up to infinity), applies the
theorem normalization, extrapolates to the limit with a weighted power-law
fit, and compares against the directly computed local target.
"""

from __future__ import annotations

import csv
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
    Nguyen,
    ShrinkingUniformFamily,
)
from .seeding import derive_seed

REPORT_SCHEMA_VERSION = 1
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
    rate: float
    residual: float
    aitken: float
    limit_stderr: float
    rate_determined: bool
    fit_model: str


def extrapolate(points) -> Extrapolation:
    """Weighted fit value = C + a t^b for points (t, value, error), t > 0 decreasing.

    Falls back to the linear model (b = 1) when the nonlinear fit is
    ill-conditioned (condition number above 1e8).  The Aitken delta-squared
    accelerant of the last three points is returned as a cross-check; the
    fitted rate is diagnostic only.
    """
    pts = [(float(t), float(v), float(e)) for t, v, e in points]
    if len(pts) < 4:
        raise ValueError("extrapolation needs at least 4 points")
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    e = np.array([p[2] for p in pts])
    if np.any(t <= 0.0) or not np.all(np.diff(t) < 0.0):
        raise ValueError("t must be positive and strictly decreasing")
    scale = max(float(np.max(np.abs(v))), 1e-300)
    err_floor = max(1e-12 * scale, float(np.min(e[e > 0])) if np.any(e > 0) else 1e-12 * scale,
                    ERR_FLOOR_MIN)
    sigma = np.maximum(e, err_floor)
    w = 1.0 / sigma

    aitken = math.nan
    d1, d2 = v[-2] - v[-3], v[-1] - v[-2]
    if abs(d2 - d1) > 1e-300:
        aitken = float(v[-1] - d2 * d2 / (d2 - d1))

    # constant data: limit is the weighted mean, rate undetermined; it is
    # reported as 0 (no t-dependence) rather than NaN, which JSON cannot round-trip
    if np.ptp(v) <= 1e-14 * scale:
        mean = float(np.sum(v * w**2) / np.sum(w**2))
        stderr = 1.0 / math.sqrt(float(np.sum(w**2)))
        return Extrapolation(mean, 0.0, 0.0, aitken if np.isfinite(aitken) else mean,
                             stderr, False, "constant")

    design = np.stack([np.ones_like(t), t], axis=1)
    lin, *_ = np.linalg.lstsq(design * w[:, None], v * w, rcond=None)
    c_lin, a_lin = float(lin[0]), float(lin[1])

    def resid(params):
        c, a, b = params
        return w * (c + a * t**b - v)

    # linear (b = 1) reference fit, also the fallback
    r_lin = (design * w[:, None]) @ lin - v * w
    residual_lin = float(np.sqrt(np.mean(r_lin**2)))
    gram = (design * w[:, None]).T @ (design * w[:, None])
    cov_lin = np.linalg.inv(gram) * max(float(np.sum(r_lin**2) / max(len(t) - 2, 1)), 1.0)
    stderr_lin = float(math.sqrt(max(cov_lin[0, 0], 0.0)))
    linear = Extrapolation(c_lin, 1.0, residual_lin, aitken, stderr_lin, False, "linear")

    from scipy.optimize import least_squares

    x0 = np.array([c_lin, a_lin if a_lin != 0.0 else 1e-6, 1.0])
    fit = least_squares(resid, x0, bounds=([-np.inf, -np.inf, 0.05], [np.inf, np.inf, 4.0]),
                        method="trf", max_nfev=2000)
    jac = fit.jac
    cond = np.linalg.cond(jac) if jac.size else np.inf
    if not (fit.success and np.isfinite(cond) and cond < 1e8):
        return linear
    c, a, b = fit.x
    dof = max(len(t) - 3, 1)
    chi2red = max(2.0 * fit.cost / dof, 1.0)
    cov = np.linalg.inv(jac.T @ jac) * chi2red
    stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    residual = float(math.sqrt(2.0 * fit.cost / len(t)))
    # parsimony guard: a rate pinned at its bounds or an exploding limit
    # uncertainty means the data cannot identify the power model
    if b <= 0.06 or b >= 3.9 or stderr > max(2.0 * stderr_lin, 0.25 * abs(c)):
        return linear
    return Extrapolation(float(c), float(b), residual, aitken, stderr, True, "power")


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

    def write_points_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(self.points_csv_rows())

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

    def eval_point(i: int) -> StudyPoint:
        param, t = schedule.values[i], float(t_vals[i])
        pb = _point_budget(budget, t, t0, indicator)
        pb = replace(pb, seed=derive_seed(seed, "study", kind, i))
        args = (mollifier_family, int(param)) if kind == "bbm" else (float(param),)
        spec = FunctionalSpec(spec_class(*args), p, body, a)
        raw, err = getattr(functionals, kind)(u, spec, pb, seed=i)
        scale = 1.0 - param if kind == "gagliardo" else 1.0
        return StudyPoint(float(param), t, float(scale * raw), float(scale * err), float(raw))

    # schedule points are independent; results are assembled in schedule order
    # and each point's seed derives from its index, so the thread count can
    # never change any value
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(eval_point, range(len(schedule.values))))
    else:
        points = [eval_point(i) for i in range(len(schedule.values))]

    extrap = extrapolate([(pt.t, pt.value, pt.error) for pt in points])
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
