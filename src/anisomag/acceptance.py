"""Pinned acceptance suite: seeds, budgets and tolerances are fixed here.

Each criterion returns a result with per-item CSV rows; the CLI writes one
CSV per criterion, and identical configuration must reproduce those files
byte for byte regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import Ellipsoid, EuclideanBall, cube, regular_hexagon, unit_square
from .energy import GridSpec, anisotropic_perimeter, total_variation_smooth, variational_pairing
from .fields import (
    bump_test_field,
    gaussian,
    indicator,
    modulated_gaussian,
    mollify,
    rotational_potential,
    zero_potential,
)
from .functionals import (
    Bbm,
    FunctionalSpec,
    Gagliardo,
    IntegrationBudget,
    LudwigFamily,
    Nguyen,
    ShrinkingUniformFamily,
    bbm,
    gagliardo,
    nguyen,
)
from .limits import Schedule, run_study
from .norms import (
    BodyMonteCarlo,
    MomentNormEvaluator,
    SphereMomentKernel,
    SphereQuadrature,
    dual_norm_z1,
    dual_norm_z1_batch,
    kpn_constant,
    moment_norm_batch,
    moment_norm_sphere,
)
from .seeding import derive_seed


@dataclass
class CriterionResult:
    name: str
    passed: bool
    summary: str
    rows: list = field(default_factory=list)  # header tuple first
    reports: dict = field(default_factory=dict)  # name -> ConvergenceReport


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _study_rows(rows: list, name: str, rep) -> None:
    """Append a study's points, its extrapolated limit and its target to ``rows``."""
    for pt in rep.points:
        rows.append((name, _fmt(pt.parameter), _fmt(pt.value), _fmt(pt.error)))
    rows.append((name, "extrapolated", _fmt(rep.extrapolation.limit),
                 _fmt(rep.extrapolation.limit_stderr)))
    rows.append((name, "target", _fmt(rep.target), _fmt(rep.target_error)))


# ---------------------------------------------------------------------------


def criterion_id2_agreement(seed: int = 0, threads: int = 1) -> CriterionResult:
    """Body-integral and surface routes agree within 3 combined errors."""
    bodies_2d = [
        ("ball", EuclideanBall(2)),
        ("cube", cube(2)),
        ("ellipse", Ellipsoid.from_semi_axes([2.0, 1.0])),
        ("hexagon", regular_hexagon()),
    ]
    bodies_3d = [("ball3", EuclideanBall(3)), ("cube3", cube(3))]
    rows = [("body", "p", "index", "montecarlo", "sphere", "mc_error", "sphere_error", "within")]
    failures = 0
    total = 0
    for name, body in bodies_2d + bodies_3d:
        for p in (1.0, 2.0, 3.0):
            ev_mc = MomentNormEvaluator(body, p, BodyMonteCarlo(65536, derive_seed(seed, "id2", name, p)))
            rng = np.random.default_rng(derive_seed(seed, "id2-vectors", name, p))
            vs = rng.standard_normal((100, body.dim)) + 1j * rng.standard_normal((100, body.dim))
            mc_vals, mc_errs = moment_norm_batch(ev_mc, vs)
            for i, v in enumerate(vs):
                sp_val, sp_err = moment_norm_sphere(ev_mc, v)
                ok = abs(mc_vals[i] - sp_val) <= 3.0 * (mc_errs[i] + sp_err) + 1e-9
                failures += not ok
                total += 1
                rows.append((name, _fmt(p), i, _fmt(mc_vals[i]), _fmt(sp_val),
                             _fmt(mc_errs[i]), _fmt(sp_err), int(ok)))
    return CriterionResult(
        "id2_agreement", failures == 0,
        f"{total - failures}/{total} vectors within 3 combined errors", rows)


def criterion_euclidean_consistency(seed: int = 0, threads: int = 1) -> CriterionResult:
    """Unit ball: moment norm = K_{p,N}^(1/p) |v| to 1e-6; classical constants."""
    rows = [("check", "p", "dim", "value", "reference", "rel_err", "within")]
    failures = 0
    for p in (1.0, 2.0, 3.0):
        for dim in (1, 2, 3):
            body = EuclideanBall(dim)
            ev = MomentNormEvaluator(body, p, SphereQuadrature())
            rng = np.random.default_rng(derive_seed(seed, "euclid", p, dim))
            for i in range(5):
                w = rng.standard_normal(dim)
                val, _ = moment_norm_batch(ev, w[None, :])
                ref = kpn_constant(p, dim) ** (1.0 / p) * float(np.linalg.norm(w))
                rel = abs(val[0] - ref) / ref
                ok = rel <= 1e-6
                failures += not ok
                rows.append(("moment_norm", _fmt(p), dim, _fmt(val[0]), _fmt(ref), _fmt(rel), int(ok)))
    # classical cross-checks against independent 1-D quadrature oracles
    from scipy.integrate import quad

    k22_oracle = quad(lambda t: math.cos(t) ** 2, 0.0, 2.0 * math.pi, epsabs=1e-12)[0] / 2.0
    k12_oracle = quad(lambda t: abs(math.cos(t)), 0.0, 2.0 * math.pi, epsabs=1e-12)[0]
    for label, got, ref in (
        ("K_{2,2}", kpn_constant(2.0, 2), k22_oracle),
        ("K_{1,2}", kpn_constant(1.0, 2), k12_oracle),
        ("K_{1,1}", kpn_constant(1.0, 1), 2.0),
    ):
        rel = abs(got - ref) / abs(ref)
        ok = rel <= 1e-10
        failures += not ok
        rows.append((label, "", "", _fmt(got), _fmt(ref), _fmt(rel), int(ok)))
    return CriterionResult(
        "euclidean_consistency", failures == 0,
        "ball norms and classical constants reproduced" if failures == 0 else f"{failures} failures",
        rows)


_STUDY_BODIES_3 = (
    ("ball", lambda: EuclideanBall(2)),
    ("square", lambda: cube(2)),
    ("ellipse", lambda: Ellipsoid.from_semi_axes([2.0, 1.0])),
)


def criterion_ludwig_bbm_limit(seed: int = 0, threads: int = 1) -> CriterionResult:
    """(1-s)-normalized fractional limit matches the local energy within 1%."""
    u = gaussian(2)
    a = zero_potential(2)
    schedule = Schedule("s", (0.80, 0.88, 0.93, 0.96, 0.98, 0.99, 0.995))
    budget = IntegrationBudget(outer="tensor", resolution=48, sphere_nodes=64)
    rows = [("body", "parameter", "value", "error")]
    reports = {}
    failures = []
    for name, make in _STUDY_BODIES_3:
        rep = run_study(u, a, make(), 2.0, "gagliardo", schedule, budget,
                        seed=derive_seed(seed, "c3", name), tolerance=0.01, threads=threads)
        reports[f"ludwig_bbm_limit_{name}"] = rep
        _study_rows(rows, name, rep)
        if not rep.passed:
            failures.append(name)
    # independent gaussian-moment oracle for the ball target: K_{2,2} * int |grad u|^2
    from scipy.integrate import quad

    grad_sq = quad(lambda r: r**3 * math.exp(-(r**2)) * 2.0 * math.pi, 0.0, 30.0, epsabs=1e-12)[0]
    ball_target = (math.pi / 2.0) * grad_sq
    oracle_ok = abs(reports["ludwig_bbm_limit_ball"].target - ball_target) <= 1e-6 * ball_target
    rows.append(("ball", "oracle_target", _fmt(ball_target), _fmt(0.0)))
    passed = not failures and oracle_ok
    msg = "all bodies within 1%" if passed else f"failed: {failures or 'ball target oracle'}"
    return CriterionResult("ludwig_bbm_limit", passed, msg, rows, reports)


def _magnetic_setup():
    return modulated_gaussian(2, [1.0, 0.0]), rotational_potential(1.0)


def criterion_nguyen_magnetic(seed: int = 0, threads: int = 1) -> CriterionResult:
    """Threshold-functional limit matches the local magnetic energy within 2%."""
    u, a = _magnetic_setup()
    budget = IntegrationBudget(outer="montecarlo", samples=1024, sphere_nodes=96)
    rows = [("body", "parameter", "value", "error")]
    reports = {}
    failures = []
    for name, make in _STUDY_BODIES_3[:2]:
        rep = run_study(u, a, make(), 2.0, "nguyen", None, budget,
                        seed=derive_seed(seed, "c4", name), tolerance=0.02, threads=threads)
        reports[f"nguyen_magnetic_{name}"] = rep
        _study_rows(rows, name, rep)
        if not rep.passed:
            failures.append(name)
    return CriterionResult("nguyen_magnetic", not failures,
                           "ball and square within 2%" if not failures else f"failed: {failures}",
                           rows, reports)


def criterion_bbm_magnetic(seed: int = 0, threads: int = 1) -> CriterionResult:
    """Mollified-functional limit matches p * local energy; ludwig-family
    evaluations coincide with the normalized fractional code path."""
    u, a = _magnetic_setup()
    p = 2.0
    budget = IntegrationBudget(outer="tensor", resolution=64, sphere_nodes=96)
    rows = [("body", "parameter", "value", "error")]
    reports = {}
    failures = []
    for name, make in _STUDY_BODIES_3[:2]:
        fam = ShrinkingUniformFamily(2, p)
        rep = run_study(u, a, make(), p, "bbm", None, budget,
                        seed=derive_seed(seed, "c5", name), tolerance=0.02,
                        mollifier_family=fam, threads=threads)
        reports[f"bbm_magnetic_{name}"] = rep
        _study_rows(rows, name, rep)
        if not rep.passed:
            failures.append(name)
    # algebraic identity between code paths (zero potential)
    ug = gaussian(2)
    zero = zero_potential(2)
    ball = EuclideanBall(2)
    fam = LudwigFamily(2, p)
    ident_budget = IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=64)
    worst = 0.0
    for n in (4, 16):
        s_n = fam.s_value(n)
        v1, _ = bbm(ug, FunctionalSpec(Bbm(fam, n), p, ball, zero), ident_budget)
        v2, _ = gagliardo(ug, FunctionalSpec(Gagliardo(s_n), p, ball, zero), ident_budget)
        worst = max(worst, abs(v1 - p * (1.0 - s_n) * v2) / abs(v1))
    rows.append(("identity", "max_rel_diff", _fmt(worst), _fmt(0.0)))
    ident_ok = worst <= 1e-10
    passed = not failures and ident_ok
    return CriterionResult("bbm_magnetic", passed,
                           "limits within 2%; code-path identity at 1e-10" if passed
                           else f"failed: {failures or 'identity'}", rows, reports)


def criterion_bv_indicator(seed: int = 0, threads: int = 1) -> CriterionResult:
    """p = 1 indicator: mollified-functional limit matches the perimeter within 3%."""
    ind = indicator(unit_square())
    zero = zero_potential(2)
    fam = ShrinkingUniformFamily(2, 1.0)
    budget = IntegrationBudget(outer="tensor", resolution=128, sphere_nodes=96)
    rows = [("body", "parameter", "value", "error")]
    reports = {}
    failures = []
    for name, make, target in (("disk", lambda: EuclideanBall(2), 16.0), ("cube", lambda: cube(2), 24.0)):
        rep = run_study(ind, zero, make(), 1.0, "bbm", None, budget,
                        seed=derive_seed(seed, "c6", name), tolerance=0.03,
                        mollifier_family=fam, threads=threads)
        reports[f"bv_indicator_{name}"] = rep
        _study_rows(rows, name, rep)
        if not rep.passed or abs(rep.target - target) > 1e-9:
            failures.append(name)
    return CriterionResult("bv_indicator", not failures,
                           "perimeter targets 16 and 24 recovered within 3%" if not failures
                           else f"failed: {failures}", rows, reports)


def criterion_w11_lower_bound(seed: int = 0, threads: int = 1) -> CriterionResult:
    """p = 1 smooth field: threshold functional at small delta >= 0.95 * TV."""
    u = gaussian(2)
    zero = zero_potential(2)
    disk = EuclideanBall(2)
    tv, _ = total_variation_smooth(u, zero, disk, GridSpec(resolution=128))
    rows = [("delta", "value", "error", "total_variation", "ratio", "within")]
    failures = 0
    for i, delta in enumerate((1e-2, 5e-3)):
        spec = FunctionalSpec(Nguyen(delta), 1.0, disk, zero)
        budget = IntegrationBudget(outer="montecarlo", samples=8192, sphere_nodes=64,
                                   seed=derive_seed(seed, "c7", i))
        val, err = nguyen(u, spec, budget, seed=i)
        ok = val >= 0.95 * tv
        failures += not ok
        rows.append((_fmt(delta), _fmt(val), _fmt(err), _fmt(tv), _fmt(val / tv), int(ok)))
    return CriterionResult("w11_lower_bound", failures == 0,
                           "threshold values dominate 0.95 * TV" if failures == 0
                           else "lower bound violated", rows)


def criterion_mollify_convergence(seed: int = 0, threads: int = 1) -> CriterionResult:
    """TV of the mollified square indicator approaches the perimeter, gap < 3%."""
    sq = unit_square()
    ind = indicator(sq)
    disk = EuclideanBall(2)
    zero = zero_potential(2)
    target = anisotropic_perimeter(sq, disk)
    rows = [("m", "total_variation", "perimeter", "rel_gap")]
    gaps = []
    for m, res in ((20, 384), (40, 768), (80, 1536)):
        um = mollify(ind, m)
        tv, _ = total_variation_smooth(um, zero, disk,
                                       GridSpec(resolution=res, radius=0.5 + 1.5 / m,
                                                sphere_nodes=1024))
        gap = abs(tv - target) / target
        gaps.append(gap)
        rows.append((m, _fmt(tv), _fmt(target), _fmt(gap)))
    passed = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.03
    return CriterionResult("mollify_convergence", passed,
                           f"gaps {', '.join(f'{g:.2%}' for g in gaps)} (decreasing, final < 3%)"
                           if passed else "convergence failed", rows)


def criterion_duality_variational(seed: int = 0, threads: int = 1) -> CriterionResult:
    """Duality pairing bound on 1000 pairs; admissible pairings below the TV."""
    disk = EuclideanBall(2)
    kernel = SphereMomentKernel(disk, 1.0)
    rng = np.random.default_rng(derive_seed(seed, "c9-pairs"))
    vs = rng.standard_normal((1000, 2))
    ws = rng.standard_normal((1000, 2))
    norms = kernel.norms_pow_p(vs)
    duals = dual_norm_z1_batch(disk, ws)
    lhs = np.einsum("nk,nk->n", vs, ws)
    bound = norms * duals * (1.0 + 2e-4) + 1e-6
    dual_viol = int(np.sum(lhs > bound))
    rows = [("check", "count", "violations", "worst_margin")]
    rows.append(("duality_pairing", 1000, dual_viol, _fmt(float(np.max(lhs - bound)))))

    u, a = modulated_gaussian(2, [1.0, 0.5]), rotational_potential(1.0)
    tv, _ = total_variation_smooth(u, a, disk, GridSpec(resolution=96))
    rng2 = np.random.default_rng(derive_seed(seed, "c9-fields"))
    pair_viol = 0
    worst = -np.inf
    for _ in range(20):
        direction = rng2.standard_normal(2)
        center = 0.8 * rng2.standard_normal(2)
        radius = 0.5 + 2.0 * rng2.random()
        scale = dual_norm_z1(disk, direction)
        phi = bump_test_field(direction / scale, center, radius)
        c1, c2 = variational_pairing(u, a, phi, GridSpec(resolution=128))
        excess = (c1 + c2) - (tv + 1e-6)
        worst = max(worst, excess)
        pair_viol += excess > 0
    rows.append(("variational_pairing", 20, pair_viol, _fmt(worst)))
    passed = dual_viol == 0 and pair_viol == 0
    return CriterionResult("duality_variational", passed,
                           "duality and pairing bounds hold" if passed else "bound violated", rows)


CRITERIA = {
    "id2_agreement": criterion_id2_agreement,
    "euclidean_consistency": criterion_euclidean_consistency,
    "ludwig_bbm_limit": criterion_ludwig_bbm_limit,
    "nguyen_magnetic": criterion_nguyen_magnetic,
    "bbm_magnetic": criterion_bbm_magnetic,
    "bv_indicator": criterion_bv_indicator,
    "w11_lower_bound": criterion_w11_lower_bound,
    "mollify_convergence": criterion_mollify_convergence,
    "duality_variational": criterion_duality_variational,
}


def run_criteria(names=None, seed: int = 0, threads: int = 1):
    """Run the named criteria (all by default) and return their results in order."""
    from concurrent.futures import ThreadPoolExecutor

    selected = list(CRITERIA) if not names else list(names)
    unknown = [n for n in selected if n not in CRITERIA]
    if unknown:
        raise KeyError(f"unknown criteria: {unknown}")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(CRITERIA[n], seed, threads) for n in selected]
            return [f.result() for f in futures]
    return [CRITERIA[n](seed, threads) for n in selected]
