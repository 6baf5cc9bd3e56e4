"""Mixed complex modulus, moment-body norms and their dual.

The central object is the norm

    ||v||_{p,K} = ( (N+p)/p * integral_K |v . x|_p^p dx )^(1/p),   v in C^N,

with one entry point per route: moment_norm_batch takes a Monte Carlo mean
over the body, and moment_norm_sphere integrates the equivalent surface
representation

    ||v||_{p,K}^p = (1/p) * integral_{S^{N-1}} |v . s|_p^p / gauge(s)^{N+p} ds

on a sphere rule adapted to each vector.  Agreement of the two routes is
itself a correctness check and is exercised by the acceptance suite.  The
Monte Carlo kernel runs one vector at a time on the sample coordinate planes,
so its memory grows with the number of samples alone and a vector's value
does not depend on the batch it comes in.
dual_norm_z1 is the dual of the p = 1 norm: on the kernel's rule that norm
is the support function of a zonotope, and its dual is the zonotope's gauge,
computed exactly.  All hot-path contractions use einsum/broadcasting (no
BLAS) so results are bitwise reproducible regardless of threading.

At p = 2 the surface sum is a quadratic form: with the rule's nodes sigma_m
and kernel weights w_m,

    sum_m w_m |v . sigma_m|_2^2 = <M Re v, Re v> + <M Im v, Im v>,
    M = sum_m w_m sigma_m sigma_m^T,

so SphereMomentKernel builds the N x N second-moment matrix M once (the L2
moment body is an ellipsoid) and contracts each vector with it instead of
projecting it on every node.  This is the same quadrature sum in another
order; values move only by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .seeding import derive_seed
from .spheres import SphereRule, circle_panels, slice_rule, sphere_rule

# a surface sum is known to no better than rounding, even where the fine and
# coarse rules agree exactly (QUADPACK floors its estimates the same way)
ROUNDING_FLOOR = 50.0 * np.finfo(float).eps


def mixed_modulus(z, p: float) -> float | np.ndarray:
    """(|Re z|^p + |Im z|^p)^(1/p) with Euclidean norms of the part vectors.

    ``z`` is a complex vector or an (..., N) batch; for real z this equals the
    Euclidean norm for every p.
    """
    if p < 1.0:
        raise ValueError("p must satisfy p >= 1")
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    re = np.sqrt(np.einsum("...k,...k->...", z.real, z.real))
    im = np.sqrt(np.einsum("...k,...k->...", z.imag, z.imag))
    val = (re**p + im**p) ** (1.0 / p)
    return float(val) if single else val


def scalar_mixed_modulus_pow(z: np.ndarray, p: float) -> np.ndarray:
    """|z|_p^p for an array of complex scalars: |Re z|^p + |Im z|^p."""
    return mixed_pow_parts(z.real, z.imag, p)


def mixed_pow_parts(re, im, p: float) -> np.ndarray:
    """|re|^p + |im|^p from the real and imaginary parts, without building
    the complex array; ``im`` may be the scalar 0 for real data."""
    if p == 2.0:
        return re**2 + im**2
    if p == 1.0:
        return np.abs(re) + np.abs(im)
    return np.abs(re) ** p + np.abs(im) ** p


def _parts(v) -> tuple[np.ndarray, np.ndarray | None]:
    """Re v and Im v of a real or complex batch; Im v is None when it is zero."""
    v = np.asarray(v)
    if not np.iscomplexobj(v):
        return v.astype(float, copy=False), None
    return v.real, (v.imag if v.imag.any() else None)


def _projections(v, nodes: np.ndarray, subscripts: str):
    """Real and imaginary parts of v . nodes; the imaginary part is 0 for real v."""
    re, im = _parts(v)
    return (np.einsum(subscripts, re, nodes),
            np.einsum(subscripts, im, nodes) if im is not None else 0.0)


def _second_moment(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M = sum_m weights_m nodes_m nodes_m^T, the N x N matrix of the p = 2 form."""
    return np.einsum("m,mk,ml->kl", weights, nodes, nodes)


def _surface_pow_p(v, nodes, weights, moment, p: float) -> np.ndarray:
    """sum_m weights_m |v . nodes_m|_p^p over the trailing axis of v; through
    the second-moment matrix ``moment`` when it is given (p = 2)."""
    if moment is None:
        re, im = _projections(v, nodes, "...k,mk->...m")
        return np.einsum("...m,m->...", mixed_pow_parts(re, im, p), weights)
    re, im = _parts(v)
    val = np.einsum("...k,kl,...l->...", re, moment, re)
    if im is not None:
        val = val + np.einsum("...k,kl,...l->...", im, moment, im)
    return val


def kpn_constant(p: float, dim: int) -> float:
    """(1/p) * integral_{S^{N-1}} |w . x|^p dsigma for any unit w.

    The value is direction independent and has the closed form
    (1/p) 2 pi^((N-1)/2) Gamma((p+1)/2) / Gamma((N+p)/2) (2/p at N = 1, where
    the sphere is {-1, +1} with counting measure).
    """
    if p < 1.0:
        raise ValueError("p must satisfy p >= 1")
    sphere_moment = 2.0 * math.pi ** ((dim - 1) / 2.0) * math.gamma((p + 1) / 2.0)
    return sphere_moment / math.gamma((dim + p) / 2.0) / p


def adapted_moment_rule(body: ConvexBody, v: np.ndarray, order: int = 32) -> SphereRule:
    """Sphere rule adapted to the kinks of |v . sigma|_p^p over the given body.

    At N = 2 the panels are aligned with the zeros of both the real and
    imaginary projections and with the body's facet switches, so the norm
    integrand is smooth on every panel.  At N >= 3 the rule is sliced along
    the dominant part of v (the remaining kink circle of the other part, and
    polytope edges, stay unresolved but are weaker).
    """
    dim = body.dim
    v = np.asarray(v, dtype=complex)
    if dim == 1:
        return sphere_rule(1)
    if dim == 2:
        angles = body.facet_angles()
        breaks = [] if angles is None else list(angles)
        for part in (v.real, v.imag):
            norm = math.sqrt(np.einsum("k,k->", part, part))
            if norm > 0.0:
                phi = math.atan2(part[1], part[0])
                breaks.extend([phi + math.pi / 2.0, phi - math.pi / 2.0])
        if not breaks:
            breaks = [0.0, math.pi]
        return circle_panels(breaks, order)
    re_n, im_n = (math.sqrt(np.einsum("k,k->", part, part)) for part in (v.real, v.imag))
    if max(re_n, im_n) == 0.0:
        return sphere_rule(dim)
    axis = v.real if re_n >= im_n else v.imag
    return slice_rule(dim, axis, max(order, 48))


class SphereMomentKernel:
    """Precomputed surface rule for ||.||_{p,K}^p of batches of complex vectors.

    Stores the rule nodes together with weights/gauge^(N+p) so a norm
    evaluation is a single contraction.  Used by the local energies, the
    anisotropic perimeter, moment_norm_sphere and dual_norm_z1.
    """

    def __init__(self, body: ConvexBody, p: float, rule: SphereRule | None = None):
        if p < 1.0:
            raise ValueError("p must satisfy p >= 1")
        self.body = body
        self.p = float(p)
        self.rule = rule or sphere_rule(body.dim, body=body)
        if self.rule.dim != body.dim:
            raise ValueError("sphere rule dimension does not match the body")
        g = body.gauge(self.rule.nodes)
        self.kernel_weights = self.rule.weights / g ** (body.dim + p) / p
        self._moment = self._moment_of(self.rule.nodes, self.kernel_weights)
        coarse = self.rule.coarse
        self._coarse = None
        if coarse is not None:
            gc = body.gauge(coarse.nodes)
            weights = coarse.weights / gc ** (body.dim + p) / p
            self._coarse = (coarse.nodes, weights, self._moment_of(coarse.nodes, weights))

    def _moment_of(self, nodes, weights):
        return _second_moment(nodes, weights) if self.p == 2.0 else None

    def norms_pow_p(self, v) -> np.ndarray:
        """||v_i||^p for an (..., N) real or complex batch."""
        return _surface_pow_p(v, self.rule.nodes, self.kernel_weights, self._moment, self.p)

    def norm(self, v) -> float:
        return float(self.norms_pow_p(v)) ** (1.0 / self.p)

    def norm_error_estimate(self, v) -> float:
        """|value - value(coarse rule)| as a quadrature error proxy, at least
        ROUNDING_FLOOR relative to the value."""
        fine = self.norms_pow_p(v) ** (1.0 / self.p)
        gap = 0.0
        if self._coarse is not None:
            coarse = _surface_pow_p(v, *self._coarse, self.p) ** (1.0 / self.p)
            gap = np.max(np.abs(fine - coarse))
        return float(max(gap, ROUNDING_FLOOR * np.max(fine)))


@dataclass(frozen=True)
class BodyMonteCarlo:
    samples: int
    seed: int


class MomentNormEvaluator:
    """||.||_{p,K} on C^N; moment_norm_batch needs a BodyMonteCarlo method,
    moment_norm_sphere none.  Immutable: the Monte Carlo points derive from
    the method's seed alone, so thread count never changes any result."""

    def __init__(self, body: ConvexBody, p: float, method: BodyMonteCarlo | None = None):
        if p < 1.0:
            raise ValueError("p must satisfy p >= 1")
        self.body = body
        self.p = float(p)
        self.method = method
        self.normalizer = (body.dim + p) / p


def moment_norm_batch(ev: MomentNormEvaluator, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo moment-body norms of the rows of ``v`` with error estimates.

    The value is vol(K) * sample mean of |v . x|_p^p, the error the
    propagated standard error of that mean.  The samples are drawn once and
    stored as coordinate planes (N, n); the rows of ``v`` then run one at a
    time, so every temporary holds one row of n samples and a row's value
    does not depend on the other rows of its batch.
    """
    v = np.atleast_2d(np.asarray(v, dtype=complex))
    if v.shape[-1] != ev.body.dim:
        raise ValueError("vector dimension does not match the body")
    if ev.method is None:
        raise ValueError("moment_norm_batch needs an evaluator with BodyMonteCarlo samples")
    if ev.method.samples < 2:
        raise ValueError("samples must be at least 2: one sample has no standard error")
    planes = np.ascontiguousarray(
        ev.body.sample_uniform(ev.method.samples, derive_seed(ev.method.seed, "moment-norm", 0)).T)
    n = planes.shape[1]
    mean = np.empty(len(v))
    var = np.empty(len(v))
    for i, row in enumerate(v):
        pw = mixed_pow_parts(*_projections(row, planes, "k,kn->n"), ev.p)
        mean[i] = np.einsum("n->", pw) / n
        pw -= mean[i]
        var[i] = np.einsum("n,n->", pw, pw) / (n - 1)
    sem = np.sqrt(var / n)
    vol = ev.body.volume()
    integral = ev.normalizer * vol * mean
    values = integral ** (1.0 / ev.p)
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.where(
            integral > 0.0,
            values * (ev.normalizer * vol * sem) / (ev.p * np.maximum(integral, 1e-300)),
            0.0,
        )
    return values, errors


def moment_norm_sphere(ev: MomentNormEvaluator, v) -> tuple[float, float]:
    """Surface-representation route for the same norm (the identity check),
    on a sphere rule adapted to the kinks of this particular vector."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] != ev.body.dim:
        raise ValueError("vector dimension does not match the body")
    kernel = SphereMomentKernel(ev.body, ev.p, adapted_moment_rule(ev.body, v))
    return kernel.norm(v), kernel.norm_error_estimate(v)


def dual_norm_z1(body: ConvexBody, w) -> float | np.ndarray:
    """Dual norm sup{<v, w> : ||v||_{1,K} <= 1} over real vectors.

    ``w`` is one vector (the result is a float) or an (n, N) batch (an
    array).  With the p = 1 kernel's weights c_m and nodes sigma_m, the norm
    sum_m |v . g_m| on the generators g_m = c_m sigma_m is the support
    function of the zonotope Z = sum_m [-g_m, g_m], so its dual is the gauge
    of Z, computed exactly for the kernel's rule: a closed form at N = 1, the
    edges of Z at N = 2 and one linear program per vector at N = 3.
    """
    w = np.asarray(w)
    if np.iscomplexobj(w):
        raise ValueError("dual norm is defined for real vectors")
    ws = np.atleast_2d(w.astype(float))
    if w.ndim > 2 or ws.shape[-1] != body.dim:
        raise ValueError("w must be a real vector or batch matching the body dimension")
    if body.dim > 3:
        raise ValueError("dual norm implemented for dimensions 1 through 3")
    kernel = SphereMomentKernel(body, 1.0)
    gens = kernel.kernel_weights[:, None] * kernel.rule.nodes
    if body.dim == 1:
        duals = np.abs(ws[:, 0]) / np.einsum("mk->", np.abs(gens))
    elif body.dim == 2:
        # fold the generators into the upper half-plane and sort them by
        # angle; then the edge of Z with outer normal n_j (g_j turned by 90
        # degrees) has its midpoint at v_j = sum_{m>j} g_m - sum_{m<j} g_m,
        # every edge is one of these or its mirror image, and the gauge of w
        # is max_j |n_j . w| / (n_j . v_j)
        theta = np.arctan2(gens[:, 1], gens[:, 0])
        lower = theta < 0.0
        order = np.argsort(np.where(lower, theta + np.pi, theta))
        gens = np.where(lower[:, None], -gens, gens)[order]
        below = np.cumsum(gens, axis=0)
        vertices = below[-1] - 2.0 * below + gens
        normals = np.stack([-gens[:, 1], gens[:, 0]], axis=1)
        ratios = np.abs(np.einsum("nk,mk->nm", ws, normals))
        ratios /= np.einsum("mk,mk->m", normals, vertices)
        duals = np.max(ratios, axis=1)
    else:
        from scipy.optimize import linprog

        # maximize r subject to r w = sum_m lambda_m g_m, |lambda_m| <= 1, in
        # the frame of the reflection H with H w = -s |w| e_1 (s the sign of
        # w_1): there r |w| = -s sum_m lambda_m (H g_m)_1 and the other two
        # rows are homogeneous.  HiGHS reads a matrix entry below 1e-9 as zero
        # and holds rows to an absolute tolerance, so w enters only through
        # H, each row is scaled to a largest entry of 1 (g_m scales as the
        # body's size^(N+1)), and the gauge is read off the LP's dual, not its
        # objective: (s, -y) is the normal n of the facet that r w lies on, in
        # the scaled frame, and |n . w| / sum_m |n . g_m| keeps every entry.
        duals = np.zeros(len(ws))
        for i, row in enumerate(ws):
            size = math.sqrt(np.einsum("k,k->", row, row))
            if size == 0.0:
                continue
            sign = 1.0 if row[0] >= 0.0 else -1.0
            axis = row / size
            axis[0] += sign
            frame = gens - np.einsum("mk,k->m", gens, axis)[:, None] * (axis / (sign * axis[0]))
            scale = np.max(np.abs(frame), axis=0)
            frame = frame / scale
            lp = linprog(sign * frame[:, 0], A_eq=frame[:, 1:].T, b_eq=np.zeros(2),
                         bounds=(-1.0, 1.0), method="highs")
            if lp.status != 0:
                raise RuntimeError(f"dual norm linear program failed: {lp.message}")
            normal = np.r_[sign, -lp.eqlin.marginals]
            support = np.einsum("m->", np.abs(np.einsum("mk,k->m", frame, normal)))
            duals[i] = size / (scale[0] * support)
    return float(duals[0]) if w.ndim == 1 else duals
