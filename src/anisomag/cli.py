"""Configuration-driven command line: norms, identity checks, limit studies,
perimeters and the acceptance suite.

Configs are strict JSON with a schema_version field; unknown keys are
rejected so a typo can never silently fake a pass.  Exit codes: 0 pass,
1 ran but failed tolerance, 2 configuration or usage error.  Exit 2 covers
every ValueError or TypeError raised from a config, by this module or by the
library it calls, and prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance as acc
from .bodies import (
    ConvexBody,
    Ellipsoid,
    EuclideanBall,
    LqBall,
    Polytope,
    SymmetricPolytope,
    box_region,
    cross_polytope,
    cube,
    regular_hexagon,
)
from .energy import anisotropic_perimeter
from .fields import (
    ComplexField,
    MagneticPotential,
    bump,
    constant_potential,
    gaussian,
    indicator,
    linear_potential,
    modulated_gaussian,
    rotational_potential,
    zero_field,
    zero_potential,
)
from .functionals import IntegrationBudget, LudwigFamily, ShrinkingUniformFamily
from .limits import Schedule, run_study
from .norms import BodyMonteCarlo, MomentNormEvaluator, moment_norm_batch, moment_norm_sphere
from .seeding import derive_seed

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def parse_body(obj: dict) -> ConvexBody:
    _require_keys(obj, {"shape", "dim", "radius", "semi_axes", "matrix", "normals",
                        "offsets", "q", "inradius"}, {"shape"}, "body")
    shape = obj["shape"]
    if shape == "ball":
        return EuclideanBall(int(obj.get("dim", 2)), float(obj.get("radius", 1.0)))
    if shape == "ellipsoid":
        if "semi_axes" in obj:
            return Ellipsoid.from_semi_axes(obj["semi_axes"])
        if "matrix" in obj:
            return Ellipsoid(obj["matrix"])
        raise ConfigError("body: ellipsoid needs semi_axes or matrix")
    if shape == "polytope":
        if "normals" not in obj or "offsets" not in obj:
            raise ConfigError("body: polytope needs normals and offsets")
        return SymmetricPolytope(obj["normals"], obj["offsets"])
    if shape == "lq":
        return LqBall(int(obj.get("dim", 2)), float(obj["q"]))
    if shape in ("cube", "cross"):
        return (cube if shape == "cube" else cross_polytope)(int(obj.get("dim", 2)))
    if shape == "hexagon":
        return regular_hexagon(float(obj.get("inradius", 1.0)))
    raise ConfigError(f"body: unknown shape {shape!r}")


def parse_region(obj: dict) -> Polytope:
    _require_keys(obj, {"box", "normals", "offsets"}, set(), "region")
    if "box" in obj:
        _require_keys(obj["box"], {"center", "half_widths"}, {"center", "half_widths"},
                      "region.box")
        return box_region(obj["box"]["center"], obj["box"]["half_widths"])
    if "normals" in obj and "offsets" in obj:
        return Polytope(obj["normals"], obj["offsets"])
    raise ConfigError("region: need box or normals/offsets")


def parse_field(obj: dict) -> ComplexField:
    _require_keys(obj, {"family", "dim", "amplitude", "wave", "region"}, {"family"}, "field")
    family = obj["family"]
    if family == "gaussian":
        return gaussian(int(obj.get("dim", 2)), float(obj.get("amplitude", 1.0)))
    if family == "modulated_gaussian":
        wave = obj.get("wave")
        if wave is None:
            raise ConfigError("field: modulated_gaussian needs a wave vector")
        return modulated_gaussian(len(wave), wave)
    if family == "bump":
        return bump(int(obj.get("dim", 2)))
    if family == "zero":
        return zero_field(int(obj.get("dim", 2)))
    if family == "indicator":
        if "region" not in obj:
            raise ConfigError("field: indicator needs a region")
        return indicator(parse_region(obj["region"]))
    raise ConfigError(f"field: unknown family {family!r}")


def parse_potential(obj: dict) -> MagneticPotential:
    _require_keys(obj, {"family", "dim", "vector", "matrix", "b"}, {"family"}, "potential")
    family = obj["family"]
    if family == "zero":
        return zero_potential(int(obj.get("dim", 2)))
    if family == "constant":
        return constant_potential(obj["vector"])
    if family == "linear":
        return linear_potential(obj["matrix"])
    if family == "rotational":
        return rotational_potential(float(obj.get("b", 1.0)))
    raise ConfigError(f"potential: unknown family {family!r}")


def parse_budget(obj: dict) -> IntegrationBudget:
    allowed = {"outer", "resolution", "samples", "sphere_nodes", "scan_max_step", "margin"}
    _require_keys(obj, allowed, set(), "budget")
    return IntegrationBudget(**obj)


def parse_schedule(obj: dict) -> Schedule:
    _require_keys(obj, {"kind", "values"}, {"kind", "values"}, "schedule")
    return Schedule(obj["kind"], tuple(obj["values"]))


def parse_mollifier(obj: dict, dim: int, p: float):
    _require_keys(obj, {"family", "s_values"}, {"family"}, "mollifier")
    if obj["family"] == "shrinking_uniform":
        return ShrinkingUniformFamily(dim, p)
    if obj["family"] == "ludwig":
        s_map = None
        if "s_values" in obj:
            table = {int(k): float(v) for k, v in obj["s_values"].items()}

            def s_map(n):
                if n not in table:
                    raise ConfigError(f"mollifier: s_values has no entry for n = {n}")
                return table[n]
        return LudwigFamily(dim, p, s_map)
    raise ConfigError(f"mollifier: unknown family {obj['family']!r}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config: schema_version must be {CONFIG_SCHEMA_VERSION}")
    return data


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_norms(args) -> int:
    cfg = load_config(args.config)
    _require_keys(cfg, {"schema_version", "body", "p", "vectors", "method", "seed"},
                  {"body", "p", "vectors"}, "config")
    body = parse_body(cfg["body"])
    p = float(cfg["p"])
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    method_name = cfg.get("method", "sphere_quadrature")
    if method_name == "sphere_quadrature":
        ev = MomentNormEvaluator(body, p)
    elif method_name == "body_montecarlo":
        ev = MomentNormEvaluator(body, p, BodyMonteCarlo(65536, derive_seed(seed, "norms")))
    else:
        raise ConfigError(f"config: unknown method {method_name!r}")
    vectors = [np.asarray(v, dtype=complex) for v in cfg["vectors"]]
    if any(v.shape != (body.dim,) for v in vectors):
        raise ConfigError(f"config: every vector needs {body.dim} components")
    if ev.method is None:
        results = [moment_norm_sphere(ev, v) for v in vectors]
    else:  # one batch, so the body samples are drawn once
        results = zip(*moment_norm_batch(ev, np.reshape(vectors, (-1, body.dim))))
    rows = [("vector", "gauge", "moment_norm", "error")]
    print(f"{'vector':<24} {'gauge':>12} {'moment_norm':>14} {'error':>12}")
    for v, (val, err) in zip(vectors, results):
        gauge = body.gauge(v.real) if not v.imag.any() else float("nan")
        label = "[" + " ".join(f"{c.real:g}{c.imag:+g}j" if c.imag else f"{c.real:g}"
                                for c in v) + "]"
        print(f"{label:<24} {gauge:>12.6g} {val:>14.8g} {err:>12.3g}")
        rows.append((label, repr(float(gauge)), repr(float(val)), repr(float(err))))
    if args.out is not None:
        _write_csv(args.out / "norms.csv", rows)
    return 0


def cmd_check_id2(args) -> int:
    cfg = load_config(args.config)
    _require_keys(cfg, {"schema_version", "body", "p", "count", "seed", "tolerance_sigmas",
                        "samples"},
                  {"body", "p"}, "config")
    body = parse_body(cfg["body"])
    count = int(cfg.get("count", 100))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    sigmas = float(cfg.get("tolerance_sigmas", 3.0))
    rows = acc.id2_rows(body, float(cfg["p"]), count, int(cfg.get("samples", 65536)), seed,
                        sigmas)
    if args.out is not None:
        _write_csv(args.out / "check_id2.csv",
                   [("index", "montecarlo", "sphere", "mc_error", "sphere_error", "within")] + rows)
    failures = sum(not row[-1] for row in rows)
    print(f"identity check: {count - failures}/{count} vectors within "
          f"{sigmas:g} combined errors")
    return 0 if failures == 0 else 1


def cmd_limit_study(args) -> int:
    cfg = load_config(args.config)
    allowed = {"schema_version", "body", "field", "potential", "p", "functional",
               "schedule", "budget", "seed", "tolerance", "mollifier"}
    _require_keys(cfg, allowed, {"body", "field", "potential", "p", "functional"}, "config")
    body = parse_body(cfg["body"])
    u = parse_field(cfg["field"])
    a = parse_potential(cfg["potential"])
    p = float(cfg["p"])
    func = cfg["functional"]
    _require_keys(func, {"kind"}, {"kind"}, "functional")
    kind = func["kind"]
    schedule = parse_schedule(cfg["schedule"]) if "schedule" in cfg else None
    budget = parse_budget(cfg.get("budget", {}))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    tolerance = float(cfg.get("tolerance", 0.02))
    family = None
    if kind == "bbm":
        family = parse_mollifier(cfg.get("mollifier", {"family": "shrinking_uniform"}),
                                 body.dim, p)
    report = run_study(u, a, body, p, kind, schedule, budget, seed=seed, tolerance=tolerance,
                       mollifier_family=family, threads=args.threads)
    if args.out is not None:
        (args.out / "report.json").write_text(report.to_json() + "\n")
        _write_csv(args.out / "points.csv", report.points_csv_rows())
        report.write_plot_dat(args.out / "plot.dat")
    ex = report.extrapolation
    print(f"{kind} study on {report.study['body']}: limit {ex.limit:.8g} "
          f"(target {report.target:.8g}, gap {report.relative_gap:.2%}, "
          f"tolerance {report.tolerance:.2%}) -> {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_perimeter(args) -> int:
    cfg = load_config(args.config)
    _require_keys(cfg, {"schema_version", "region", "body"}, {"region", "body"}, "config")
    region = parse_region(cfg["region"])
    body = parse_body(cfg["body"])
    value = anisotropic_perimeter(region, body)
    print(f"anisotropic perimeter: {value!r}")
    if args.out is not None:
        _write_csv(args.out / "perimeter.csv", [("perimeter",), (repr(float(value)),)])
    return 0


def cmd_acceptance(args) -> int:
    names = args.only.split(",") if args.only else None
    results = acc.run_criteria(names, seed=args.seed or 0, threads=args.threads)
    if args.out is not None:
        for res in results:
            _write_csv(args.out / f"{res.name}.csv", res.rows)
            for rep_name, rep in res.reports.items():
                (args.out / f"{rep_name}.report.json").write_text(rep.to_json() + "\n")
    if args.json:
        payload = {
            "seed": args.seed or 0,
            "criteria": [
                {"name": r.name, "pass": r.passed, "summary": r.summary} for r in results
            ],
            "pass": all(r.passed for r in results),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.summary}")
        print(f"{'overall':<{width}}  {'PASS' if all(r.passed for r in results) else 'FAIL'}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisomag",
        description="Anisotropic magnetic energies: norms, nonlocal functionals, limit studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the options it reads
    def common(p, *options):
        p.add_argument("--out", type=Path, default=None, help="output directory (must exist)")
        if "--seed" in options:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if "--threads" in options:
            p.add_argument("--threads", type=int, default=1, help="worker threads")

    p_norms = sub.add_parser("norms", help="gauge and moment-norm table for listed vectors")
    p_norms.add_argument("--config", required=True)
    common(p_norms, "--seed")
    p_norms.set_defaults(func=cmd_norms)

    p_id2 = sub.add_parser("check-id2", help="two-route moment-norm comparison")
    p_id2.add_argument("--config", required=True)
    common(p_id2, "--seed")
    p_id2.set_defaults(func=cmd_check_id2)

    p_study = sub.add_parser("limit-study", help="run a limit study from a config")
    p_study.add_argument("--config", required=True)
    common(p_study, "--seed", "--threads")
    p_study.set_defaults(func=cmd_limit_study)

    p_per = sub.add_parser("perimeter", help="anisotropic perimeter of a polytope region")
    p_per.add_argument("--config", required=True)
    common(p_per)
    p_per.set_defaults(func=cmd_perimeter)

    p_acc = sub.add_parser("acceptance", help="run the pinned acceptance suite")
    p_acc.add_argument("--only", default=None, help="comma-separated criterion names")
    p_acc.add_argument("--json", action="store_true", help="machine-readable summary")
    common(p_acc, "--seed", "--threads")
    p_acc.set_defaults(func=cmd_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out is not None and not args.out.exists():  # before any work
            raise ConfigError(f"output directory does not exist: {args.out}")
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
