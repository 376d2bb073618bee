"""Command line front end: canned verification scenarios with JSON reports.

Every scenario is deterministic for a fixed configuration; reports carry no
timestamps and serialize with sorted keys, so byte-identical reruns are the
expected behavior, not a coincidence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import (DomainError, InconsistentTrajectoryError,
                     IntegrationBlowupError, InvalidLevelError)
from .geodesic import flow, integrate, residual
from .jacobi import conjugate_search, flow_tangent_fd
from .jetspace import (JetPoint, ddproject, dkappa, dproject, kappa, liouville,
                       project)
from .samples import random_slashed_jet, sphere_phase
from .spray import (complete_lift, homogeneity_check, make_finsler_example,
                    make_flat, make_sphere, project_spray)
from . import subspray

SCENARIOS = ("conjugate-scan", "lift-verify", "flow-check",
             "subspray-demo", "invariant-suite")
MANIFOLDS = ("sphere", "flat", "finsler")


@dataclass
class ScenarioConfig:
    scenario: str = "invariant-suite"
    manifold: str = "sphere"
    dim: int = 2
    h: float = 1e-3
    t_max: float = 4.0
    alpha: float = 1.0
    beta: float = 0.5
    seed: int = 0
    out: str | None = None


_FIELD_TYPES = {
    "scenario": str, "manifold": str, "dim": int, "h": float,
    "t_max": float, "alpha": float, "beta": float, "seed": int, "out": str,
}


def load_config(path: str) -> dict:
    """Parse a flat key=value file; # starts a comment, blanks are skipped."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _FIELD_TYPES[key](val.strip())
    return values


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        for key, val in load_config(args.config).items():
            setattr(cfg, key, val)
    for key in _FIELD_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if cfg.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg.scenario!r}; pick one of {SCENARIOS}")
    if cfg.manifold not in MANIFOLDS:
        raise ValueError(f"unknown manifold {cfg.manifold!r}; pick one of {MANIFOLDS}")
    if cfg.dim < 1:
        raise ValueError("dim must be at least 1")
    if cfg.seed < 0:
        raise ValueError("seed must be non-negative")
    for key in ("h", "t_max", "alpha", "beta"):
        val = getattr(cfg, key)
        if not math.isfinite(val):
            raise ValueError(f"{key} must be finite, got {val}")
    return cfg


def make_scenario_spray(cfg: ScenarioConfig):
    if cfg.manifold == "sphere":
        return make_sphere()
    if cfg.manifold == "flat":
        return make_flat(cfg.dim)
    return make_finsler_example((0.0, 1.0))


def _phase_jet(cfg: ScenarioConfig, s, rng) -> JetPoint:
    if cfg.manifold == "sphere":
        return sphere_phase(rng)
    return random_slashed_jet(rng, s.level + 1, s.dim)


def _double_jet(cfg: ScenarioConfig, s, rng) -> JetPoint:
    if cfg.manifold == "sphere":
        base = sphere_phase(rng).coords
        extra = 0.3 * rng.standard_normal(4)
        coords = np.concatenate([base[:2], extra[:2], base[2:], extra[2:]])
        return JetPoint(2, 2, coords)
    return random_slashed_jet(rng, s.level + 2, s.dim)


def _check(name: str, spray: str | None, params: dict, sup: float, tol: float) -> dict:
    """One report entry: a residual ``sup`` that passes when it is at most ``tol``."""
    return {"check": name, "spray": spray, "params": params,
            "residuals": {"sup": sup, "tol": tol}, "pass": sup <= tol}


def run_conjugate_scan(cfg: ScenarioConfig) -> list[dict]:
    s = make_scenario_spray(cfg)
    if cfg.manifold == "sphere":
        init = JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0]))
    elif cfg.manifold == "flat":
        coords = np.zeros(2 * cfg.dim)
        coords[cfg.dim] = 1.0
        init = JetPoint(1, cfg.dim, coords)
    else:
        init = JetPoint(1, 2, np.array([0.0, 0.0, 3.0, 4.0]))
    scan = conjugate_search(s, init, cfg.t_max, cfg.h)

    csv_path = None
    if cfg.out:
        csv_path = cfg.out + ".det.csv"
        lines = ["t,det"]
        lines += [f"{repr(float(t))},{repr(float(d))}"
                  for t, d in zip(scan.sample_times, scan.sample_dets)]
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    entry = {
        "check": "conjugate-scan",
        "spray": s.tag,
        "init": [float(z) for z in init.coords],
        "t_max": cfg.t_max,
        "conjugate_times": [float(t) for t in scan.times],
        "multiplicities": scan.multiplicities,
        "det_samples_csv_path": csv_path,
        "pass": scan.exit_reason is None,
    }
    return [entry]


def run_lift_verify(cfg: ScenarioConfig) -> list[dict]:
    s = make_scenario_spray(cfg)
    rng = np.random.default_rng(cfg.seed)
    lifted = complete_lift(s)
    projected = project_spray(lifted)

    worst = 0.0
    for _ in range(100):
        p = _phase_jet(cfg, s, rng)
        a = np.asarray(s.coeffs(p), dtype=float)
        b = np.asarray(projected.coeffs(p), dtype=float)
        worst = max(worst, float(np.max(np.abs(a - b))))
    checks = [_check("projection-recovery", s.tag, {"samples": 100}, worst, 0.0)]

    p2 = _double_jet(cfg, s, rng)
    t = min(1.0, cfg.t_max)
    lifted_end = flow(lifted, p2, t, cfg.h)
    fd_end = flow_tangent_fd(s, p2, t, cfg.h)
    gap = float(np.max(np.abs(lifted_end.coords - fd_end.coords)))
    tol_flow = 1e-6 * max(1.0, float(np.max(np.abs(lifted_end.coords))))
    checks.append(_check("lifted-flow-identity", lifted.tag,
                         {"t": t, "h": cfg.h, "eps_fd": 1e-5}, gap, tol_flow))

    hom_worst = 0.0
    for _ in range(20):
        p = _phase_jet(cfg, s, rng)
        hom_worst = max(hom_worst, homogeneity_check(s, p, 2.0))
    checks.append(_check("homogeneity", s.tag, {"lam": 2.0, "samples": 20}, hom_worst, 1e-12))
    return checks


def run_flow_check(cfg: ScenarioConfig) -> list[dict]:
    s = make_scenario_spray(cfg)
    rng = np.random.default_rng(cfg.seed)
    init = _phase_jet(cfg, s, rng)
    t1 = min(1.0, cfg.t_max)
    tr = integrate(s, init, (0.0, t1), cfg.h)
    tr_half = integrate(s, init, (0.0, t1), cfg.h / 2.0)

    defect = residual(s, tr)
    tol_defect = max(1e-8, 100.0 * cfg.h * cfg.h)
    rich = float(np.max(np.abs(tr.positions[-1] - tr_half.positions[-1])))
    tol_rich = max(1e-8, 1e3 * cfg.h ** 4)
    checks = [
        _check("defect", s.tag, {"t": t1, "h": cfg.h}, defect, tol_defect),
        _check("richardson", s.tag, {"t": t1, "h": cfg.h}, rich, tol_rich),
    ]

    if cfg.manifold in ("sphere", "flat"):
        if cfg.manifold == "sphere":
            energy = (tr.velocities[:, 0] ** 2
                      + np.sin(tr.positions[:, 0]) ** 2 * tr.velocities[:, 1] ** 2)
        else:
            energy = np.sum(tr.velocities ** 2, axis=1)
        drift = float(np.max(np.abs(energy - energy[0])))
        checks.append(_check("energy-drift", s.tag, {"t": t1, "h": cfg.h}, drift, 1e-8))
    return checks


def run_subspray_demo(cfg: ScenarioConfig) -> list[dict]:
    s = make_scenario_spray(cfg)
    if cfg.manifold == "sphere":
        x0, v0 = np.array([1.2, 0.4]), np.array([0.3, 1.0])
    elif cfg.manifold == "flat":
        x0, v0 = np.zeros(cfg.dim), np.ones(cfg.dim)
    else:
        x0, v0 = np.zeros(2), np.array([0.6, 0.8])
    t1 = min(1.0, cfg.t_max)
    sg = subspray.geodesic(s, x0, v0, cfg.alpha, cfg.beta, (0.0, t1), cfg.h,
                           tol=np.inf)
    expect_a = cfg.alpha + cfg.beta * sg.traj.times[: len(sg.recovered_alpha)]
    alpha_drift = float(np.max(np.abs(sg.recovered_alpha - expect_a)))
    beta_drift = float(np.max(np.abs(sg.recovered_beta - cfg.beta)))
    uniq = subspray.uniqueness_check(s, x0, v0, cfg.alpha, cfg.beta, (0.0, t1), cfg.h)
    rep = subspray.reparametrized(s, sg, 2.0, 0.2 * t1)

    def entry(name, value, tol):
        return _check(name, s.tag, {"alpha": cfg.alpha, "beta": cfg.beta, "t": t1, "h": cfg.h},
                      value, tol)

    return [
        entry("reintegration", sg.reintegration_deviation, 1e-6),
        entry("membership", sg.membership_max, 1e-6),
        entry("alpha-affine-drift", alpha_drift, 1e-6),
        entry("beta-constant-drift", beta_drift, 1e-6),
        entry("uniqueness-gap", uniq.parameter_gap, 1e-8),
        entry("reparametrized-field", rep.field_gap, 1e-6),
    ]


_IDENTITIES = (
    ("involution-squares", (2, 3, 4), lambda p: (kappa(kappa(p)), p)),
    ("projection-swap", (2, 3, 4), lambda p: (project(dkappa(p)), kappa(project(p)))),
    ("tangent-projection", (2, 3, 4), lambda p: (dproject(p), project(kappa(p)))),
    ("double-projection", (2, 3, 4), lambda p: (project(dproject(p)), project(project(p)))),
    ("projection-mixing", (3, 4), lambda p: (dproject(project(p)), project(ddproject(p)))),
    ("outer-involution", (3, 4), lambda p: (ddproject(kappa(p)), kappa(ddproject(p)))),
    ("projection-collapse", (2, 3, 4),
     lambda p: (project(project(kappa(p))), project(project(p)))),
    ("section-retraction", (1, 2, 3), lambda p: (dproject(kappa(liouville(p))), p)),
)


def run_invariant_suite(cfg: ScenarioConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    checks = []
    for name, levels, pair in _IDENTITIES:
        worst = 0.0
        count = 0
        for level in levels:
            for _ in range(20):
                coords = rng.standard_normal((1 << level) * cfg.dim)
                p = JetPoint(level, cfg.dim, coords)
                left, right = pair(p)
                worst = max(worst, float(np.max(np.abs(left.coords - right.coords))))
                count += 1
        checks.append(_check(name, None, {"levels": list(levels), "samples": count}, worst, 0.0))
    return checks


_RUNNERS = {
    "conjugate-scan": run_conjugate_scan,
    "lift-verify": run_lift_verify,
    "flow-check": run_flow_check,
    "subspray-demo": run_subspray_demo,
    "invariant-suite": run_invariant_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprayjets-run",
        description="Run a verification scenario and emit a JSON report.",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--manifold", choices=MANIFOLDS)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--h", type=float, help="integration step")
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="report path (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        checks = _RUNNERS[cfg.scenario](cfg)
    except (DomainError, IntegrationBlowupError,
            InconsistentTrajectoryError, InvalidLevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report = {
        "pass": all(c["pass"] for c in checks),
        "version": __version__,
        "config": asdict(cfg),
        "checks": checks,
    }
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report["pass"] else 1


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
