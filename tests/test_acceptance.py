"""Acceptance gate: one test per numbered criterion, stated tolerances only.

Each test prints a single summary line with the measured figures once its
assertions hold, so a verbose run reads as a pass/fail line per criterion.
"""

import numpy as np
import pytest

from sprayjets import (JetPoint, clift, complete_lift, dkappa, ddproject,
                       dproject, flow, flow_tangent_fd, homogeneity_check,
                       integrate, kappa, liouville, make_finsler_example,
                       make_flat, make_sphere, project, project_spray,
                       pushforward, pushforward_spray, shear_chart, vlift)
from sprayjets.jacobi import (conjugate_search, jacobi_from_initial,
                              lift_conjugate_check, new_from_old_suite,
                              variation_oracle)
from sprayjets.jets import jexp, jsin, jcos
from sprayjets.samples import random_slashed_jet, sphere_phase
from sprayjets import subspray as sub


def sphere_jet(rng, level):
    # slashed jet whose base block sits safely inside the colatitude chart
    coords = random_slashed_jet(rng, level, 2).coords.copy()
    coords[:2] = sphere_phase(rng).coords[:2]
    return JetPoint(level, 2, coords)


def double_phase(rng, tag):
    # level-2 point whose kappa image projects to a healthy level-1 phase
    base = (sphere_phase(rng) if tag == "sphere"
            else random_slashed_jet(rng, 1, 2)).coords
    extra = 0.3 * rng.standard_normal(4)
    return JetPoint(2, 2, np.concatenate([base[:2], extra[:2], base[2:], extra[2:]]))


def test_criterion_01_structural_identities():
    identities = (
        ("involution squares", (1, 2, 3), lambda p: (kappa(kappa(p)), p)),
        ("projection swap", (2, 3), lambda p: (project(dkappa(p)), kappa(project(p)))),
        ("tangent projection", (2, 3), lambda p: (dproject(p), project(kappa(p)))),
        ("double projection", (2, 3),
         lambda p: (project(dproject(p)), project(project(p)))),
        ("projection mixing", (3,),
         lambda p: (dproject(project(p)), project(ddproject(p)))),
        ("outer involution", (3,),
         lambda p: (ddproject(kappa(p)), kappa(ddproject(p)))),
        ("projection collapse", (2, 3),
         lambda p: (project(project(kappa(p))), project(project(p)))),
        ("section retraction", (1, 2, 3),
         lambda p: (dproject(kappa(liouville(p))), p)),
    )
    rng = np.random.default_rng(100)
    samples = 0
    for name, levels, pair in identities:
        for level in levels:
            for dim in (1, 2, 3):
                for _ in range(21):
                    p = JetPoint(level, dim, rng.standard_normal((1 << level) * dim))
                    left, right = pair(p)
                    np.testing.assert_array_equal(left.coords, right.coords,
                                                  err_msg=f"{name} r={level} n={dim}")
                    samples += 1
    assert samples >= 1000
    print(f"[PASS] criterion 1: {samples} block-permutation samples, exact equality")


def test_criterion_02_lift_commutation():
    def poly(c):
        return c[0] ** 2 * c[1] + c[1] ** 3

    def trig(c):
        return jsin(c[0]) * jcos(c[1])

    def mixed(c):
        return jexp(c[0] * 0.3) + c[0] * c[1] ** 2

    rng = np.random.default_rng(200)
    worst = 0.0
    for f in (poly, trig, mixed):
        g = clift(f, 2)
        gvv = vlift(vlift(g, 2), 2)
        gvc = clift(vlift(g, 2), 2)
        gcv = vlift(clift(g, 2), 2)
        gcc = clift(clift(g, 2), 2)
        for _ in range(100):
            p = random_slashed_jet(rng, 3, 2)
            q = dkappa(p)
            gaps = (abs(gvv(p.coords) - gvv(q.coords)),
                    abs(gvc(p.coords) - gcv(q.coords)),
                    abs(gcc(p.coords) - gcc(q.coords)))
            worst = max(worst, *gaps)
            assert max(gaps) <= 1e-12
    print(f"[PASS] criterion 2: 3 functions x 100 jets, worst gap {worst:.2e} <= 1e-12")


def test_criterion_03_homogeneity_gate():
    rng = np.random.default_rng(300)
    worst = 0.0
    samples = 0
    for tag, base in (("flat", make_flat(2)), ("sphere", make_sphere()),
                      ("finsler", make_finsler_example((0.0, 1.0)))):
        for depth in (0, 1, 2):
            s = base
            for _ in range(depth):
                s = complete_lift(s)
            for _ in range(112):
                p = (sphere_jet(rng, depth + 1) if tag == "sphere"
                     else random_slashed_jet(rng, depth + 1, 2))
                lam = float(rng.uniform(0.1, 10.0))
                res = homogeneity_check(s, p, lam)
                worst = max(worst, res)
                samples += 1
                assert res <= 1e-9
    assert samples >= 1000
    print(f"[PASS] criterion 3: {samples} samples over 9 sprays, "
          f"worst residual {worst:.2e} <= 1e-9")


def test_criterion_04_recovery_identity():
    rng = np.random.default_rng(400)
    worst = 0.0
    for tag, s in (("flat", make_flat(2)), ("sphere", make_sphere()),
                   ("finsler", make_finsler_example((0.0, 1.0)))):
        recovered = project_spray(complete_lift(s))
        for _ in range(100):
            p = sphere_phase(rng) if tag == "sphere" else random_slashed_jet(rng, 1, 2)
            gap = float(np.max(np.abs(np.asarray(s.coeffs(p), float)
                                      - np.asarray(recovered.coeffs(p), float))))
            worst = max(worst, gap)
            assert gap <= 1e-12
    print(f"[PASS] criterion 4: 3 sprays x 100 points, worst gap {worst:.2e} <= 1e-12")


def test_criterion_05_flow_identity():
    rng = np.random.default_rng(500)
    worst = 0.0
    for tag, s in (("sphere", make_sphere()),
                   ("finsler", make_finsler_example((0.0, 1.0)))):
        lifted = complete_lift(s)
        for _ in range(3):
            p2 = double_phase(rng, tag)
            for t in (0.1, 0.5, 1.0):
                a = flow(lifted, p2, t, 1e-3)
                b = flow_tangent_fd(s, p2, t, 1e-3, eps_fd=1e-5)
                rel = (np.max(np.abs(a.coords - b.coords))
                       / max(1.0, float(np.max(np.abs(a.coords)))))
                worst = max(worst, rel)
                assert rel <= 1e-6
    print(f"[PASS] criterion 5: sphere and finsler, t in (0.1, 0.5, 1.0), "
          f"worst relative gap {worst:.2e} <= 1e-6")


def test_criterion_06_jacobi_equivalence():
    worst = 0.0
    notes = []
    for tag, s in (("flat", make_flat(2)), ("sphere", make_sphere()),
                   ("finsler", make_finsler_example((0.0, 1.0)))):
        rng = np.random.default_rng(23)
        for k in range(20):
            ph = sphere_phase(rng) if tag == "sphere" else random_slashed_jet(rng, 1, 2)
            gamma = integrate(s, ph, (0.0, 1.0), 1e-3)
            assert gamma.complete
            w = rng.standard_normal(4)
            init = JetPoint(2, 2, np.array([*ph.coords[:2], *w[:2],
                                            *ph.coords[2:], *w[2:]]))
            lifted = jacobi_from_initial(s, init, (0.0, 1.0), 1e-3)
            oracle = variation_oracle(s, gamma, w, eps=1e-4)
            gap = float(np.max(np.abs(lifted.fiber_nodes() - oracle.fiber_nodes())))
            worst = max(worst, gap)
            assert gap <= 1e-5
            if k == 0:
                wide = variation_oracle(s, gamma, w, eps=2e-4)
                gap_wide = float(np.max(np.abs(lifted.fiber_nodes()
                                               - wide.fiber_nodes())))
                if gap > 1e-8:
                    ratio = gap_wide / gap
                    assert 1.0 <= ratio <= 16.0
                    notes.append(f"{tag} eps ratio {ratio:.2f}")
                else:
                    # both stencils sit at the integrator noise floor
                    assert gap_wide <= 1e-8
                    notes.append(f"{tag} at noise floor")
    print(f"[PASS] criterion 6: 20 cases x 3 sprays, worst sup gap {worst:.2e} "
          f"<= 1e-5 ({'; '.join(notes)})")


def test_criterion_07_conjugate_points():
    s = make_sphere()
    eq = JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0]))
    scan = conjugate_search(s, eq, 3.5, 1e-3)
    assert len(scan.times) == 1
    assert abs(scan.times[0] - np.pi) <= 1e-3

    flat_scan = conjugate_search(make_flat(2),
                                 JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.3])),
                                 10.0, 1e-3)
    assert flat_scan.times == []

    sine = jacobi_from_initial(s, JetPoint(2, 2, np.array([np.pi / 2, 0, 0, 0,
                                                           0, 1, 1, 0.0])),
                               (0.0, np.pi), 1e-3)
    rep = lift_conjugate_check(s, sine, end_tol=1e-5)
    assert max(rep.end_fiber_norms) <= 1e-5
    assert min(rep.interior_sup) >= 0.5
    print(f"[PASS] criterion 7: first conjugate time {scan.times[0]:.6f} "
          f"(pi +- 1e-3), flat none to 10, lifted witnesses end "
          f"{max(rep.end_fiber_norms):.2e} interior {min(rep.interior_sup):.2f}")


def test_criterion_08_derived_geodesics():
    names = {"affine_time", "fiber_combination", "involution", "projection",
             "derivative_projection", "tangent_curve", "scaled_tangent_curve",
             "liouville_composite"}
    sups = {}
    for tag, s, tol in (("sphere", make_sphere(), 1e-6),
                        ("flat", make_flat(2), 1e-12)):
        lifted = complete_lift(s)
        if tag == "sphere":
            j1 = integrate(lifted, JetPoint(2, 2, np.array([np.pi / 2, 0, 0, 0,
                                                            0, 1, 1, 0.0])),
                           (0.0, 1.0), 1e-3)
            init2 = np.array([1.1, 0.6, 0.2, -0.3, 0.4, 0.1, -0.2, 0.5,
                              0.3, 0.9, 0.7, -0.4, 0.2, 0.6, -0.1, 0.3])
        else:
            j1 = integrate(lifted, JetPoint(2, 2, np.array([0, 0, 0.1, 0.2,
                                                            1, 0.5, 0.3, -0.2])),
                           (0.0, 1.0), 1e-3)
            init2 = np.array([0.0, 0.0, 0.2, -0.3, 0.4, 0.1, -0.2, 0.5,
                              1.0, 0.9, 0.7, -0.4, 0.2, 0.6, -0.1, 0.3])
        j2 = integrate(complete_lift(lifted), JetPoint(3, 2, init2), (0.0, 0.5), 1e-3)
        seen = {}
        for suite in (new_from_old_suite(s, j1), new_from_old_suite(s, j2)):
            for name, item in suite.items():
                if item["status"] == "ok":
                    seen[name] = max(seen.get(name, 0.0), item["deviation"])
        assert set(seen) == names
        for name, dev in seen.items():
            assert dev <= tol, (tag, name, dev)
        sups[tag] = max(seen.values())
    print(f"[PASS] criterion 8: all 8 constructions, sphere sup "
          f"{sups['sphere']:.2e} <= 1e-6, flat sup {sups['flat']:.2e} <= 1e-12")


def test_criterion_09_subspray():
    s = make_sphere()
    figures = []

    # three constructions of the same parallel curve
    for tag, spray, x0, v0 in (("sphere", s, [1.2, 0.4], [0.3, 1.0]),
                               ("flat", make_flat(2), [0.0, 0.0], [1.0, 0.5])):
        al, be = 1.0, 0.5
        sg = sub.geodesic(spray, x0, v0, al, be, (0.0, 1.0), 1e-3)
        x0a, v0a = np.asarray(x0, float), np.asarray(v0, float)
        a0 = np.asarray(spray.acceleration(x0a.tolist(), v0a.tolist()), float)
        field_init = JetPoint(2, 2, np.concatenate([x0a, al * v0a,
                                                    v0a, al * a0 + be * v0a]))
        ftr = integrate(complete_lift(spray), field_init, (0.0, 1.0), 1e-3)
        n = min(len(sg.traj.times), len(ftr.times))
        tcol = sg.base.times[:n, None]
        formula = (al + be * tcol) * sg.base.velocities[:n]
        three_way = max(
            float(np.max(np.abs(sg.traj.positions[:n, 4:6] - formula))),
            float(np.max(np.abs(sg.traj.positions[:n, 4:6] - ftr.positions[:n, 2:4]))),
            float(np.max(np.abs(ftr.positions[:n, 2:4] - formula))),
        )
        assert three_way <= 1e-6
        assert sg.membership_max <= 1e-6
        if tag == "sphere":
            figures.append(f"three-way {three_way:.1e}")
            figures.append(f"membership {sg.membership_max:.1e}")

    # independent recoveries of the defining scalars
    uniq = sub.uniqueness_check(s, [1.2, 0.4], [0.3, 1.0], 1.3, -0.7,
                                (0.0, 0.5), 1e-3)
    assert abs(uniq.alpha_sequential - 1.3) <= 1e-8
    assert abs(uniq.beta_sequential + 0.7) <= 1e-8
    assert uniq.parameter_gap <= 1e-8
    figures.append(f"uniqueness {uniq.parameter_gap:.1e}")

    # no nontrivial two-zero family field over the scan window
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0 = np.array([rng.uniform(0.7, 2.3), rng.uniform(0.0, 2.0)])
        v0 = rng.standard_normal(2)
        v0 /= np.linalg.norm(v0)
        dx, dv = 0.3 * rng.standard_normal(2), 0.3 * rng.standard_normal(2)
        da, db = 0.3 * rng.standard_normal(), 0.3 * rng.standard_normal()
        al, be = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)

        def fam(sig):
            return x0 + sig * dx, v0 + sig * dv, al + sig * da, be + sig * db

        rep = sub.no_conjugate_check(s, fam, (0.0, 4.0), 1e-2)
        assert rep.ok
    figures.append("no-conjugate 10/10")

    d = sub.dimension_probe(s, [1.2, 0.4], [0.3, 1.0], 1.0, 0.5)
    assert (d.full_jet_rank, d.configuration_rank, d.fixed_parameter_rank) == (6, 6, 4)
    assert d.ok
    figures.append("ranks (6, 6, 4)")

    # exit-time agreement on a chart with the origin disk removed
    ann = make_flat(2, domain=lambda x: 0.04 < float(np.dot(x, x)) < 4.0)
    rows = sub.completeness_probe(ann, [
        {"label": "outward", "x0": [0.3, 0.0], "v0": [1.0, 0.0],
         "alpha": 1.0, "beta": 0.5},
        {"label": "into-puncture", "x0": [0.3, 0.0], "v0": [-1.0, 0.0],
         "alpha": 1.0, "beta": 0.5},
    ], 3.0, 1e-3)
    for row in rows:
        assert row["agree"], row
        assert abs(row["base_time"] - row["sub_time"]) <= 1e-3
    figures.append("exit times +- h")
    print(f"[PASS] criterion 9: {', '.join(figures)}")


def test_criterion_10_integrator_order():
    # the equatorial circle solves the geodesic equation with identically
    # zero coefficients, so every step size reproduces it to roundoff;
    # the same great circle is taken through an inclined chart instead,
    # where all coefficient derivatives are active
    s = make_sphere()
    tilt, om = 0.3, 3.0

    def closed_form(t):
        return np.array([np.arccos(np.sin(tilt) * np.sin(om * t)),
                         np.arctan2(np.cos(tilt) * np.sin(om * t), np.cos(om * t))])

    init = JetPoint(1, 2, np.array([np.pi / 2, 0.0,
                                    -om * np.sin(tilt), om * np.cos(tilt)]))
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        tr = integrate(s, init, (0.0, 1.0), h)
        errs.append(max(np.linalg.norm(tr.positions[k] - closed_form(t))
                        for k, t in enumerate(tr.times)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    for ratio in ratios:
        assert 4.0 <= ratio <= 64.0
    print(f"[PASS] criterion 10: great-circle closed form, halving ratios "
          f"{ratios[0]:.1f}, {ratios[1]:.1f} in [4, 64] "
          f"(inclined chart; the equatorial chart integrates exactly)")


def test_criterion_11_chart_invariance():
    t = shear_chart()
    rng = np.random.default_rng(1100)

    worst_push = 0.0
    for _ in range(100):
        p = JetPoint(2, 2, rng.standard_normal(8))
        x, y, big_x, big_y = (p.coords[:2], p.coords[2:4],
                              p.coords[4:6], p.coords[6:])
        jac = np.asarray(t.jacobian(x), float)
        hess = np.asarray(t.hessian(x), float)
        want = np.concatenate([
            np.asarray(t.forward(list(x)), float),
            jac @ y, jac @ big_x,
            jac @ big_y + np.einsum("ijk,j,k->i", hess, y, big_x),
        ])
        gap = float(np.max(np.abs(pushforward(t, p).coords - want)))
        worst_push = max(worst_push, gap)
        assert gap <= 1e-12

    s = make_sphere()
    lift_then_push = pushforward_spray(t, complete_lift(s))
    push_then_lift = complete_lift(pushforward_spray(t, s))
    worst_nat = 0.0
    for _ in range(20):
        p2 = double_phase(rng, "sphere")
        q2 = pushforward(t, p2)
        gap = float(np.max(np.abs(
            np.asarray(lift_then_push.coeffs(q2), float)
            - np.asarray(push_then_lift.coeffs(q2), float))))
        worst_nat = max(worst_nat, gap)
        assert gap <= 1e-9
    print(f"[PASS] criterion 11: pushforward rule {worst_push:.2e} <= 1e-12, "
          f"lift naturality {worst_nat:.2e} <= 1e-9")
