"""Acceptance suite: every criterion prints one [criterion N] PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nearproj import (CrossMeshDiff, FeFunction, FunctionSpec, MASS, NormSpec,
                      RateInputs, STIFFNESS, build_space, build_uniform_interval,
                      build_uniform_square, classify_pair, cross_mesh_norm,
                      fe_norm, interpolate_nodal, intersection_project,
                      named_function, perturb_boundary_band, perturb_node_nearest,
                      predicted_sigma, predicted_sigma_prime, project,
                      run_projection_study, run_regularity_study,
                      assemble_load, assemble_matrix,
                      PerturbationSpec, StudyConfig)
from nearproj.cli import STORED_2D_NORM_FACTOR, TABLES, run_table
from nearproj.norms import fe_component_norms
from nearproj.study import FUNCTIONS

from conftest import random_fe_function

L2, H1 = NormSpec(0, 2), NormSpec(1, 2)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def timed_tables():
    out = {}
    for tid in (1, 2, 3, 4, 5, 6):
        t0 = time.time()
        out[tid] = (run_table(tid), time.time() - t0)
    return out


def column(report_obj, label):
    values = [row[label] for row in report_obj.rows]
    final_order = report_obj.rows[-1][label + ":order"]
    return values, final_order


def test_criterion_1_table1_values_and_orders(timed_tables):
    rep, elapsed = timed_tables[1]
    affine, aorder = column(rep, "affine")
    quad, qorder = column(rep, "quadratic")
    ref_a = (3.2150e-03, 5.6505e-04, 9.9837e-05, 1.7645e-05, 3.1189e-06, 5.5132e-07)
    ref_q = (1.2843e-04, 1.0676e-05, 9.1277e-07, 7.9301e-08, 6.9484e-09, 6.1146e-10)
    worst_a = max(abs(v / r - 1) for v, r in zip(affine, ref_a))
    worst_q = max(abs(v / r - 1) for v, r in zip(quad, ref_q))
    ok = (worst_a <= 0.005 and abs(aorder - 2.50) <= 0.02
          and worst_q <= 0.01 and abs(qorder - 3.51) <= 0.03
          and elapsed < 10.0)
    assert report(1, ok,
                  f"affine dev {worst_a:.2%} order {aorder:.4f}; quadratic dev "
                  f"{worst_q:.2%} order {qorder:.4f}; runtime {elapsed:.1f}s")


def test_criterion_2_table2_elliptic_h1(timed_tables):
    rep, _ = timed_tables[2]
    affine, aorder = column(rep, "affine")
    quad, qorder = column(rep, "quadratic")
    ref_a = (1.4451e-01, 5.1203e-02, 1.8081e-02, 6.3851e-03, 2.2558e-03, 7.9723e-04)
    ref_q = (7.4390e-03, 1.2835e-03, 2.2408e-04, 3.9364e-05, 6.9369e-06, 1.2243e-06)
    worst = max(max(abs(v / r - 1) for v, r in zip(affine, ref_a)),
                max(abs(v / r - 1) for v, r in zip(quad, ref_q)))
    ok = (abs(aorder - 1.50) <= 0.02 and abs(qorder - 2.50) <= 0.02
          and worst <= 0.01)
    assert report(2, ok, f"orders {aorder:.4f}/{qorder:.4f}, worst value dev "
                         f"{worst:.2%}")


def test_criterion_3_table3_elliptic_l2(timed_tables):
    rep, _ = timed_tables[3]
    affine, aorder = column(rep, "affine")
    quad, qorder = column(rep, "quadratic")
    ref_a = (3.4546e-03, 6.1937e-04, 1.1019e-04, 1.9537e-05, 3.4587e-06, 6.1186e-07)
    ref_q = (1.7770e-04, 1.5493e-05, 1.3576e-06, 1.1943e-07, 1.0530e-08, 9.2955e-10)
    worst = max(max(abs(v / r - 1) for v, r in zip(affine, ref_a)),
                max(abs(v / r - 1) for v, r in zip(quad, ref_q)))
    ok = (abs(aorder - 2.50) <= 0.02 and abs(qorder - 3.50) <= 0.03
          and worst <= 0.01)
    assert report(3, ok, f"orders {aorder:.4f}/{qorder:.4f}, worst value dev "
                         f"{worst:.2%}")


def test_criterion_4_table4_order_and_runtime(timed_tables):
    rep, elapsed = timed_tables[4]
    _, order = column(rep, "affine")
    ok = abs(order - 3.00) <= 0.05 and elapsed < 120.0
    assert report(4, ok, f"final order {order:.4f}, runtime {elapsed:.1f}s")


def test_criterion_4_table4_value_anchor(timed_tables):
    # The stored 2-D values are the exact norm divided by sqrt(2) (pinned level
    # by level on table 5 below); the program integrates the exact norm, so the
    # stored value is compared through that one factor, shared with the CLI.
    rep, _ = timed_tables[4]
    values, _ = column(rep, "affine")
    expected = 1.3781e-06 * STORED_2D_NORM_FACTOR
    dev = abs(values[4] / expected - 1.0)
    report("4-value", dev <= 0.02,
           f"value at h0/h=16 is {values[4]:.4e} vs reference 1.3781e-06 x "
           f"sqrt(2) = {expected:.4e} (deviation {dev:.2%})")
    assert dev <= 0.02


def test_stored_2d_values_are_exact_norm_over_sqrt2(timed_tables):
    # Pins the convention behind STORED_2D_NORM_FACTOR: measured / stored is
    # sqrt(2) at every table-5 level, in H1 and in L2.
    rep, _ = timed_tables[5]
    worst = 0.0
    for label in ("H1", "L2"):
        values, _ = column(rep, label)
        stored = TABLES[5].reference[label]
        worst = max(worst, max(abs(v / (s * STORED_2D_NORM_FACTOR) - 1.0)
                               for v, s in zip(values, stored)))
    assert report("5-factor", worst <= 0.002,
                  f"measured / (stored x sqrt(2)) off by at most {worst:.3%} "
                  f"over all table-5 levels")


def test_criterion_5_table5_orders(timed_tables):
    rep, _ = timed_tables[5]
    _, h1_order = column(rep, "H1")
    _, l2_order = column(rep, "L2")
    ok = abs(h1_order - 2.00) <= 0.05 and abs(l2_order - 2.99) <= 0.05
    assert report(5, ok, f"H1 order {h1_order:.4f}, L2 order {l2_order:.4f}")


def test_criterion_6_table6_orders(timed_tables):
    rep, _ = timed_tables[6]
    _, o1 = column(rep, "L2proj-L2")
    _, o2 = column(rep, "elliptic-H1")
    _, o3 = column(rep, "elliptic-L2")
    ok = (abs(o1 - 2.475) <= 0.05 and abs(o2 - 1.473) <= 0.05
          and abs(o3 - 2.495) <= 0.05)
    assert report(6, ok, f"orders {o1:.4f}/{o2:.4f}/{o3:.4f}")


def test_criterion_7_regularity_counterexample():
    result = run_regularity_study(4.0, levels=8)
    last_two_l2 = [result.rows[i].orders[L2] for i in (-2, -1)]
    last_two_h1 = [result.rows[i].orders[H1] for i in (-2, -1)]
    ok = all(abs(o - 2.25) <= 0.05 for o in last_two_l2) and \
        all(abs(o - 1.25) <= 0.05 for o in last_two_h1)
    assert report(7, ok, f"L2 orders {last_two_l2[0]:.4f},{last_two_l2[1]:.4f}; "
                         f"H1 orders {last_two_h1[0]:.4f},{last_two_h1[1]:.4f}")


# --- criterion 8: property suite -------------------------------------------

def test_criterion_8_galerkin_orthogonality():
    rng = np.random.default_rng(7)
    sin2d = named_function("sin_pi_2d")
    s = build_space(build_uniform_square(8), 1, dirichlet=True)
    worst = 0.0
    for form, unorm in ((MASS, 0.5), (STIFFNESS, np.pi / np.sqrt(2))):
        A = assemble_matrix(s, form)
        b = assemble_load(s, form, sin2d)
        c = project(s, form, sin2d).coeffs[s.free_dofs]
        spec = NormSpec(form.s, 2)
        for _ in range(50):
            w = random_fe_function(s, rng)
            wf = w.coeffs[s.free_dofs]
            worst = max(worst, abs(c @ (A @ wf) - b @ wf)
                        / (unorm * fe_norm(w, spec)))
    assert report(8, worst <= 1e-10, f"Galerkin orthogonality defect {worst:.2e}")


def test_criterion_8_projector_idempotence():
    from nearproj.space import evaluate
    rng = np.random.default_rng(8)
    s = build_space(build_uniform_interval(8), 2, dirichlet=True)
    worst = 0.0
    for form in (MASS, STIFFNESS):
        g = random_fe_function(s, rng)
        u = FunctionSpec(value=lambda x: np.array([evaluate(g, p)[0] for p in x]),
                         gradient=lambda x: np.array([evaluate(g, p)[1] for p in x]))
        worst = max(worst, np.abs(project(s, form, u).coeffs - g.coeffs).max())
    assert report(8, worst <= 1e-11, f"projection idempotence defect {worst:.2e}")


def test_criterion_8_1d_elliptic_projection_is_interpolant():
    sin1d = named_function("sin_pi")
    worst = 0.0
    for n in (8, 64):
        s = build_space(build_uniform_interval(n), 1, dirichlet=True)
        worst = max(worst, np.abs(project(s, STIFFNESS, sin1d).coeffs
                                  - interpolate_nodal(s, sin1d).coeffs).max())
    assert report(8, worst <= 1e-11, f"elliptic projection vs interpolant "
                                     f"{worst:.2e}")


def test_criterion_8_intersection_projector_idempotent_exactly():
    rng = np.random.default_rng(9)
    m = build_uniform_square(4)
    pair = classify_pair(m, perturb_node_nearest(m, (0.25, 0.25), (m.h / 4, 0)), 2.0)
    s = build_space(pair.mesh_a, 1, dirichlet=True)
    other = build_space(pair.mesh_b, 1, dirichlet=True)
    ok = True
    for _ in range(100):
        f = random_fe_function(s, rng)
        once = intersection_project(pair, f, other_space=other)
        twice = intersection_project(pair, once, other_space=other)
        ok &= bool(np.array_equal(once.coeffs, twice.coeffs))
    assert report(8, ok, "intersection projector idempotent (exact)")


def test_criterion_8_intersection_projector_linf_stability():
    rng = np.random.default_rng(10)
    worst = 0.0
    for build, pert in ((build_uniform_interval(8), (0.25,)),
                        (build_uniform_square(4), (0.25, 0.25))):
        m = build
        disp = np.zeros(m.dimension)
        disp[0] = m.h / 4
        pair = classify_pair(m, perturb_node_nearest(m, pert, disp), 1.0)
        s = build_space(m, 1, dirichlet=True)
        other = build_space(pair.mesh_b, 1, dirichlet=True)
        for _ in range(500):
            f = random_fe_function(s, rng)
            top = np.abs(f.coeffs).max()
            if top == 0:
                continue
            g = intersection_project(pair, FeFunction(s, f.coeffs / top),
                                     other_space=other)
            worst = max(worst, np.abs(g.coeffs).max())
    assert report(8, worst <= 1.0 + 1e-12,
                  f"pi_h L-inf stability constant {worst:.15f}")


def test_criterion_8_holder_support_inequality():
    rng = np.random.default_rng(11)
    meshes = [build_uniform_interval(13), build_uniform_square(5)]
    from nearproj import support_measure
    checked = 0
    worst = 0.0
    while checked < 200:
        mesh = meshes[checked % 2]
        degree = 1 + (checked % 4 < 2)
        s = build_space(mesh, degree, dirichlet=False)
        f = random_fe_function(s, rng, sparsity=0.3)
        supp = support_measure(f)
        if supp == 0.0:
            continue
        k = checked % 2
        eta = 4.0 if checked % 3 else math.inf
        lhs = sum(fe_component_norms(f, k, 2.0))
        rhs = supp ** (0.5 - (0.0 if math.isinf(eta) else 1.0 / eta)) \
            * sum(fe_component_norms(f, k, eta))
        worst = max(worst, lhs / rhs)
        checked += 1
    assert report(8, worst <= 1.01,
                  f"Holder/support inequality worst ratio {worst:.6f} on 200 draws")


def test_criterion_8_clipping_conservation():
    # cross_mesh_norm raises GeometryError if fragment areas stray more than
    # 1e-10 from the differing-region measure; run the heaviest clip cases
    sin2d = named_function("sin_pi_2d")
    for n in (4, 8, 16):
        m = build_uniform_square(n)
        moved = perturb_boundary_band(m, m.h / np.sqrt(2), (m.h / 4, 0.0))
        pair = classify_pair(m, moved, 1.0)
        sa = build_space(m, 1, dirichlet=True)
        sb = build_space(moved, 1, dirichlet=True)
        d = CrossMeshDiff(interpolate_nodal(sa, sin2d),
                          interpolate_nodal(sb, sin2d), pair)
        cross_mesh_norm(d, L2)
    assert report(8, True, "clipping area conservation within 1e-10 (no "
                           "geometry failures over band pairs n=4,8,16)")


def test_criterion_8_sigma_prime_never_exceeds_sigma():
    rng = np.random.default_rng(12)
    worst = -math.inf
    for _ in range(10000):
        gamma = rng.uniform(0, 20)
        eta = math.inf if rng.random() < 0.3 else rng.uniform(2, 50)
        delta = math.inf if rng.random() < 0.3 else rng.uniform(0, 10)
        mu, nu = rng.integers(0, 2), rng.integers(0, 2)
        ri = RateInputs(gamma=gamma, eta=eta, delta=delta, mu=int(mu), nu=int(nu),
                        s=1, r=int(rng.integers(2, 6)))
        worst = max(worst, predicted_sigma_prime(ri) - predicted_sigma(ri))
    assert report(8, worst <= 1e-15,
                  f"sigma' - sigma <= {worst:.2e} over 10^4 random inputs")


def test_predicted_order_envelope_all_tables(timed_tables):
    # every shipped config: final observed order within [pred - 0.1, pred + 0.15]
    ok = True
    details = []
    for tid, (rep, _) in timed_tables.items():
        for label in rep.labels:
            predicted = rep.predictions[label]
            final = rep.rows[-1][label + ":order"]
            ok &= predicted - 0.1 <= final <= predicted + 0.15
            details.append(f"T{tid}/{label}: {final:.3f} vs {predicted:g}")
    assert report("envelope", ok, "; ".join(details))


def test_criterion_9_perturbed_form_orders():
    details = []
    ok = True
    for delta in (0.0, 1.0, 2.0):
        # identical meshes, a_h on one and a_h + h^delta mass on the other
        result, = run_projection_study(StudyConfig(
            dimension=1, degree=1, form=replace(STIFFNESS, delta=delta),
            perturbation=PerturbationSpec("single-node", point=(0.25,), fraction=0.0),
            u="sin_pi", levels=5, norms=(H1, L2)))
        predicted = result.predicted_orders[H1]
        observed = result.rows[-1].orders[H1]
        ok &= observed >= predicted - 0.1
        details.append(f"delta={delta:g}: observed {observed:.3f} >= "
                       f"{predicted:.2f}-0.1")
    assert report(9, ok, "; ".join(details))
