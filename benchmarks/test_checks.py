"""Tests of the benchmark's own checks and span arithmetic.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks                                   # noqa: E402
from spans import Tracer                        # noqa: E402


def sequence(order, levels, c=0.7, h0=1 / 16):
    return [c * (h0 / 2 ** k) ** order for k in range(levels)]


def halved(values, k):
    return values[:k] + [values[k] / 2] + values[k + 1:]


ORDER_CASES = [("node_p2 h1", checks.NODE_P2_H1_ORDER, 4, 0.05),
               ("node_p2 l2", checks.NODE_P2_L2_ORDER, 4, 0.05)]


def test_predicted_orders_follow_the_formulas():
    # r - s + gamma/2 and r + gamma/2 with sigma = sigma' = gamma/2
    assert checks.NODE_P2_H1_ORDER == 3 - 1 + 2 / 2
    assert checks.NODE_P2_L2_ORDER == 3 + 2 / 2
    assert checks.regularity_orders(3) == (2.5 - 1 / 3, 1.5 - 1 / 3)


@pytest.mark.parametrize("label,order,levels,tol", ORDER_CASES)
def test_orders_pass_on_exact_sequences(label, order, levels, tol):
    assert checks.check_orders(label, sequence(order, levels), order, tol) == []
    # a pre-asymptotic wobble inside the tolerances still passes
    wobbly = sequence(order, levels)
    wobbly[0] *= 2 ** 0.3
    assert checks.check_orders(label, wobbly, order, tol) == []


@pytest.mark.parametrize("label,order,levels,tol", ORDER_CASES)
def test_orders_fail_when_one_level_is_halved(label, order, levels, tol):
    for k in range(levels):
        values = halved(sequence(order, levels), k)
        assert checks.check_orders(label, values, order, tol), k


def test_orders_fail_on_the_wrong_rate_and_on_bad_values():
    assert checks.check_orders("x", sequence(2.5, 3), 3.0, 0.05)
    assert checks.check_orders("x", [1.0, 0.0, 0.0], 2.5, 0.05)
    assert checks.check_orders("x", [1.0, math.nan], 2.5, 0.05)


def test_falling_ratio():
    cross, error = sequence(3.0, 4), sequence(2.0, 4)
    ratio = [c / e for c, e in zip(cross, error)]
    assert checks.check_falling("r", ratio) == []
    assert checks.check_falling("r", ratio[:2] + [ratio[1]] + ratio[3:])
    assert checks.check_falling("r", [1.0, 0.5, 0.6])


def write_table_csv(path, columns, levels):
    names = list(columns)
    values = {name: sequence(order, levels) for name, order in columns.items()}
    with open(path, "w") as fh:
        fh.write(",".join(["level", "h_ratio"]
                          + [c for n in names for c in (n, n + "_order")]) + "\n")
        for k in range(levels):
            cells = [str(k), str(2 ** k)]
            for n in names:
                v = values[n]
                order = "" if k == 0 else repr(math.log2(v[k - 1] / v[k]))
                cells += [repr(v[k]), order]
            fh.write(",".join(cells) + "\n")
    return values


@pytest.mark.parametrize("table_id", sorted(checks.TABLE_ORDERS))
def test_table_csv_passes_and_catches_a_halved_value(tmp_path, table_id):
    path = tmp_path / "t.csv"
    columns = checks.TABLE_ORDERS[table_id]
    levels = checks.TABLE_LEVELS[table_id]
    write_table_csv(path, columns, levels)
    assert checks.check_table_csv(path, table_id) == []
    lines = path.read_text().splitlines()
    for k in range(levels):
        cells = lines[k + 1].split(",")
        cells[2] = repr(float(cells[2]) / 2)
        broken = lines[:k + 1] + [",".join(cells)] + lines[k + 2:]
        path.write_text("\n".join(broken) + "\n")
        assert checks.check_table_csv(path, table_id), k


def regularity_text(l2_order, h1_order):
    return "\n".join([
        "interpolant supercloseness for u(x) = x^(2-1/p) - x, p = 3",
        "  h0/h            L2     order            H1     order",
        "     1    1.2345e-03         -    2.3456e-02         -",
        f"   256    4.5678e-09    {l2_order:.4f}    6.7890e-05    {h1_order:.4f}",
        "reference asymptotic L2 order: 2.1667",
        "reference asymptotic H1 order: 1.1667"])


def test_regularity_output():
    l2, h1 = checks.regularity_orders(3)
    assert checks.check_regularity_output(regularity_text(2.1647, 1.1667), 3) == []
    assert checks.check_regularity_output(regularity_text(l2 - 1, h1), 3)
    assert checks.check_regularity_output(regularity_text(l2, h1 + 1), 3)
    assert checks.check_regularity_output("error: CG stalled", 3)


@pytest.fixture(scope="module")
def intersection_case():
    from nearproj import (STIFFNESS, CrossMeshDiff, FeFunction, NormSpec,
                          build_space, build_uniform_square, classify_pair,
                          cross_mesh_norm, fe_norm, intersection_project,
                          named_function, perturb_node_nearest, project)
    n = 8
    mesh_a = build_uniform_square(n)
    mesh_b = perturb_node_nearest(mesh_a, (0.25, 0.25), (mesh_a.h / 4, 0.0))
    pair = classify_pair(mesh_a, mesh_b, 2.0)
    space_a = build_space(mesh_a, 2, dirichlet=True)
    space_b = build_space(mesh_b, 2, dirichlet=True)
    f_a = project(space_a, STIFFNESS, named_function("sin_pi_2d"))
    g_a = intersection_project(pair, f_a, space_b)
    h1 = NormSpec(1, 2)

    def gap(coeffs_a):
        g = FeFunction(space_a, coeffs_a)
        moved = checks.coefficients_by_coordinate(
            space_a.dof_coords, g.coeffs, space_b.dof_coords, n)
        g_b = FeFunction(space_b, moved)
        return checks.check_intersection_gap(
            "case", cross_mesh_norm(CrossMeshDiff(g, g_b, pair), h1), fe_norm(g, h1))

    return f_a, g_a, gap


def test_intersection_check_passes_on_the_projection(intersection_case):
    _, g_a, gap = intersection_case
    assert gap(g_a.coeffs) == []


def test_intersection_check_fails_when_one_coefficient_changes(intersection_case):
    f_a, g_a, gap = intersection_case
    dropped = np.flatnonzero((g_a.coeffs == 0) & (f_a.coeffs != 0))
    assert dropped.size > 0
    for dof in dropped:
        coeffs = g_a.coeffs.copy()
        coeffs[dof] = f_a.coeffs[dof]
        assert gap(coeffs), dof


def test_moving_by_coordinate_drops_points_off_the_grid():
    coords = np.array([[0.25, 0.5], [0.3, 0.5]])
    moved = checks.coefficients_by_coordinate(coords, np.array([1.0, 2.0]),
                                              coords[::-1], 2)
    assert moved.tolist() == [0.0, 1.0]


def test_self_times_add_up_to_the_root():
    t = Tracer()
    mark = t.mark()
    with t.span("root"):
        with t.span("a"):
            time.sleep(0.01)
            with t.span("b"):
                time.sleep(0.01)
        with t.span("a"):
            time.sleep(0.01)
    t.counts["n"] += 2
    self_times, roots, counts = t.since(mark)
    assert math.isclose(sum(self_times.values()), roots, rel_tol=1e-9)
    assert self_times["b"] >= 0.01 and self_times["a"] >= 0.02
    assert self_times["a"] < roots - self_times["b"]
    assert counts == {"n": 2}
    later = t.mark()
    with t.span("c"):
        pass
    assert set(t.since(later)[0]) == {"c"}


def test_wrap_restores_the_module():
    import types
    module = types.SimpleNamespace(f=lambda x: x + 1)
    real = module.f
    t = Tracer()
    seen = []
    t.wrap(module, "f", "f", after=lambda tr, r, args, res: seen.append((args, res)))
    assert module.f(1) == 2 and seen == [((1,), 2)]
    assert [s["name"] for s in t.dump()] == ["f"]
    t.restore()
    assert module.f is real


def test_round_metrics_check_that_spans_nest():
    import workload
    t = Tracer()
    t.spans += [["bench", 0.0, 1.0, None], ["mesh.build", 0.25, 0.75, 0]]
    metrics, _ = workload.traced_round_metrics(t, (0, {}), 1.25)
    assert metrics["mesh.build_s"] == 0.5 and metrics["bench.self_s"] == 0.5
    assert metrics["trace.untraced_s"] == 0.25
    # a child span that outlasts its parent, and root spans longer than the
    # operations they were recorded in
    t.spans[1][2] = 1.5
    with pytest.raises(AssertionError, match="do not nest"):
        workload.traced_round_metrics(t, (0, {}), 2.0)
    t.spans[1][2] = 0.75
    with pytest.raises(AssertionError, match="do not nest"):
        workload.traced_round_metrics(t, (0, {}), 0.5)
