"""Checks of the workloads' outputs, computed apart from the program.

The predicted orders are written out here from the paper's formulas rather
than imported from `nearproj.theory`, so a fault there cannot hide itself.
With eta = delta = inf, sigma = sigma' = gamma / 2, and the cross-mesh norm
converges like

    r - s + sigma    in the norm the projection is taken in (s = 0 or 1),
    r + sigma'       in L2, for the elliptic (s = 1) projection,

where r - 1 is the polynomial degree and gamma the differing-region scaling
(1 for a single node in 1-D or a boundary band, 2 for a single node in 2-D).
Every check returns a list of problems; an empty list means it passed.
"""

import csv
import math
import re

import numpy as np

# P2 (r = 3) elliptic projection (s = 1), single node in 2-D (gamma = 2).
NODE_P2_H1_ORDER = 3.0      # 3 - 1 + 1
NODE_P2_L2_ORDER = 4.0      # 3 + 1

# Final-level order of every column of the reference tables.
TABLE_ORDERS = {
    1: {"affine": 2.5, "quadratic": 3.5},        # L2 projection, gamma = 1
    2: {"affine": 1.5, "quadratic": 2.5},        # elliptic, H1
    3: {"affine": 2.5, "quadratic": 3.5},        # elliptic, L2
    4: {"affine": 3.0},                          # L2 projection, gamma = 2
    5: {"H1": 2.0, "L2": 3.0},                   # elliptic, gamma = 2
    6: {"L2proj-L2": 2.5, "elliptic-H1": 1.5, "elliptic-L2": 2.5},   # band
}
TABLE_LEVELS = {1: 6, 2: 6, 3: 6, 4: 5, 5: 5, 6: 6}
TABLE_ORDER_TOL = 0.05      # worst today: table 6 elliptic-H1, 1.4734 vs 1.5

# Every level of a workload's sequence lies within this distance of the
# predicted order, so halving or doubling one value (a shift by 1 in the
# orders next to it) always shows; the finest level has a tight tolerance.
LEVEL_ORDER_TOL = 0.5

REGULARITY_ORDER_TOL = 0.02  # depth 8 today: 2.1647 and 1.1667 for p = 3
INTERSECTION_REL_TOL = 1e-12  # 1e-15 to 9e-15 today, n = 16 to 128


def regularity_orders(p):
    """Reference L2 and H1 orders 5/2 - 1/p and 3/2 - 1/p of the interpolant
    supercloseness for u(x) = x^(2-1/p) - x."""
    return 2.5 - 1.0 / p, 1.5 - 1.0 / p


def observed_orders(values):
    """Orders log2(v[k-1] / v[k]) of a sequence computed on meshes h, h/2, ..."""
    return [math.log(a / b) / math.log(2.0) for a, b in zip(values, values[1:])]


def check_orders(label, values, predicted, finest_tol, level_tol=LEVEL_ORDER_TOL):
    if len(values) < 2 or any(not (v > 0 and math.isfinite(v)) for v in values):
        return [f"{label}: values must be positive and finite, got {values}"]
    orders = observed_orders(values)
    problems = [f"{label}: order {o:.4f} between levels {k} and {k + 1} is more "
                f"than {level_tol} from {predicted}"
                for k, o in enumerate(orders) if abs(o - predicted) > level_tol]
    if abs(orders[-1] - predicted) > finest_tol:
        problems.append(f"{label}: finest order {orders[-1]:.4f} is not within "
                        f"{finest_tol} of {predicted}")
    return problems


def check_falling(label, values):
    """The sequence decreases strictly from level to level."""
    return [f"{label}: {b:.6e} at level {k + 1} does not fall below {a:.6e}"
            for k, (a, b) in enumerate(zip(values, values[1:])) if not b < a]


def check_table_csv(path, table_id):
    """The CSV of `nearproj table N --csv`: one row per level, orders that
    match its own values, and final orders near the predicted ones."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != TABLE_LEVELS[table_id]:
        return [f"table {table_id}: {len(rows)} rows, expected {TABLE_LEVELS[table_id]}"]
    problems = []
    for label, predicted in TABLE_ORDERS[table_id].items():
        values = [float(r[label]) for r in rows]
        printed = [float(r[label + "_order"]) for r in rows[1:]]
        mine = observed_orders(values)
        for k, (a, b) in enumerate(zip(printed, mine), start=1):
            if abs(a - b) > 1e-9 * abs(b):
                problems.append(f"table {table_id} {label}: printed order {a!r} at "
                                f"level {k} differs from {b!r} recomputed")
        problems += check_orders(f"table {table_id} {label}", values, predicted,
                                 TABLE_ORDER_TOL, level_tol=math.inf)
    return problems


_ROW = re.compile(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def check_regularity_output(text, p):
    """Finest-level L2 and H1 orders printed by `nearproj regularity`."""
    rows = [m.groups() for m in map(_ROW.match, text.splitlines()) if m]
    if len(rows) < 2:
        return [f"regularity: no table rows in output {text!r}"]
    _, _, l2_order, _, h1_order = rows[-1]
    problems = []
    for name, got, want in zip(("L2", "H1"), (l2_order, h1_order),
                               regularity_orders(p)):
        if abs(float(got) - want) > REGULARITY_ORDER_TOL:
            problems.append(f"regularity: finest {name} order {got} is not "
                            f"within {REGULARITY_ORDER_TOL} of {want:.4f}")
    return problems


def coefficients_by_coordinate(coords_from, coeffs, coords_to, n):
    """Move DOF values between two P2 spaces on n x n meshes by coordinate.

    Unperturbed DOFs sit at exact multiples of 1 / (2n); a DOF of the target
    at any other place (a moved node or the midpoint of one of its edges)
    gets 0.
    """
    where = {key: k for k, key in enumerate(_grid_keys(coords_from, n))
             if key is not None}
    return np.array([coeffs[where[key]] if key in where else 0.0
                     for key in _grid_keys(coords_to, n)])


def _grid_keys(coords, n):
    scaled = np.asarray(coords) * (2 * n)
    nearest = np.rint(scaled)
    exact = np.all(np.abs(scaled - nearest) <= 1e-9, axis=1)
    return [tuple(key) if ok else None
            for key, ok in zip(nearest.astype(np.int64).tolist(), exact)]


def check_intersection_gap(label, gap, scale):
    """`gap` is the cross-mesh norm between the intersection projection on
    mesh a and the same coefficients moved to mesh b; `scale` is the norm of
    the projection."""
    if not scale > 0:
        return [f"{label}: intersection projection has norm {scale}"]
    if not gap <= INTERSECTION_REL_TOL * scale:
        return [f"{label}: the intersection projection differs from its "
                f"coefficients moved to mesh b by {gap / scale:.3e} relative"]
    return []
