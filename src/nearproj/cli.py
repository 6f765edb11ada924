"""Command-line front end: reference-table reproduction, custom studies,
order prediction, and the low-regularity counterexample.

Exit status: 0 all golden checks pass, 1 a golden check failed, 2 usage error.
"""

import argparse
import contextlib
import io
import math
import os
import sys
from dataclasses import dataclass, field, replace

from .errors import ConfigError, InvalidArgumentError, NearprojError
from .forms import MASS, STIFFNESS, BilinearFormSpec
from .mesh import finite_point
from .norms import NormSpec
from .study import (PerturbationSpec, StudyConfig, named_function,
                    predicted_order_for_norm, run_projection_study,
                    run_regularity_study)
from .theory import (RateInputs, predicted_sigma, predicted_sigma_prime,
                     q_restriction_ok)


@dataclass
class Report:
    title: str
    rows: list                  # {"level", "h_ratio", label, label + ":order"}
    labels: list                # column labels in display order
    predictions: dict           # label -> predicted order (None: n/a)
    checks: tuple = ()          # (description, passed, detail)
    notes: tuple = ()           # lines printed under the predicted orders


def _report(title, columns, checks=(), notes=()):
    """The Report of `(label, StudyResult, NormSpec)` columns: one row per
    level, the predicted orders, and the flags of each column's norm as notes
    that name the column, ahead of `notes`."""
    rows = []
    for lev, first in enumerate(columns[0][1].rows):
        row = {"level": first.level, "h_ratio": first.h_ratio}
        for label, result, spec in columns:
            r = result.rows[lev]
            row[label] = r.norm_values[spec]
            row[label + ":order"] = r.orders.get(spec)
        rows.append(row)
    flags = [f"note: {what} for {label}" for label, result, spec in columns
             for flagged, what in result.flags if flagged == spec]
    return Report(title, rows, [label for label, _, _ in columns],
                  {label: result.predicted_orders[spec] for label, result, spec in columns},
                  tuple(checks), (*flags, *notes))


def _number(value, spec):
    return "n/a" if value is None else format(value, spec)


# ---------------------------------------------------------------------------
# Embedded reference tables (printed values; golden checks follow the
# acceptance tolerances).

SINGLE_1D = PerturbationSpec("single-node", point=(0.25,), fraction=0.25)
SINGLE_2D = PerturbationSpec("single-node", point=(0.25, 0.25), fraction=0.25)
BAND_2D = PerturbationSpec("boundary-band", fraction=0.25)

L2 = NormSpec(0, 2)
H1 = NormSpec(1, 2)

# The stored 2-D reference values (tables 4-6) are the exact norm divided by
# sqrt(2): measured / stored is sqrt(2) to within 0.07% at every level of
# table 5, in H1 and L2.  The program reports the exact norm, so value checks
# on a 2-D table compare with the stored value times this factor.
STORED_2D_NORM_FACTOR = math.sqrt(2.0)


def _cfg(dim, degree, form, pert, u, levels, norms):
    return StudyConfig(dimension=dim, degree=degree, form=form, perturbation=pert,
                       u=u, levels=levels, norms=norms)


@dataclass(frozen=True)
class TableDef:
    title: str
    configs: tuple                    # StudyConfigs run in order
    columns: tuple                    # (label, config index, NormSpec)
    reference: dict                   # column label -> printed values (2-D:
                                      # exact norm / STORED_2D_NORM_FACTOR)
    # checks keyed by column label
    value_checks: dict = field(default_factory=dict)   # rel tol on all rows
    order_checks: dict = field(default_factory=dict)   # (final order, abs tol)


TABLES = {
    1: TableDef(
        title="L2-supercloseness of L2-projections, 1-D nearby grids (gamma=1)",
        configs=(_cfg(1, 1, MASS, SINGLE_1D, "sin_pi", 6, (L2,)),
                 _cfg(1, 2, MASS, SINGLE_1D, "sin_pi", 6, (L2,))),
        columns=(("affine", 0, L2), ("quadratic", 1, L2)),
        reference={"affine": (3.2150e-03, 5.6505e-04, 9.9837e-05, 1.7645e-05,
                              3.1189e-06, 5.5132e-07),
                   "quadratic": (1.2843e-04, 1.0676e-05, 9.1277e-07, 7.9301e-08,
                                 6.9484e-09, 6.1146e-10)},
        value_checks={"affine": 0.005, "quadratic": 0.01},
        order_checks={"affine": (2.50, 0.02), "quadratic": (3.51, 0.03)}),
    2: TableDef(
        title="H1-supercloseness of elliptic projections, 1-D nearby grids (gamma=1)",
        configs=(_cfg(1, 1, STIFFNESS, SINGLE_1D, "sin_pi", 6, (H1,)),
                 _cfg(1, 2, STIFFNESS, SINGLE_1D, "sin_pi", 6, (H1,))),
        columns=(("affine", 0, H1), ("quadratic", 1, H1)),
        reference={"affine": (1.4451e-01, 5.1203e-02, 1.8081e-02, 6.3851e-03,
                              2.2558e-03, 7.9723e-04),
                   "quadratic": (7.4390e-03, 1.2835e-03, 2.2408e-04, 3.9364e-05,
                                 6.9369e-06, 1.2243e-06)},
        value_checks={"affine": 0.01, "quadratic": 0.01},
        order_checks={"affine": (1.50, 0.02), "quadratic": (2.50, 0.02)}),
    3: TableDef(
        title="L2-supercloseness of elliptic projections, 1-D nearby grids (gamma=1)",
        configs=(_cfg(1, 1, STIFFNESS, SINGLE_1D, "sin_pi", 6, (L2,)),
                 _cfg(1, 2, STIFFNESS, SINGLE_1D, "sin_pi", 6, (L2,))),
        columns=(("affine", 0, L2), ("quadratic", 1, L2)),
        reference={"affine": (3.4546e-03, 6.1937e-04, 1.1019e-04, 1.9537e-05,
                              3.4587e-06, 6.1186e-07),
                   "quadratic": (1.7770e-04, 1.5493e-05, 1.3576e-06, 1.1943e-07,
                                 1.0530e-08, 9.2955e-10)},
        value_checks={"affine": 0.01, "quadratic": 0.01},
        order_checks={"affine": (2.50, 0.02), "quadratic": (3.50, 0.03)}),
    4: TableDef(
        title="L2-supercloseness of L2-projections, 2-D single perturbed node (gamma=2)",
        configs=(_cfg(2, 1, MASS, SINGLE_2D, "sin_pi_2d", 5, (L2,)),),
        columns=(("affine", 0, L2),),
        reference={"affine": (6.3533e-03, 7.5614e-04, 8.8718e-05, 1.1020e-05,
                              1.3781e-06)},
        value_checks={"affine": 0.02},
        order_checks={"affine": (3.00, 0.05)}),
    5: TableDef(
        title="H1/L2-supercloseness of elliptic projections, 2-D single perturbed "
              "node (gamma=2)",
        configs=(_cfg(2, 1, STIFFNESS, SINGLE_2D, "sin_pi_2d", 5, (H1, L2)),),
        columns=(("H1", 0, H1), ("L2", 0, L2)),
        reference={"H1": (2.1441e-01, 4.7374e-02, 1.1359e-02, 2.8114e-03,
                          7.0176e-04),
                   "L2": (6.6386e-03, 7.8678e-04, 9.6370e-05, 1.2033e-05,
                          1.5106e-06)},
        order_checks={"H1": (2.00, 0.05), "L2": (2.99, 0.05)}),
    6: TableDef(
        title="Supercloseness with a perturbed boundary band, 2-D (gamma=1)",
        configs=(_cfg(2, 1, MASS, BAND_2D, "sin_pi_2d", 6, (L2,)),
                 _cfg(2, 1, STIFFNESS, BAND_2D, "sin_pi_2d", 6, (H1, L2))),
        columns=(("L2proj-L2", 0, L2), ("elliptic-H1", 1, H1),
                 ("elliptic-L2", 1, L2)),
        reference={"L2proj-L2": (2.2504e-02, 4.8445e-03, 1.0019e-03, 1.9159e-04,
                                 3.5132e-05, 6.3195e-06),
                   "elliptic-H1": (5.4318e-01, 2.8504e-01, 1.2522e-01, 4.8674e-02,
                                   1.7931e-02, 6.4595e-03),
                   "elliptic-L2": (1.9864e-02, 4.8794e-03, 1.0528e-03, 1.9842e-04,
                                   3.5671e-05, 6.3290e-06)},
        order_checks={"L2proj-L2": (2.475, 0.05), "elliptic-H1": (1.473, 0.05),
                      "elliptic-L2": (2.495, 0.05)}),
}


def run_table(table_id):
    """Run the embedded configuration of one reference table."""
    if table_id not in TABLES:
        raise InvalidArgumentError(f"table id must be one of {sorted(TABLES)}")
    definition = TABLES[table_id]
    results = run_projection_study(*definition.configs)
    columns = [(label, results[ci], spec) for label, ci, spec in definition.columns]
    scale, note = ((STORED_2D_NORM_FACTOR,
                    " x sqrt(2) (stored 2-D values are exact norm / sqrt(2))")
                   if definition.configs[0].dimension == 2 else (1.0, ""))
    checks = []
    for label, result, spec in columns:
        if label in definition.value_checks:
            rtol = definition.value_checks[label]
            worst = max(abs(row.norm_values[spec] / (ref * scale) - 1.0)
                        for row, ref in zip(result.rows, definition.reference[label]))
            checks.append((f"{label}: all values within {rtol:.1%} of reference{note}",
                           worst <= rtol, f"worst relative deviation {worst:.2%}"))
        if label in definition.order_checks:
            expected, tol = definition.order_checks[label]
            final_order = result.rows[-1].orders.get(spec)
            ok = final_order is not None and abs(final_order - expected) <= tol
            checks.append((f"{label}: final order {expected} +/- {tol}", ok,
                           f"measured {final_order:.4f}"))
    return _report(definition.title, columns, checks)


def _format_table(report):
    """Title, header, one line per level, predicted orders, notes and checks."""
    head = ["h0/h".rjust(6)] + [f"{label:>12}  {'order':>8}" for label in report.labels]
    lines = [report.title, "  ".join(head)]
    for row in report.rows:
        cells = [f"{int(row['h_ratio'])}".rjust(6)]
        for label in report.labels:
            cells.append(f"{row[label]:.4e}".rjust(12))
            o = row[label + ":order"]
            cells.append(("-" if o is None else f"{o:.4f}").rjust(8))
        lines.append("  ".join(cells))
    pred = ", ".join(f"{label}: {_number(p, '.4f')}"
                     for label, p in report.predictions.items())
    lines.append(f"predicted orders: {pred}")
    lines += report.notes
    if report.checks:
        lines.append("")
        lines += [f"[{'PASS' if ok else 'FAIL'}] {desc} ({detail})"
                  for desc, ok, detail in report.checks]
    return "\n".join(lines)


@contextlib.contextmanager
def _open_csv(args):
    """The --csv file, opened before the run so that an unwritable path fails
    at once.  Appending leaves an existing file as it was until the report is
    written; a file that the open created is removed if the run fails."""
    if not args.csv:
        yield None
        return
    try:
        fh, created = open(args.csv, "x", newline="\n"), True
    except FileExistsError:
        fh, created = open(args.csv, "a", newline="\n"), False
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(args.csv)
        raise


def _write_csv(report, fh):
    fh.truncate(0)
    head = ["level", "h_ratio"]
    for label in report.labels:
        head += [label, label + "_order"]
    fh.write(",".join(head) + "\n")
    for row in report.rows:
        cells = [str(row["level"]), f"{row['h_ratio']:.17g}"]
        for label in report.labels:
            cells.append(f"{row[label]:.17g}")
            o = row[label + ":order"]
            cells.append("" if o is None else f"{o:.17g}")
        fh.write(",".join(cells) + "\n")


def _emit(report, args, csv):
    if not args.quiet:
        print(_format_table(report))
    if csv is not None:
        _write_csv(report, csv)


def cmd_table(args):
    with _open_csv(args) as csv:
        report = run_table(args.id)
        _emit(report, args, csv)
    return 0 if all(ok for _, ok, _ in report.checks) else 1


# ---------------------------------------------------------------------------
# flat key = value study configs

_CONFIG_KEYS = {"dimension", "degree", "form", "kappa", "velocity", "perturbation",
                "point", "fraction", "u", "n0", "levels", "norms", "delta"}
# rate inputs that the perturbation, u and the form fix
_DERIVED_KEYS = {"gamma", "eta", "mu", "nu"}
# key -> (other key, the value of it that the key applies to)
_APPLIES_ONLY_TO = {"kappa": ("form", "adr"), "velocity": ("form", "adr"),
                    "point": ("perturbation", "single-node")}


def _floats(text, count=None):
    values = tuple(float(t) for t in text.split(","))
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} components, got {len(values)}")
    return values


def _dimension(text):
    if int(text) not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    return int(text)


def _function_name(text):
    named_function(text)   # validate early
    return text


def _norms(text):
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        if part not in ("0:2", "1:2"):
            raise ValueError(f"norm {part!r} not of the form s:2 with s in {{0,1}}")
    return tuple(NormSpec(int(part[0]), 2) for part in parts)


def parse_study_config(path):
    raw = {}                    # key -> (value text, line)

    def fail(problem, key=None, line=None):
        """Raise a ConfigError at `line`, or else at the line that sets `key`."""
        if line is None and key in raw:
            line = raw[key][1]
        raise ConfigError(f"{path}{'' if line is None else f':{line}'}: {problem}",
                          key=key, line=line)

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        fail(f"not UTF-8 text: {exc.reason}", line=data.count(b"\n", 0, exc.start) + 1)
    # newline=None reads the lines as a text-mode file does
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            fail("expected 'key = value'", line=lineno)
        key, value = (t.strip() for t in stripped.split("=", 1))
        if key in _DERIVED_KEYS:
            fail(f"{key!r} is derived from the config; try other values with "
                 f"'nearproj predict'", key, lineno)
        if key not in _CONFIG_KEYS:
            fail(f"unknown key {key!r}", key, lineno)
        if key in raw:
            fail(f"{key!r} is set twice, first at line {raw[key][1]}", key, lineno)
        raw[key] = (value, lineno)

    def get(key, convert=str, default=None, required=False):
        """`convert` of the value of `key`, or `default` if the file has none."""
        if key not in raw:
            if required:
                fail(f"missing required key {key!r}", key)
            return default
        if key in _APPLIES_ONLY_TO:
            other, value = _APPLIES_ONLY_TO[key]
            if raw[other][0] != value:
                fail(f"{key!r} applies only to {other} = {value}", key)
        try:
            return convert(raw[key][0])
        except (ValueError, InvalidArgumentError) as exc:
            fail(f"bad value for {key!r}: {exc}", key)

    dimension = get("dimension", _dimension, required=True)

    def coordinates(text):
        return _floats(text, dimension)

    def point(text):
        # checked here, so a non-finite point is named at its own line
        values = coordinates(text)
        finite_point(values)
        return values

    degree = get("degree", int, required=True)
    levels = get("levels", int, required=True)
    n0 = get("n0", int)
    u = get("u", _function_name, required=True)
    kind = get("form", required=True)
    forms = {"mass": MASS, "stiffness": STIFFNESS, "adr": BilinearFormSpec("adr")}
    if kind not in forms:
        fail(f"unknown form {kind!r}", "form")
    form = forms[kind]
    # delta: a_h^+ = a_h + h^delta * mass on mesh b
    for key, convert in (("kappa", float), ("velocity", coordinates), ("delta", float)):
        form = get(key, lambda text: replace(form, **{key: convert(text)}), form)
    try:
        pert = PerturbationSpec(get("perturbation", required=True),
                                point=get("point", point),
                                fraction=get("fraction", float, 0.25))
        pert.check_dimension(dimension)
    except InvalidArgumentError as exc:
        fail(str(exc), "perturbation")
    norms = get("norms", _norms, (NormSpec(0, 2),))
    try:
        return StudyConfig(dimension=dimension, degree=degree, form=form,
                           perturbation=pert, u=u, levels=levels, n0=n0, norms=norms)
    except InvalidArgumentError as exc:
        fail(str(exc))


def cmd_study(args):
    cfg = parse_study_config(args.config)
    ri = cfg.rate_inputs
    notes = [f"predicted sigma = {_number(predicted_sigma(ri), '.4g')}"]
    if ri.s == 1:
        notes.append(f"predicted sigma' = {_number(predicted_sigma_prime(ri), '.4g')}")
    with _open_csv(args) as csv:
        result, = run_projection_study(cfg)
        columns = [(f"norm_{spec.s}_2", result, spec) for spec in cfg.norms]
        _emit(_report(f"study {args.config}", columns, notes=notes), args, csv)
    return 0


def cmd_predict(args):
    ri = RateInputs(gamma=args.gamma, eta=args.eta, delta=args.delta,
                    mu=args.mu, nu=args.nu, s=args.s, r=args.r)
    if (args.q is None) != (args.d is None):
        raise InvalidArgumentError("--q and -d go together; "
                                   f"{'-d' if args.d is None else '--q'} is missing")
    if args.q is not None and not q_restriction_ok(args.d, args.nu, args.q):
        raise InvalidArgumentError(f"q={args.q} violates the embedding restriction "
                                   f"for d={args.d}, nu={args.nu}")
    print(f"sigma  = {_number(predicted_sigma(ri), '.6g')}")
    print("predicted H^s order (r - s + sigma) = "
          f"{_number(predicted_order_for_norm(NormSpec(ri.s, 2), ri), '.6g')}")
    if ri.s == 1:
        print(f"sigma' = {_number(predicted_sigma_prime(ri), '.6g')}")
        print("predicted L2 order (r + sigma') = "
              f"{_number(predicted_order_for_norm(L2, ri), '.6g')}")
    return 0


def cmd_regularity(args):
    result = run_regularity_study(args.p, args.levels)
    columns = [("L2" if spec.s == 0 else "H1", result, spec)
               for spec in result.config.norms]
    print(_format_table(_report(
        f"interpolant supercloseness for u(x) = x^(2-1/p) - x, p = {args.p!r}", columns)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nearproj",
        description="Supercloseness studies of projections onto nearby FE spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="reproduce an embedded reference table")
    p.add_argument("id", type=int)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("study", help="run a study from a key=value config file")
    p.add_argument("config")
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("predict", help="closed-form superconvergence orders")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mu", type=int, default=0)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("-d", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("regularity", help="low-regularity counterexample rates")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--levels", type=int, default=8)
    p.set_defaults(func=cmd_regularity)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NearprojError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
