"""One benchmark workload, run in a fresh process by `run.py`.

    python3 benchmarks/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR
    python3 benchmarks/workload.py --setup-only

The process repeats whole rounds of the workload's operations until one more
round would end after S seconds (at least one round).  Each operation is
timed alone; its outputs are checked afterwards, outside the timed region.
The result goes to DIR/result_<NAME>.json; with --trace 1 the spans go to
DIR/trace_<NAME>.json.  With --setup-only the process prints the monotonic
clock once its imports are done, and exits.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import nearproj
from nearproj import cli, norms, projection, space, study
from nearproj.forms import STIFFNESS

import checks
from spans import Tracer

IMPORTS_DONE = time.monotonic()

L2 = norms.NormSpec(0, 2)
H1 = norms.NormSpec(1, 2)
SIN_2D = "sin_pi_2d"
REGULARITY_P = 3


class Operation:
    """`run()` is timed; `check(output)` returns problems and is not timed."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class Failed(Exception):
    """The program reported an error for an operation (CLI exit status 2)."""


# -- tables ------------------------------------------------------------------

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status == 2:
        raise Failed(err.getvalue().strip())
    return status, out.getvalue()


def _table_op(table_id, out_dir):
    path = os.path.join(out_dir, f"table_{table_id}.csv")

    def run():
        if os.path.exists(path):
            os.remove(path)
        return _cli(["table", str(table_id), "--csv", path, "--quiet"])

    def check(output):
        status, _ = output
        if status != 0:
            return [f"nearproj table {table_id} exited {status}: a golden check failed"]
        return checks.check_table_csv(path, table_id)

    return Operation(f"table {table_id}", run, check)


def tables(seed, out_dir):
    """Tables 1-6 and the regularity counterexample through the CLI; the
    inputs are the paper's fixed configurations, so `seed` is not used."""
    ops = [_table_op(t, out_dir) for t in range(1, 7)]
    argv = ["regularity", "--p", str(REGULARITY_P), "--levels", "9"]
    ops.append(Operation(
        "regularity", lambda: _cli(argv),
        lambda output: checks.check_regularity_output(output[1], REGULARITY_P)))
    return ops, lambda outputs: []


# -- node_p2 -----------------------------------------------------------------

NODE_P2_N0 = 16
NODE_P2_LEVELS = 4


def perturbed_node(seed):
    """A node of the coarsest mesh in [1/8, 3/8]^2, picked by the seed.

    The box keeps two coarse cells from the boundary and from the lines
    x = 1/2 and y = 1/2.  At (1/2, 1/2) every third derivative of u vanishes
    and the L2 order is 5, not 4; near those lines and near the boundary the
    H1 order between n = 32 and 64 is still up to 0.23 above 3 (3.225 at
    (15/16, 1/16)).  All 25 nodes of the box pass every check of this
    workload at n = 16 .. 128.
    """
    i, j = np.random.default_rng(seed).integers(2, 7, size=2)
    return (float(i) / NODE_P2_N0, float(j) / NODE_P2_N0)


def node_p2(seed, out_dir):
    """P2 elliptic projections on a single-node pair (gamma = 2) at
    n = 16 .. 128, the node picked by `seed`."""
    cfg = study.StudyConfig(
        dimension=2, degree=2, form=STIFFNESS,
        perturbation=study.PerturbationSpec("single-node", point=perturbed_node(seed),
                                            fraction=0.25),
        u=SIN_2D, levels=NODE_P2_LEVELS, n0=NODE_P2_N0, norms=(H1, L2))
    u = study.named_function(SIN_2D)

    def level(k):
        pair, f_a, f_b = study.build_level(cfg, k)
        diff = norms.CrossMeshDiff(f_a, f_b, pair)
        out = {"cross_h1": norms.cross_mesh_norm(diff, H1),
               "cross_l2": norms.cross_mesh_norm(diff, L2),
               "error_h1": norms.sobolev_norm_exact_diff(f_a, u, H1),
               "error_l2": norms.sobolev_norm_exact_diff(f_a, u, L2)}
        out["intersection"] = (pair, space.intersection_project(pair, f_a, f_b.space),
                               f_b.space)
        return out

    checked = {}        # level -> intersection coefficients of the first round

    def check_level(k, out):
        pair, g_a, space_b = out.pop("intersection")
        if k in checked:
            # Later rounds must repeat the checked first round exactly; this
            # keeps the check's extra cross-mesh norm out of every round.
            if np.array_equal(g_a.coeffs, checked[k]):
                return []
            return [f"node_p2 level {k}: the intersection projection differs "
                    f"from the first round's"]
        checked[k] = g_a.coeffs.copy()
        moved = checks.coefficients_by_coordinate(
            g_a.space.dof_coords, g_a.coeffs, space_b.dof_coords, cfg.n0 * 2 ** k)
        g_b = space.FeFunction(space_b, moved)
        gap = norms.cross_mesh_norm(norms.CrossMeshDiff(g_a, g_b, pair), H1)
        return checks.check_intersection_gap(f"node_p2 level {k}", gap,
                                             norms.fe_norm(g_a, H1))

    ops = [Operation(f"n={cfg.n0 * 2 ** k}", lambda k=k: level(k),
                     lambda out, k=k: check_level(k, out))
           for k in range(cfg.levels)]

    def finish(outputs):
        problems = []
        for norm, predicted in (("h1", checks.NODE_P2_H1_ORDER),
                                ("l2", checks.NODE_P2_L2_ORDER)):
            cross = [o["cross_" + norm] for o in outputs]
            ratio = [o["cross_" + norm] / o["error_" + norm] for o in outputs]
            problems += checks.check_orders(f"node_p2 {norm}", cross, predicted, 0.05)
            problems += checks.check_falling(f"node_p2 {norm} cross/error", ratio)
        return problems

    return ops, finish


WORKLOADS = {"tables": tables, "node_p2": node_p2}


# -- tracing -----------------------------------------------------------------

# Span name -> per-layer metric of its self time.  Spans that one of the two
# workloads never enters share a metric with a span of the same layer that
# both enter, so that no time metric reads exactly 0 on every run of a
# workload; the spans themselves stay apart in trace_<NAME>.json.
LAYER_METRICS = {
    "mesh.build": "mesh.build_s",
    "mesh.perturb": "mesh.perturb_s",
    "mesh.classify_pair": "mesh.classify_pair_s",
    "space.build_space": "space.self_s",
    "space.intersection_project": "space.self_s",     # node_p2 only
    "forms.assemble_matrix": "forms.assemble_matrix_s",
    "forms.assemble_load": "forms.assemble_load_s",
    "projection.solve": "projection.solve_s",
    "norms.cross_mesh_norm": "norms.self_s",
    "norms.error_norm": "norms.self_s",               # node_p2 only
    "norms.shared_pass": "norms.shared_pass_s",
    "study": "study.self_s",
    "cli": "study.self_s",                            # tables only
    "bench": "bench.self_s",
}
COUNT_METRICS = ("mesh.elements", "mesh.differing_elements", "space.free_dofs",
                 "norms.fragment_evals")


def _count_pair(tracer, real, args, pair):
    tracer.counts["mesh.elements"] += pair.mesh_a.n_elements
    tracer.counts["mesh.differing_elements"] += int(pair.differing_elements_a().size)


def _count_space(tracer, real, args, fe_space):
    tracer.counts["space.free_dofs"] += fe_space.n_free


def _shared_pass(tracer, real, args, result):
    """Time the shared-element pass of a full cross-mesh norm by calling it
    again restricted to the shared elements of the first mesh; the fragment
    pass is the full call's time minus this.  Building the region is the
    benchmark's own work."""
    diff, spec = args
    if spec.region is not None:
        return
    with tracer.span("bench"):
        region = frozenset(i for i, _ in diff.pair.shared_elements)
    with tracer.span("norms.shared_pass"):
        real(diff, norms.NormSpec(spec.s, spec.eta, region=region))


def _fragment_eval(tracer, args):
    """A single-element evaluation inside a full cross-mesh norm is one
    fragment (1-D interval or 2-D fan triangle) evaluated on one mesh."""
    return tracer.current() == "norms.cross_mesh_norm" and len(args[2]) == 1


def install_tracer():
    """Wrap the program's public functions at the names it calls them by."""
    t = Tracer()
    for name, span in (("build_uniform_interval", "mesh.build"),
                       ("build_uniform_square", "mesh.build"),
                       ("perturb_node_nearest", "mesh.perturb"),
                       ("perturb_boundary_band", "mesh.perturb"),
                       ("build_level", "study"),
                       ("run_projection_study", "study")):
        t.wrap(study, name, span)
    t.wrap(study, "classify_pair", "mesh.classify_pair", after=_count_pair)
    t.wrap(study, "build_space", "space.build_space", after=_count_space)
    t.wrap(study, "project", "projection.solve")
    t.wrap(projection, "assemble_matrix", "forms.assemble_matrix")
    t.wrap(projection, "assemble_load", "forms.assemble_load")
    for module in (study, norms):
        t.wrap(module, "cross_mesh_norm", "norms.cross_mesh_norm", after=_shared_pass)
        t.wrap(module, "sobolev_norm_exact_diff", "norms.error_norm")
    t.count_calls(norms, "eval_at_physical", "norms.fragment_evals", _fragment_eval)
    t.wrap(space, "intersection_project", "space.intersection_project")
    t.wrap(cli, "main", "cli")
    t.wrap(cli, "run_projection_study", "study")
    t.wrap(cli, "run_regularity_study", "study")
    return t


def traced_round_metrics(tracer, mark, wall):
    """Per-layer self times and counts of one round.  Their sum plus
    `trace.untraced_s` is the round's wall time by construction, so what is
    checked is that the spans nest: no self time below zero, and the root
    spans inside the separately timed operations."""
    self_times, roots, counts = tracer.since(mark)
    metrics = dict.fromkeys(LAYER_METRICS.values(), 0.0)
    for span, metric in LAYER_METRICS.items():
        metrics[metric] += self_times.get(span, 0.0)
    metrics["norms.fragment_pass_s"] = (self_times.get("norms.cross_mesh_norm", 0.0)
                                        - metrics["norms.shared_pass_s"])
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_s"] = wall - roots
    negative = {name: t for name, t in self_times.items() if t < -1e-9}
    if negative or not 0.0 <= metrics["trace.untraced_s"] <= wall:
        raise AssertionError(f"spans do not nest: self times {negative}, root spans "
                             f"{roots:.6f} s in operations timed at {wall:.6f} s")
    return metrics, {c: counts.get(c, 0) for c in COUNT_METRICS}


# -- the run -----------------------------------------------------------------

def run(workload, seed, seconds, tracer, out_dir):
    ops, finish = WORKLOADS[workload](seed, out_dir)
    rounds, problems, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        mark = tracer.mark() if tracer else None
        op_s, outputs, peak_rss_mb = [], [], 0.0
        for op in ops:
            attempted += 1
            span = contextlib.nullcontext()
            if tracer:
                tracer.active = True
                span = tracer.span("bench")
            t0 = time.perf_counter()
            try:
                with span:
                    output = op.run()
            except Failed as exc:
                output = exc
            except Exception:                   # keep going; report it
                output = traceback.format_exc()
            op_s.append(time.perf_counter() - t0)
            # The peak before this operation's checks: the checks' own memory
            # stays out of it, up to the checks of the smaller, earlier levels.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                tracer.active = False           # checks are not traced
            if isinstance(output, (Failed, str)):
                failed += 1
                failures.append(f"{op.name}: {output}")
                outputs.append(None)
                continue
            problems += op.check(output)
            outputs.append(output)
        if all(o is not None for o in outputs):
            problems += finish(outputs)
        wall = sum(op_s)
        record = {"wall_s": wall, "peak_rss_mb": peak_rss_mb}
        if tracer:
            record["layers"], record["counts"] = traced_round_metrics(tracer, mark, wall)
        rounds.append(record)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {"attempted": attempted, "failed": failed, "rounds": rounds,
            "problems": problems, "failures": sorted(set(failures))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(repr(IMPORTS_DONE))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace, args.out):
        parser.error("--workload, --seed, --seconds, --trace and --out are required")
    os.makedirs(args.out, exist_ok=True)
    tracer = install_tracer() if args.trace else None
    try:
        result = run(args.workload, args.seed, args.seconds, tracer, args.out)
    finally:
        if tracer:
            tracer.restore()
    result["nearproj"] = nearproj.__file__
    if tracer:
        with open(os.path.join(args.out, f"trace_{args.workload}.json"), "w") as fh:
            json.dump({"spans": tracer.dump()}, fh)
    with open(os.path.join(args.out, f"result_{args.workload}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
