"""Refinement studies: build one mesh pair per level, project, measure, rate.
The configs of one study share that pair, as the columns of a table do.

Perturbation displacements are re-derived at every level as fraction * h, so
the differing-region scaling gamma is well defined across a family.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .forms import STIFFNESS, ZERO, BilinearFormSpec, FunctionSpec
from .mesh import (build_uniform_interval, build_uniform_square, classify_pair,
                   finite_point, perturb_boundary_band, perturb_node_nearest)
from .norms import CrossMeshDiff, NormSpec, cross_mesh_norm, sobolev_norm_exact_diff
# the benchmark's tracer times the pair projection as `study.project`
from .projection import project_pair as project
from .space import build_space, derived_space
from .theory import RateInputs, observed_orders, predicted_sigma, predicted_sigma_prime

SQRT2 = math.sqrt(2.0)

# Largest number of free DOFs, (degree n - 1)^dimension, that a study may ask
# for at its finest level n = n0 2^(levels - 1); the 2-D P2 level n = 256
# (261,121 DOFs) fits.
MAX_FREE_DOFS = 2 ** 18


def _sin_pi():
    pi = np.pi
    return FunctionSpec(
        value=lambda x: np.sin(pi * x[:, 0]),
        gradient=lambda x: pi * np.cos(pi * x[:, 0])[:, None],
        name="sin_pi", dimension=1)


def _sin_pi_2d():
    pi = np.pi

    def grad(x):
        sx, cx = np.sin(pi * x[:, 0]), np.cos(pi * x[:, 0])
        sy, cy = np.sin(pi * x[:, 1]), np.cos(pi * x[:, 1])
        return pi * np.column_stack([cx * sy, sx * cy])

    return FunctionSpec(
        value=lambda x: np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1]),
        gradient=grad,
        name="sin_pi_2d", dimension=2)


def power_regularity(p):
    """u(x) = x^(2-1/p) - x on [0,1]; in W^{2,q} only for q < p."""
    if not p > 2:   # also rejects nan
        raise InvalidArgumentError("regularity exponent p must exceed 2")
    a = 2.0 - 1.0 / p
    return FunctionSpec(
        value=lambda x: x[:, 0] ** a - x[:, 0],
        gradient=lambda x: (a * x[:, 0] ** (a - 1.0) - 1.0)[:, None],
        name=f"power_p{p:g}", dimension=1, regularity=(2, p))


FUNCTIONS = {
    "sin_pi": _sin_pi(),
    "sin_pi_2d": _sin_pi_2d(),
    "bump_quadratic": FunctionSpec(
        value=lambda x: x[:, 0] * (1.0 - x[:, 0]),
        gradient=lambda x: (1.0 - 2.0 * x[:, 0])[:, None],
        name="bump_quadratic", dimension=1),
    "zero": ZERO,
}


def named_function(name):
    if name in FUNCTIONS:
        return FUNCTIONS[name]
    if name.startswith("power_p"):
        try:
            p = float(name[len("power_p"):])
        except ValueError:
            raise InvalidArgumentError(f"unknown function {name!r}") from None
        return power_regularity(p)
    raise InvalidArgumentError(f"unknown function {name!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Node-displacement recipe applied at every level with displacement fraction*h."""

    kind: str                     # single-node | boundary-band | shifted-second-node
    point: tuple = None
    fraction: float = 0.25

    def __post_init__(self):
        if self.kind not in ("single-node", "boundary-band", "shifted-second-node"):
            raise InvalidArgumentError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "single-node" and self.point is None:
            raise InvalidArgumentError("single-node perturbation requires a point")
        if self.kind != "single-node" and self.point is not None:
            raise InvalidArgumentError(f"a point applies only to a single-node "
                                       f"perturbation, not to {self.kind}")
        if self.point is not None:
            finite_point(self.point)
        if not math.isfinite(self.fraction):
            raise InvalidArgumentError(f"fraction must be finite, got {self.fraction}")

    def apply(self, mesh):
        h = mesh.h
        if self.kind == "single-node":
            disp = np.zeros(mesh.dimension)
            disp[0] = self.fraction * h
            return perturb_node_nearest(mesh, self.point, disp)
        if self.kind == "boundary-band":
            return perturb_boundary_band(mesh, h / SQRT2,
                                         np.array([self.fraction * h, 0.0]))
        # shifted-second-node: node nearest x = h moves by fraction*h
        return perturb_node_nearest(mesh, (h,), (self.fraction * h,))

    def gamma(self, dimension):
        """Scaling of the differing region's measure; inf: identical meshes."""
        if self.fraction == 0:
            return math.inf
        return float(dimension) if self.kind == "single-node" else 1.0

    def check_dimension(self, dimension):
        """Reject a kind or a point that does not fit a mesh of `dimension`."""
        only = {"boundary-band": 2, "shifted-second-node": 1}.get(self.kind, dimension)
        if dimension != only:
            raise InvalidArgumentError(f"perturbation {self.kind!r} is defined only "
                                       f"in dimension {only}")
        if self.kind == "single-node" and len(self.point) != dimension:
            raise InvalidArgumentError(f"point {self.point} has {len(self.point)} "
                                       f"coordinates in dimension {dimension}")


@dataclass(frozen=True)
class StudyConfig:
    dimension: int
    degree: int
    form: BilinearFormSpec
    perturbation: PerturbationSpec
    u: str
    levels: int
    n0: int = None
    norms: tuple = (NormSpec(0, 2),)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidArgumentError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.degree not in (1, 2):
            raise InvalidArgumentError(f"degree must be 1 or 2, got {self.degree}")
        self.perturbation.check_dimension(self.dimension)
        if named_function(self.u).dimension not in (None, self.dimension):
            raise InvalidArgumentError(
                f"function {self.u!r} is not defined in dimension {self.dimension}")
        if self.levels < 2:
            raise InvalidArgumentError("levels must be >= 2")
        if len(set(self.norms)) < len(self.norms):
            raise InvalidArgumentError(f"each norm may be listed once, got {self.norms}")
        n0 = self.n0 if self.n0 is not None else (8 if self.dimension == 1 else 4)
        object.__setattr__(self, "n0", n0)
        if n0 < 2:
            raise InvalidArgumentError("n0 must be >= 2")
        # past 64 levels the count is far over any budget; skip the huge integer
        n = n0 * 2 ** (self.levels - 1) if self.levels <= 64 else math.inf
        free_dofs = (self.degree * n - 1) ** self.dimension
        if free_dofs > MAX_FREE_DOFS:
            raise InvalidArgumentError(
                f"n0 = {n0} and levels = {self.levels} ask for {free_dofs} free DOFs "
                f"at the finest level, above the budget of {MAX_FREE_DOFS}")
        self.rate_inputs   # check the derived inputs before any level runs

    @property
    def rate_inputs(self):
        """The paper's rate inputs as the run fixes them: gamma from the
        perturbation, (k, eta) from u, delta from the form, mu = nu = 0 (the
        perturbation of a form is a mass term) and r = min(degree + 1, k)."""
        k, eta = named_function(self.u).regularity
        return RateInputs(gamma=self.perturbation.gamma(self.dimension), eta=eta,
                          delta=self.form.delta, s=self.form.s, r=min(self.degree + 1, k))


@dataclass(frozen=True)
class StudyRow:
    level: int
    h: float
    h_ratio: float
    norm_values: dict
    orders: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    rows: tuple
    predicted_orders: dict
    flags: tuple = ()           # (NormSpec, what was seen in its values)


def predicted_order_for_norm(spec, rate_inputs):
    """Expected convergence order of the cross-mesh norm for one NormSpec
    (None: no prediction applies)."""
    s_form, r = rate_inputs.s, rate_inputs.r
    if spec.s == s_form:
        sigma = predicted_sigma(rate_inputs)
        return None if sigma is None else r - s_form + sigma
    if spec.s == 0 and s_form == 1:
        sigma = predicted_sigma_prime(rate_inputs)
        return None if sigma is None else r + sigma
    return None


def _pair(cfg, level):
    """Mesh a at one refinement level, its perturbed copy, and their pair."""
    n = cfg.n0 * 2 ** level
    build = build_uniform_interval if cfg.dimension == 1 else build_uniform_square
    mesh_a = build(n)
    mesh_b = cfg.perturbation.apply(mesh_a)
    return classify_pair(mesh_a, mesh_b, cfg.perturbation.gamma(cfg.dimension))


def _spaces(pair, degree):
    """Mesh a's space of `degree`, and mesh b's, derived from it."""
    space_a = build_space(pair.mesh_a, degree, dirichlet=True)
    return space_a, derived_space(space_a, pair)


def build_level(cfg, level):
    """Mesh pair, spaces, and the two projections at one refinement level."""
    pair = _pair(cfg, level)
    return (pair, *project(*_spaces(pair, cfg.degree), cfg.form, named_function(cfg.u)))


def run_projection_study(*cfgs):
    """One StudyResult per config, in order: rows of (h, cross-mesh norms,
    observed orders) plus theory predictions.  The configs share one pair
    family, so each level builds one mesh pair, one pair of spaces per
    degree, and projects every config onto them."""
    if len({(c.dimension, c.n0, c.levels, c.perturbation) for c in cfgs}) != 1:
        raise InvalidArgumentError("a study runs one or more configs that share "
                                   "dimension, n0, levels and perturbation")
    rows = [[] for _ in cfgs]       # by position: two equal configs stay apart
    for level in range(cfgs[0].levels):
        pair = _pair(cfgs[0], level)
        h = pair.mesh_a.h
        spaces = {degree: _spaces(pair, degree) for degree in {c.degree for c in cfgs}}
        for cfg, cfg_rows in zip(cfgs, rows):
            u = named_function(cfg.u)
            diff = CrossMeshDiff(*project(*spaces[cfg.degree], cfg.form, u), pair)
            norm_values = {spec: cross_mesh_norm(diff, spec) for spec in cfg.norms}
            del diff    # free this config's projections before the next config projects
            last = cfg_rows[-1] if cfg_rows else None
            orders = {spec: float(observed_orders([last.h, h], [last.norm_values[spec], v])[0])
                      for spec, v in norm_values.items()
                      if last and min(last.norm_values[spec], v) > 0}
            cfg_rows.append(StudyRow(level, h, float(2 ** level), norm_values, orders))
    return tuple(_result(cfg, tuple(cfg_rows)) for cfg, cfg_rows in zip(cfgs, rows))


def _result(cfg, rows):
    """The StudyResult of one config's rows: its flags and predicted orders."""
    values = {spec: [row.norm_values[spec] for row in rows] for spec in cfg.norms}
    # a column of exact zeros (identical meshes) does not rise
    flags = tuple((spec, "non-monotone norm values") for spec, vals in values.items()
                  if any(b > a or b == a != 0 for a, b in zip(vals, vals[1:])))
    return StudyResult(cfg, rows, {spec: predicted_order_for_norm(spec, cfg.rate_inputs)
                                   for spec in cfg.norms}, flags)


def run_regularity_study(p, levels):
    """Interpolant supercloseness for u of limited regularity (grid with the
    second node shifted to 3h/2, n0 = 8); with eta = p the predicted L2/H1
    orders are 5/2 - 1/p and 3/2 - 1/p."""
    result, = run_projection_study(StudyConfig(
        dimension=1, degree=1, form=STIFFNESS,
        perturbation=PerturbationSpec("shifted-second-node", fraction=0.5),
        u=f"power_p{float(p)!r}", levels=levels,
        norms=(NormSpec(0, 2), NormSpec(1, 2))))
    return result


def naive_bound_check(cfg, level):
    """Triangle-inequality sanity: cross norm <= ||f_a - u|| + ||u - f_b||."""
    pair, f_a, f_b = build_level(cfg, level)
    u = named_function(cfg.u)
    out = {}
    for spec in cfg.norms:
        cross = cross_mesh_norm(CrossMeshDiff(f_a, f_b, pair), spec)
        bound = (sobolev_norm_exact_diff(f_a, u, spec)
                 + sobolev_norm_exact_diff(f_b, u, spec))
        out[spec] = (cross, bound)
    return out
