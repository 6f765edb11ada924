"""Supercloseness of finite element projections onto nearby meshes."""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateMeshError, GeometryError,
                     InvalidArgumentError, NearprojError, OutOfDomainError)
from .forms import MASS, STIFFNESS, BilinearFormSpec, FunctionSpec, \
    assemble_load, assemble_matrix
from .mesh import (Mesh, MeshPair, build_uniform_interval, build_uniform_square,
                   classify_pair, perturb_boundary_band, perturb_node_nearest)
from .norms import (CrossMeshDiff, NormSpec, cross_mesh_norm, fe_norm,
                    sobolev_norm_exact_diff, support_measure)
from .projection import project, project_pair
from .quadrature import QuadratureRule, quadrature_rule
from .space import (FeFunction, FeSpace, build_space, derived_space, evaluate,
                    interpolate_nodal, intersection_project)
from .study import (PerturbationSpec, StudyConfig, StudyResult, StudyRow,
                    named_function, power_regularity, run_projection_study,
                    run_regularity_study)
from .theory import (RateInputs, observed_orders, predicted_sigma,
                     predicted_sigma_prime, q_restriction_ok)

__all__ = [name for name in dir() if not name.startswith("_")]
