"""Constrained variational integrators for accelerated optimization on
embedded Riemannian manifolds (unit sphere, Stiefel), with benchmark
problems, independent oracles and an empirical order-of-accuracy harness."""

from .bregman import (
    BregmanParams,
    ExtendedState,
    hamiltonian_adaptive,
    hamiltonian_direct,
    hamiltonian_partials,
)
from .dynamics import (
    MidpointLagrangian,
    NewtonConfig,
    constrained_lagrangian_map,
    newton_solve,
    order_check,
    project_momentum,
)
from .manifolds import EmbeddedManifold, Sphere, Stiefel
from .optimizers import RunConfig, Trace, el_step, htvi_step, rgd_step, run
from .problems import (
    ProblemSpec,
    brockett,
    load_matrix,
    make_instance,
    procrustes,
    rayleigh,
)

__all__ = [
    "BregmanParams",
    "EmbeddedManifold",
    "ExtendedState",
    "MidpointLagrangian",
    "NewtonConfig",
    "ProblemSpec",
    "RunConfig",
    "Sphere",
    "Stiefel",
    "Trace",
    "brockett",
    "constrained_lagrangian_map",
    "el_step",
    "hamiltonian_adaptive",
    "hamiltonian_direct",
    "hamiltonian_partials",
    "htvi_step",
    "load_matrix",
    "make_instance",
    "newton_solve",
    "order_check",
    "procrustes",
    "project_momentum",
    "rayleigh",
    "rgd_step",
    "run",
]

__version__ = "0.1.0"
