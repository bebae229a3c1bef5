"""Constrained variational integrators for accelerated optimization on
embedded Riemannian manifolds (unit sphere, Stiefel), with benchmark
problems, independent oracles and an empirical order-of-accuracy harness."""

from .bregman import (
    BregmanParams,
    ExtendedState,
    compute_zeta,
    hamiltonian_adaptive,
    hamiltonian_direct,
    hamiltonian_partials,
)
from .dynamics import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    MidpointLagrangian,
    NewtonConfig,
    constrained_del_step,
    constrained_lagrangian_map,
    constrained_right_hamilton_step,
    legendre_minus,
    legendre_plus,
    newton_solve,
    order_check,
    project_momentum,
)
from .manifolds import EmbeddedManifold, Euclidean, Sphere, Stiefel, manifold_from_name
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
    "DiscreteHamiltonian",
    "DiscreteLagrangian",
    "EmbeddedManifold",
    "Euclidean",
    "ExtendedState",
    "MidpointLagrangian",
    "NewtonConfig",
    "ProblemSpec",
    "RunConfig",
    "Sphere",
    "Stiefel",
    "Trace",
    "brockett",
    "compute_zeta",
    "constrained_del_step",
    "constrained_lagrangian_map",
    "constrained_right_hamilton_step",
    "el_step",
    "hamiltonian_adaptive",
    "hamiltonian_direct",
    "hamiltonian_partials",
    "htvi_step",
    "legendre_minus",
    "legendre_plus",
    "load_matrix",
    "make_instance",
    "manifold_from_name",
    "newton_solve",
    "order_check",
    "procrustes",
    "project_momentum",
    "rayleigh",
    "rgd_step",
    "run",
]

__version__ = "0.1.0"
