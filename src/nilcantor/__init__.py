"""nilcantor: exact arithmetic for Heisenberg group chains and their towers.

The package computes, in exact integer arithmetic, with

  * supernatural (Steinitz) numbers, their prime spectra, asymptotic
    equivalence and the type order (:mod:`nilcantor.steinitz`),
  * the integer Heisenberg group and its box subgroups, with closed-form
    cores, relative cores, indices, canonical coset representatives and
    the left action on each coset space (:mod:`nilcantor.heisenberg`),
  * symbolic descending chains of box subgroups, their quotient towers
    (every subgroup a box over the core) and Steinitz orders
    (:mod:`nilcantor.towers`),
  * stability / wildness and topological-freeness certificates built from
    trivial-action kernels (:mod:`nilcantor.dynamics`),
  * dumb enumeration oracles that every closed form is validated against
    (:mod:`nilcantor.oracle`),

and exposes a CLI (``nilcantor``) that emits deterministic, exact-integer
reports (:mod:`nilcantor.cli`).
"""

__version__ = "0.1.0"

from .errors import ContractError, ResourceError
from .heisenberg import GAMMA, BoxSubgroup, HeisenbergElement
from .steinitz import INF, PrimeSpectra, SteinitzNumber
from .towers import ChainSpec, builtin_chain
from .dynamics import (
    Certificate,
    KernelReport,
    freeness_certificate,
    trivial_action_kernel,
    wildness_certificate,
)

__all__ = [
    "__version__",
    "ContractError",
    "ResourceError",
    "BoxSubgroup",
    "HeisenbergElement",
    "GAMMA",
    "INF",
    "SteinitzNumber",
    "PrimeSpectra",
    "ChainSpec",
    "builtin_chain",
    "Certificate",
    "KernelReport",
    "trivial_action_kernel",
    "wildness_certificate",
    "freeness_certificate",
]
