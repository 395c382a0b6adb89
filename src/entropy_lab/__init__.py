"""Dynamical entropies of finite-state stochastic systems.

The package computes and compares four finite-depth entropy notions of a
stochastic dynamical system observed through a partition of unity, their
rate estimates, and the decomposition functional whose one-time value has
a closed form and whose two-time landscape is searched numerically.
"""

__version__ = "0.1.0"

from ._errors import (
    CapExceededError,
    DocumentError,
    EntropyLabError,
    InequalityViolationError,
    ValidationError,
)
from .decompositions import (
    Decomposition,
    entropy_defect,
    trivial_decomposition,
)
from .documents import (
    load_partition,
    load_system,
    parse_partition,
    parse_system,
    system_to_document,
)
from .dynamical import (
    CntSearchResult,
    EntropyKind,
    EntropySequence,
    SupResult,
    cnt_functional,
    cnt_search,
    entropy_sequence,
    hud_functional,
    iter_set_partitions,
    rho_afl,
    sup_over_sharp,
)
from .entropy import (
    eta,
    shannon_entropy,
    symmetric_eigenvalues,
    von_neumann_entropy,
)
from .partitions import (
    PartitionOfUnity,
    RefinedPartition,
    distribution,
    evolve,
    join,
    refine_afl,
    refine_mak,
    sharp_partition,
    uniform_unsharp,
    word_from_code,
    word_label,
)
from .sampling import empirical_distribution, sample_words, tv_bound, tv_distance
from .systems import (
    StochasticSystem,
    make_bernoulli,
    make_deterministic,
    make_markov,
    stationary_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
