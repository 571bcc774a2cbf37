"""Nonreciprocal phonon transport and photon-phonon conversion in two
coupled optomechanical cavities threaded by a synthetic gauge flux.

The package is organised bottom-up:

- :mod:`~optoflux.model`        parameters, unit conventions, susceptibilities
- :mod:`~optoflux.linsys`       4x4 coupling matrix, dense and closed-form inverses
- :mod:`~optoflux.response`     the three isolation measures and port responses
- :mod:`~optoflux.steadystate`  mean intracavity fields and enhanced couplings
- :mod:`~optoflux.sweep`        spectra and flux-frequency maps
- :mod:`~optoflux.optimize`     destructive-interference tuning
- :mod:`~optoflux.cli`          scenario files and the ``optoflux`` command
"""

from .errors import (
    ConfigError,
    DegenerateBlock,
    NoSolution,
    OptofluxError,
    SingularMatrix,
    ZeroCoupling,
)
from .linsys import build_matrix, effective_blocks, invert_dense
from .model import (
    TWO_PI,
    Susceptibilities,
    SystemParams,
    from_table1,
    susceptibilities,
    wrap_phase,
)
from .optimize import (
    AUX_PARAMETERS,
    InterferenceSolution,
    SearchSpace,
    TuneResult,
    interference_condition,
    tune,
)
from .response import (
    PHONON,
    PHONON_TO_PHOTON,
    PHOTON_TO_PHONON,
    QUANTITIES,
    gamma_A,
    isolation_db,
    transmission_matrix,
)
from .steadystate import SteadyState, drives_for_target_G, steady_amplitudes
from .sweep import (
    FluxMap,
    FrequencyGrid,
    default_flux_grid,
    default_frequency_grid,
    flux_map,
    spectrum,
)

__version__ = "0.1.0"
