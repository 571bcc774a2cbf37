"""Nonreciprocal phonon transport and photon-phonon conversion in two
coupled optomechanical cavities threaded by a synthetic gauge flux.

The package is organised bottom-up:

- :mod:`~optoflux.model`        parameters, unit conventions, susceptibilities
- :mod:`~optoflux.linsys`       4x4 coupling matrix, dense and closed-form inverses
- :mod:`~optoflux.response`     the three isolation measures
- :mod:`~optoflux.steadystate`  mean intracavity fields and enhanced couplings
- :mod:`~optoflux.sweep`        spectra and flux-frequency maps
- :mod:`~optoflux.optimize`     destructive-interference tuning
- :mod:`~optoflux.cli`          scenario files and the ``optoflux`` command
- :mod:`~optoflux.__main__`     the process entry of the ``optoflux`` command

Names and submodules load on first use (PEP 562), so importing the package,
validating a scenario or computing a steady state never imports numpy.  Of
the modules a run loads, only ``response``, ``sweep`` and ``optimize``
import numpy; ``linsys``, the dense oracle, does too, but loads only for its
own callers, as no run needs it.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("ConfigError", "DegenerateBlock", "NoSolution", "OptofluxError",
                     "SingularMatrix", "ZeroCoupling"), "errors"),
    **dict.fromkeys(("build_matrix", "effective_blocks", "invert_dense"), "linsys"),
    **dict.fromkeys(("TWO_PI", "Susceptibilities", "SystemParams", "from_table1",
                     "susceptibilities", "wrap_phase", "AUX_PARAMETERS", "PHONON",
                     "PHONON_TO_PHOTON", "PHOTON_TO_PHONON", "QUANTITIES"), "model"),
    **dict.fromkeys(("InterferenceSolution", "SearchSpace", "TuneResult",
                     "interference_condition", "tune"), "optimize"),
    **dict.fromkeys(("gamma_A", "isolation_db"), "response"),
    **dict.fromkeys(("SteadyState", "drives_for_target_G", "steady_amplitudes"),
                    "steadystate"),
    **dict.fromkeys(("FluxMap", "FrequencyGrid", "default_flux_grid",
                     "default_frequency_grid", "flux_map", "spectrum"), "sweep"),
}
_SUBMODULES = ("cli", "errors", "linsys", "model", "optimize", "response", "steadystate",
               "sweep")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
