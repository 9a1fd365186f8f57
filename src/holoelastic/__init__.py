"""Plane linear elasticity via holomorphic complex-valued networks.

The governing equations are satisfied by construction: the networks output
Kolosov-Muskhelishvili potentials, so training only fits boundary residuals.

The package root exports nothing; import the submodules.  Importing it caps
the BLAS thread pools at HOLOELASTIC_THREADS, when set, before any submodule
loads numpy; a BLAS variable set explicitly keeps its value.
"""

import os

if os.environ.get("HOLOELASTIC_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["HOLOELASTIC_THREADS"])

__version__ = "0.1.0"
