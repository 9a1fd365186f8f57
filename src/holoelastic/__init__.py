"""Plane linear elasticity via holomorphic complex-valued networks.

The governing equations are satisfied by construction: the networks output
Kolosov-Muskhelishvili potentials, so training only fits boundary residuals.

The package root exports nothing; import the submodules.  Importing it caps
the BLAS thread pools at HOLOELASTIC_THREADS, when set, before any submodule
loads numpy; a BLAS variable set explicitly keeps its value.

Importing it also pins glibc's allocator thresholds: arrays up to 32 MiB come
from the heap (M_MMAP_THRESHOLD) and up to 64 MiB of free heap top is kept
(M_TRIM_THRESHOLD), the values glibc's own dynamic rule reaches after its
first large free.  Left dynamic, whether an epoch's freed arrays are trimmed
off the heap top, and faulted back in page by page by the next epoch, depends
on what the process freed before.  This applies to Linux with glibc only;
where libc has no mallopt the call does nothing.
"""

import ctypes
import os

if os.environ.get("HOLOELASTIC_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["HOLOELASTIC_THREADS"])

try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):  # no mallopt (not glibc), or no dlopen(NULL)
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"
