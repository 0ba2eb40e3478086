"""Placeholder for the retired compiled-kernel backend.

The fluid hot loops (water-filling and the Oracle dual) have one NumPy
implementation each, in :mod:`repro.fluid.vectorized` and
:mod:`repro.fluid.oracle`.  This module survives only because the
end-to-end benchmark child (``benchmarks/e2e/child.py``) imports it and
records :data:`HAVE_NUMBA` in every run's ``versions``; it goes when that
read does.
"""

#: Always false: nothing in the package is compiled.
HAVE_NUMBA = False
