"""The kernel step's array program (NumPy backend, windows of ≤ 63 frames).

The kernel's cohort loop re-expressed as whole-step NumPy kernels over
the fleet's per-row columns.  ``kernel.step_window`` runs it per step
when the accel backend is NumPy and the window fits the 63-bit received
mask, and the pure-Python cohort loop otherwise.  See :mod:`.step` for
the stepper and its stages, :mod:`.kernels` for the kernels, and
DESIGN.md ("Column ABI") for the column and plan-array contract.
"""

from repro.core.native.step import step_native

__all__ = ["step_native"]
