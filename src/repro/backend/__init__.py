"""Pluggable array backends for the simulator's hot kernels.

See :mod:`repro.backend.core` for the kernel contract and DESIGN.md
("Array backends & kernels") for the registry table, sync-point rules and
the tolerance policy.  Importing this package registers the always-on
numpy backend and the import-guarded torch backend.
"""

from .core import ArrayBackend, available_backends, get_backend, register_backend
from .numpy_ref import NumpyBackend
from .torch_backend import TorchBackend, torch_available

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "torch_available",
]
