"""Optional torch backend — the same kernels on torch tensors.

Import-guarded: the module always imports, but the backend factory raises
``ImportError`` when torch is absent, so ``available_backends()`` simply
omits ``"torch"`` and every torch test skips.  Nothing in the default
code paths touches torch.

Execution model: kernels take and return float64 host arrays (the
simulator's column dtype), execute on torch tensors internally, and are
**zero-copy on CPU** — ``torch.from_numpy`` aliases the numpy buffer and
``Tensor.numpy()`` aliases it back, so the FlowTable / incidence /
telemetry columns the kernels read *are* the device-resident arrays and a
CPU-torch step performs no host↔device transfers at all (the ≥50k-flow
benchmark lane asserts the step loop stays transfer-free).  On a CUDA
device each kernel boundary is a sync point; keeping columns resident
across steps on an accelerator is the remaining ROADMAP item this layer
was built to unlock.

Tolerance policy (documented; see DESIGN.md, "Array backends & kernels"):
``scatter_add`` uses ``Tensor.index_add_``, whose duplicate-index
accumulation order is unspecified (on GPUs it is hardware atomic
accumulation), so torch results are *equivalent within tolerance* — FCTs
within ``rtol=1e-9`` of the scalar reference — rather than bit-identical.
The numpy backend keeps the bit-identity contract.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import ArrayBackend, register_backend

__all__ = ["TorchBackend", "torch_available"]

try:  # pragma: no cover - exercised only where torch is installed
    import torch as _torch
except ImportError:  # pragma: no cover
    _torch = None


def torch_available() -> bool:
    """True when the torch library is importable."""
    return _torch is not None


class TorchBackend(ArrayBackend):
    """Torch kernels (CPU by default; ``device="cuda"`` when available)."""

    name = "torch"
    is_device = True

    def __init__(self, device: str = "cpu") -> None:
        """Bind the backend to one torch device.

        Raises:
            ImportError: torch is not installed.
        """
        if _torch is None:
            raise ImportError("torch is not installed; backend 'torch' unavailable")
        self.torch = _torch
        self.device = _torch.device(device)
        #: the array namespace call sites may use for element-wise math
        self.xp = _torch
        #: host↔device copies performed (0 forever on CPU: zero-copy
        #: aliasing; the ≥50k-flow lane asserts it stays 0 in-step)
        self.transfers = 0

    # ------------------------------------------------------------------ #
    # sync points (zero-copy on CPU)
    # ------------------------------------------------------------------ #
    def asarray(self, values, dtype=None):
        """Adopt host data as a tensor (aliasing the buffer on CPU)."""
        arr = np.asarray(values, dtype=dtype)
        if self.device.type == "cpu":
            return self.torch.from_numpy(arr)
        self.transfers += 1  # pragma: no cover - CUDA only
        return self.torch.as_tensor(arr, device=self.device)

    def to_numpy(self, values) -> np.ndarray:
        """Materialise a tensor on the host (aliasing on CPU)."""
        if isinstance(values, self.torch.Tensor):
            if values.device.type != "cpu":  # pragma: no cover - CUDA only
                self.transfers += 1
            return values.cpu().numpy()
        return np.asarray(values)

    def _t(self, values):
        """Tensor view of a host array (no copy on CPU)."""
        if isinstance(values, self.torch.Tensor):
            return values
        return self.asarray(values)

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def scatter_add(self, size: int, idx, values) -> np.ndarray:
        """``index_add_`` accumulation (unordered duplicates — tolerance)."""
        vals = self._t(np.asarray(values, dtype=np.float64))
        index = self._t(np.asarray(idx)).long()
        out = self.torch.zeros(size, dtype=self.torch.float64, device=self.device)
        out.index_add_(0, index, vals)
        return self.to_numpy(out)

    def segment_reduce(self, values, starts, lengths, op: str) -> np.ndarray:
        """Positional walk over hop columns (min/max/sum/prod)."""
        values_np = np.asarray(values, dtype=np.float64)
        starts_np = np.asarray(starts)
        lengths_np = np.asarray(lengths)
        n = len(starts_np)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        torch = self.torch
        vals = self._t(values_np)
        starts_t = self._t(starts_np).long()
        lengths_t = self._t(lengths_np).long()
        init = {"sum": 0.0, "prod": 1.0, "min": np.inf, "max": -np.inf}[op]
        out = torch.full((n,), init, dtype=torch.float64, device=self.device)
        max_len = int(lengths_np.max()) if lengths_np.size else 0
        for k in range(max_len):
            sel = (lengths_t > k).nonzero(as_tuple=True)[0]
            lane = vals[starts_t[sel] + k]
            if op == "sum":
                out[sel] += lane
            elif op == "prod":
                out[sel] *= lane
            elif op == "min":
                out[sel] = torch.minimum(out[sel], lane)
            else:
                out[sel] = torch.maximum(out[sel], lane)
        return self.to_numpy(out)

    def path_signals(
        self, idx, starts, lengths, not_marked_links, delay_links
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused survival-product / delay-sum walk on tensors."""
        torch = self.torch
        n = len(starts)
        not_marked = torch.ones(n, dtype=torch.float64, device=self.device)
        queue_delay = torch.zeros(n, dtype=torch.float64, device=self.device)
        if n and len(lengths):
            idx_t = self._t(np.asarray(idx)).long()
            starts_t = self._t(np.asarray(starts)).long()
            lengths_t = self._t(np.asarray(lengths)).long()
            nml = self._t(np.asarray(not_marked_links, dtype=np.float64))
            dl = self._t(np.asarray(delay_links, dtype=np.float64))
            for k in range(int(np.max(lengths))):
                sel = (lengths_t > k).nonzero(as_tuple=True)[0]
                link = idx_t[starts_t[sel] + k]
                not_marked[sel] *= nml[link]
                queue_delay[sel] += dl[link]
        return self.to_numpy(not_marked), self.to_numpy(queue_delay)

    def weighted_choice_searchsorted(self, cumulative, points) -> np.ndarray:
        """``torch.searchsorted`` (left side) + clamp to the last bucket."""
        torch = self.torch
        cum = self._t(np.asarray(cumulative, dtype=np.float64))
        pts = self._t(np.asarray(points, dtype=np.float64))
        idx = torch.searchsorted(cum, pts, side="left")
        idx = torch.clamp(idx, max=len(cum) - 1)
        return self.to_numpy(idx).astype(np.intp)

    def gather_rows(self, column, rows) -> np.ndarray:
        """``index_select`` gather."""
        col = self._t(column)
        index = self._t(np.asarray(rows)).long()
        return self.to_numpy(col.index_select(0, index))

    def scatter_rows(self, column, rows, values) -> None:
        """``index_copy_`` scatter into the (aliased) host column."""
        col = self._t(column)
        index = self._t(np.asarray(rows)).long()
        vals = self._t(np.asarray(values, dtype=np.asarray(column).dtype))
        col.index_copy_(0, index, vals)
        if self.device.type != "cpu":  # pragma: no cover - CUDA only
            np.asarray(column)[...] = self.to_numpy(col)

    def masked_where(self, cond, a, b) -> np.ndarray:
        """``torch.where`` select (scalars broadcast as in numpy)."""
        torch = self.torch
        cond_t = self._t(np.asarray(cond))
        a_t = self._t(np.asarray(a, dtype=np.float64))
        b_t = self._t(np.asarray(b, dtype=np.float64))
        return self.to_numpy(torch.where(cond_t, a_t, b_t))

    def masked_divide(self, num, den, mask) -> np.ndarray:
        """Masked division with exact zeros on the masked-out lanes."""
        torch = self.torch
        num_t = self._t(np.asarray(num, dtype=np.float64))
        den_t = self._t(np.asarray(den, dtype=np.float64))
        mask_t = self._t(np.asarray(mask))
        safe = torch.where(mask_t, den_t, torch.ones_like(den_t))
        quotient = num_t / safe
        out = torch.where(mask_t, quotient, torch.zeros_like(quotient))
        return self.to_numpy(out)


register_backend("torch", TorchBackend)
