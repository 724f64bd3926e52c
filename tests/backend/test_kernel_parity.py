"""Kernel-parity suite: every backend kernel vs a naive loop reference.

Each available backend (``available_backends()`` — numpy always, torch
when installed) is driven through every kernel of the
:class:`~repro.backend.ArrayBackend` contract and compared against a
hand-written per-element Python loop on the geometries that historically
break fused kernels:

* empty segments (length 0 → op identity),
* single-element segments,
* duplicate scatter indices (accumulation order),
* non-contiguous / permuted row subsets,
* uniform segment lengths (the numpy backend's reshape fast path), and
  mixed hop counts and ragged mixes (its ``reduceat`` / walk fallbacks).

The numpy backend must match the loop reference **bitwise**; the
torch backend is allowed the documented tolerance on float kernels (see
DESIGN.md, "Array backends & kernels").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from repro.backend.numpy_ref import NumpyBackend

BACKENDS = available_backends()

#: bitwise-contract backends; torch gets the tolerance comparison
EXACT = {"numpy"}


def _assert_equal(name: str, got, want) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    if name in EXACT:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------- #
# geometries
# --------------------------------------------------------------------- #
def csr_cases():
    """CSR (values, starts, lengths) geometries covering the edge shapes."""
    rng = np.random.default_rng(42)
    cases = {}

    # ragged: empty + single + long segments interleaved
    lengths = np.array([0, 1, 3, 0, 5, 1, 0], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    values = rng.normal(size=int(lengths.sum()))
    cases["ragged"] = (values, starts, lengths)

    # mixed hop counts: contiguous, no empty segment, lengths differ —
    # the reduceat / masked-walk branch of the numpy backend
    lengths = np.array([3, 4, 3, 5, 2, 4], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    values = rng.normal(size=int(lengths.sum()))
    values[5] = -0.0
    cases["mixed_hops"] = (values, starts, lengths)

    # uniform length (the reshape fast path), includes negatives/zeros
    lengths = np.full(6, 4, dtype=np.int64)
    starts = np.arange(6, dtype=np.int64) * 4
    values = rng.normal(size=24)
    values[3] = 0.0
    values[7] = -0.0
    cases["uniform"] = (values, starts, lengths)

    # single uniform column (L == 1)
    lengths = np.ones(5, dtype=np.int64)
    starts = np.arange(5, dtype=np.int64)
    cases["unit"] = (rng.normal(size=5), starts, lengths)

    # all-empty
    cases["empty"] = (
        np.empty(0),
        np.zeros(4, dtype=np.int64),
        np.zeros(4, dtype=np.int64),
    )

    # zero segments over a zero lane array
    cases["none"] = (
        np.empty(0),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    return cases


CSR_CASES = csr_cases()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return get_backend(request.param)


# --------------------------------------------------------------------- #
# scatter_add
# --------------------------------------------------------------------- #
class TestScatterAdd:
    def test_duplicate_indices_accumulate(self, backend):
        idx = np.array([0, 2, 2, 2, 5, 0], dtype=np.intp)
        values = np.array([1.5, 2.0, -0.5, 4.0, 1.0, 0.25])
        want = np.zeros(7)
        for i, v in zip(idx, values):
            want[i] += v
        _assert_equal(backend.name, backend.scatter_add(7, idx, values), want)

    def test_empty_input(self, backend):
        out = backend.scatter_add(
            4, np.empty(0, dtype=np.intp), np.empty(0)
        )
        _assert_equal(backend.name, out, np.zeros(4))

    def test_signed_zero_accumulation(self, backend):
        # 0.0 + (-0.0) must be +0.0, never a copied -0.0
        idx = np.array([1, 1], dtype=np.intp)
        values = np.array([0.0, -0.0])
        out = np.asarray(backend.scatter_add(3, idx, values))
        assert np.signbit(out[1]) == np.signbit(np.float64(0.0))

    def test_every_index_distinct(self, backend):
        rng = np.random.default_rng(3)
        values = rng.normal(size=8)
        idx = rng.permutation(8).astype(np.intp)
        want = np.zeros(8)
        want[idx] = values
        _assert_equal(backend.name, backend.scatter_add(8, idx, values), want)


# --------------------------------------------------------------------- #
# segment_reduce
# --------------------------------------------------------------------- #
class TestSegmentReduce:
    @pytest.mark.parametrize("case", list(CSR_CASES))
    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    def test_matches_loop_reference(self, backend, case, op):
        values, starts, lengths = CSR_CASES[case]
        want = backend._segment_reduce_loop(values, starts, lengths, op)
        got = backend.segment_reduce(values, starts, lengths, op)
        _assert_equal(backend.name, got, want)

    def test_empty_segments_yield_identity(self, backend):
        values, starts, lengths = CSR_CASES["ragged"]
        empties = np.flatnonzero(lengths == 0)
        assert len(empties)
        for op, identity in [
            ("sum", 0.0),
            ("prod", 1.0),
            ("min", np.inf),
            ("max", -np.inf),
        ]:
            out = np.asarray(backend.segment_reduce(values, starts, lengths, op))
            np.testing.assert_array_equal(out[empties], identity)

    def test_non_contiguous_segment_subset(self, backend):
        # starts that skip lanes and revisit earlier ones (shared lanes)
        values = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
        starts = np.array([4, 0, 2, 0], dtype=np.int64)
        lengths = np.array([2, 1, 3, 4], dtype=np.int64)
        for op in ("sum", "prod", "min", "max"):
            want = backend._segment_reduce_loop(values, starts, lengths, op)
            got = backend.segment_reduce(values, starts, lengths, op)
            _assert_equal(backend.name, got, want)

    def test_unknown_op_raises(self, backend):
        values, starts, lengths = CSR_CASES["uniform"]
        with pytest.raises((KeyError, ValueError)):
            backend.segment_reduce(values, starts, lengths, "mean")


class TestNumpyBranchCoverage:
    """The geometries above reach both branches of each merged kernel."""

    @pytest.mark.parametrize(
        "case, width",
        [("uniform", 4), ("unit", 1), ("mixed_hops", None), ("ragged", None)],
    )
    def test_uniform_detection(self, case, width):
        values, starts, lengths = CSR_CASES[case]
        bk = get_backend("numpy")
        assert bk._uniform_length(len(values), starts, lengths) == width

    def test_scatter_add_matches_add_at(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 50, size=4000).astype(np.intp)
        values = rng.normal(size=4000)
        want = np.zeros(60)
        np.add.at(want, idx, values)
        np.testing.assert_array_equal(get_backend("numpy").scatter_add(60, idx, values), want)


class _WalkOnlyBackend(NumpyBackend):
    """The numpy backend with uniform-length detection turned off.

    Every geometry takes the ``reduceat`` / masked-walk branch, so on a
    uniform layout it computes, from the same inputs, what the reshape
    branch computes.
    """

    def _uniform_length(self, n_lanes, starts, lengths):
        return None


def _bits(a) -> np.ndarray:
    """Raw float64 bit patterns: tells ``-0.0`` from ``+0.0``."""
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.int64)


def _assert_bitwise(got, want) -> None:
    np.testing.assert_array_equal(_bits(got), _bits(want))


#: segment layouts — uniform widths take the reshape branch, "mixed" the
#: ``reduceat`` / masked walk (random hop counts 1..6, contiguous)
LAYOUTS = ["uniform-1", "uniform-2", "uniform-4", "uniform-7", "mixed"]
#: lane value families — IEEE special values are where a reordered or
#: re-seeded accumulation would first show
KINDS = ["normal", "signed_zeros", "nonfinite"]


def _layout(name: str, rng) -> tuple:
    if name == "mixed":
        lengths = rng.integers(1, 7, size=40).astype(np.int64)
        assert len(set(lengths.tolist())) > 1
    else:
        lengths = np.full(40, int(name.split("-")[1]), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    return starts, lengths


def _lane_values(kind: str, n: int, rng) -> np.ndarray:
    values = rng.normal(size=n)
    if kind == "signed_zeros":
        pick = rng.random(n)
        values[pick < 0.3] = 0.0
        values[pick > 0.7] = -0.0
    elif kind == "nonfinite":
        pick = rng.random(n)
        values[pick < 0.05] = np.nan
        values[(pick >= 0.05) & (pick < 0.1)] = np.inf
        values[(pick >= 0.1) & (pick < 0.15)] = -np.inf
    return values


class TestBranchAgreement:
    """Both branches of each merged kernel equal the loop oracle bit for bit.

    The vectorized core's bit-identity to the scalar specification rests
    on the reshape branch and the walk branch accumulating in the same
    order as the oracle, signed zeros and NaN/inf propagation included.
    """

    @pytest.mark.parametrize("op", ["sum", "prod", "min", "max"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_segment_reduce(self, layout, kind, op):
        rng = np.random.default_rng(17)
        starts, lengths = _layout(layout, rng)
        values = _lane_values(kind, int(lengths.sum()), rng)
        merged = get_backend("numpy")
        with np.errstate(invalid="ignore"):
            want = merged._segment_reduce_loop(values, starts, lengths, op)
            got_merged = merged.segment_reduce(values, starts, lengths, op)
            got_walk = _WalkOnlyBackend().segment_reduce(values, starts, lengths, op)
        _assert_bitwise(got_merged, want)
        _assert_bitwise(got_walk, want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_path_signals(self, layout, kind):
        rng = np.random.default_rng(23)
        starts, lengths = _layout(layout, rng)
        num_links = 13
        idx = rng.integers(0, num_links, size=int(lengths.sum())).astype(np.intp)
        not_marked_links = np.abs(_lane_values(kind, num_links, rng))
        delay_links = _lane_values(kind, num_links, rng)
        merged = get_backend("numpy")
        with np.errstate(invalid="ignore"):
            want_nm = merged._segment_reduce_loop(
                not_marked_links[idx], starts, lengths, "prod"
            )
            want_qd = merged._segment_reduce_loop(
                delay_links[idx], starts, lengths, "sum"
            )
        for bk in (merged, _WalkOnlyBackend()):
            with np.errstate(invalid="ignore"):
                nm, qd = bk.path_signals(
                    idx, starts, lengths, not_marked_links, delay_links
                )
            _assert_bitwise(nm, want_nm)
            _assert_bitwise(qd, want_qd)


# --------------------------------------------------------------------- #
# segment_cumidx / expand_segments
# --------------------------------------------------------------------- #
class TestSegmentMaps:
    @pytest.mark.parametrize("case", list(CSR_CASES))
    def test_cumidx_matches_loop(self, backend, case):
        _, _, lengths = CSR_CASES[case]
        want = [i for i, n in enumerate(lengths) for _ in range(int(n))]
        got = np.asarray(backend.segment_cumidx(lengths))
        np.testing.assert_array_equal(got, np.asarray(want, dtype=np.intp))

    @pytest.mark.parametrize("case", list(CSR_CASES))
    def test_expand_matches_loop(self, backend, case):
        _, _, lengths = CSR_CASES[case]
        per_segment = np.arange(len(lengths), dtype=np.float64) * 1.5
        want = [per_segment[i] for i, n in enumerate(lengths) for _ in range(int(n))]
        got = backend.expand_segments(per_segment, lengths)
        _assert_equal(backend.name, got, np.asarray(want))


# --------------------------------------------------------------------- #
# path_signals
# --------------------------------------------------------------------- #
class TestPathSignals:
    @pytest.mark.parametrize("case", ["ragged", "mixed_hops", "uniform", "unit", "empty"])
    def test_matches_segment_reduce_pair(self, backend, case):
        values, starts, lengths = CSR_CASES[case]
        rng = np.random.default_rng(9)
        num_links = 11
        idx = rng.integers(0, num_links, size=len(values)).astype(np.intp)
        not_marked_links = rng.uniform(0.5, 1.0, size=num_links)
        delay_links = rng.uniform(0.0, 1e-3, size=num_links)
        want_nm = backend._segment_reduce_loop(
            not_marked_links[idx], starts, lengths, "prod"
        )
        want_qd = backend._segment_reduce_loop(
            delay_links[idx], starts, lengths, "sum"
        )
        nm, qd = backend.path_signals(
            idx, starts, lengths, not_marked_links, delay_links
        )
        _assert_equal(backend.name, nm, want_nm)
        _assert_equal(backend.name, qd, want_qd)


# --------------------------------------------------------------------- #
# weighted_choice_searchsorted
# --------------------------------------------------------------------- #
class TestWeightedChoice:
    def test_matches_scalar_cursor_loop(self, backend):
        weights = np.array([2.0, 1.0, 3.0, 0.5])
        cumulative = np.cumsum(weights)
        rng = np.random.default_rng(11)
        points = np.concatenate(
            [rng.uniform(0, cumulative[-1], size=64), cumulative, [0.0]]
        )
        want = []
        for p in points:
            for j, c in enumerate(cumulative):
                if p <= c:
                    want.append(j)
                    break
            else:
                want.append(len(cumulative) - 1)
        got = np.asarray(backend.weighted_choice_searchsorted(cumulative, points))
        np.testing.assert_array_equal(got, np.asarray(want, dtype=np.intp))

    def test_point_above_table_clamps(self, backend):
        cumulative = np.array([1.0, 2.0])
        got = np.asarray(
            backend.weighted_choice_searchsorted(
                cumulative, np.array([2.0000001, 99.0])
            )
        )
        np.testing.assert_array_equal(got, [1, 1])


# --------------------------------------------------------------------- #
# gather / scatter rows, masked select / divide
# --------------------------------------------------------------------- #
class TestRowKernels:
    def test_gather_non_contiguous_rows(self, backend):
        column = np.arange(10, dtype=np.float64) * 2.0
        rows = np.array([7, 0, 7, 3], dtype=np.intp)
        _assert_equal(
            backend.name, backend.gather_rows(column, rows), column[rows]
        )

    def test_scatter_rows_in_place(self, backend):
        column = np.zeros(6)
        rows = np.array([5, 1, 3], dtype=np.intp)
        values = np.array([1.0, 2.0, 3.0])
        backend.scatter_rows(column, rows, values)
        want = np.zeros(6)
        want[rows] = values
        _assert_equal(backend.name, column, want)

    def test_masked_where(self, backend):
        cond = np.array([True, False, True, False])
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([-1.0, -2.0, -3.0, -4.0])
        _assert_equal(
            backend.name, backend.masked_where(cond, a, b), np.where(cond, a, b)
        )

    def test_masked_divide_zero_denominator(self, backend):
        num = np.array([1.0, 2.0, 3.0, -4.0])
        den = np.array([2.0, 0.0, 4.0, 0.0])
        mask = den > 0
        out = np.asarray(backend.masked_divide(num, den, mask))
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.75, 0.0])

    def test_masked_divide_broadcasts(self, backend):
        num = np.array([1.0, 2.0, 3.0])
        den = 2.0
        out = np.asarray(backend.masked_divide(num, den, np.array([True, False, True])))
        np.testing.assert_array_equal(out, [0.5, 0.0, 1.5])


# --------------------------------------------------------------------- #
# sync points
# --------------------------------------------------------------------- #
class TestSyncPoints:
    def test_roundtrip_preserves_values(self, backend):
        host = np.array([1.0, -0.0, np.inf, 3.5])
        native = backend.asarray(host)
        back = backend.to_numpy(native)
        np.testing.assert_array_equal(back, host)
