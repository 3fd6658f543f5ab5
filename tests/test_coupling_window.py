"""Windowed ``CouplingOperator.apply`` is bit-for-bit its per-step calls.

The batch lane hands the coupling operator a whole window of rises,
one row per step, while the scalar lane calls it once per step with
one vector.  Every output here is compared with ``np.array_equal``
(no tolerance) against a test-local copy of the per-step loop, so the
operator under test is never its own reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoomError
from repro.fleet.coupling import RecirculationMatrix
from repro.room.coupling import SparseCoupling


def _chain(n: int, fraction: float) -> np.ndarray:
    return RecirculationMatrix.chain(n, fraction).matrix


def reference_offsets(
    op, window: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """The per-step operator loop: one C-contiguous row at a time.

    Dense operators run ``M @ row``.  Sparse operators run one gemv per
    rack block, then per cross block in dict order, then the low-rank
    term; a dynamic filter advances its own copy of the states once
    per row.  Returns the offsets and the final states (None when the
    operator has no filter).
    """
    rows = [np.ascontiguousarray(row) for row in window]
    if isinstance(op, RecirculationMatrix):
        return np.array([op.matrix @ row for row in rows]), None
    bounds = np.concatenate(([0], np.cumsum(op.block_sizes)))
    blocks = op.blocks
    cross = op.cross_blocks
    states = op.supply_states_c
    out_rows = []
    for row in rows:
        out = np.empty(op.n_servers)
        for r, block in enumerate(blocks):
            rack = slice(bounds[r], bounds[r + 1])
            out[rack] = block @ row[rack]
        for (dst, src), matrix in cross.items():
            out[bounds[dst] : bounds[dst + 1]] += (
                matrix @ row[bounds[src] : bounds[src + 1]]
            )
        if op.feedback_rank:
            gain, mix = op._gain, op._mix
            if states is None:
                out += gain.T @ (mix @ row)
            else:
                target = mix @ row + op._forcing
                states = target + (states - target) * op._decay
                out += gain.T @ states
        out_rows.append(out)
    return np.array(out_rows), states


def _window(rng: np.random.Generator, w: int, n: int) -> np.ndarray:
    return rng.uniform(0.0, 6.0, size=(w, n))


def _assert_dense_exact(op: RecirculationMatrix, window: np.ndarray) -> None:
    got = op.apply(window)
    assert got.shape == window.shape
    assert np.array_equal(got, reference_offsets(op, window)[0])
    for row, offsets in zip(window, got):
        assert np.array_equal(op.apply(np.ascontiguousarray(row)), offsets)


def _assert_sparse_exact(make, windows, between=None) -> None:
    """Windowed ``apply`` on one operator vs the loop on a twin."""
    op, twin = make(), make()
    for i, window in enumerate(windows):
        if between is not None:
            between(op, i)
            between(twin, i)
        expected, states = reference_offsets(twin, window)
        if states is not None:
            twin._states = states
        got = op.apply(window)
        assert got.shape == window.shape
        assert np.array_equal(got, expected)
        if states is None:
            assert op.supply_states_c is None
        else:
            assert np.array_equal(op.supply_states_c, states)


class TestDenseWindow:
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_window_equals_per_step_gemv(self, n):
        rng = np.random.default_rng(n)
        op = RecirculationMatrix(_chain(n, 0.3) if n > 1 else np.zeros((1, 1)))
        for w in (1, 2, 10, 33):
            _assert_dense_exact(op, _window(rng, w, n))

    def test_one_step_keeps_its_shape(self):
        op = RecirculationMatrix(_chain(5, 0.4))
        rises = np.linspace(1.0, 5.0, 5)
        got = op.apply(rises)
        assert got.shape == (5,)
        assert np.array_equal(got, op.matrix @ rises)

    def test_non_contiguous_window(self):
        rng = np.random.default_rng(7)
        op = RecirculationMatrix(_chain(16, 0.25))
        wide = _window(rng, 12, 32)
        windows = (wide[:, ::2], np.asfortranarray(wide[:, :16]), wide[::3, 5:21])
        for window in windows:
            assert not window.flags.c_contiguous
            _assert_dense_exact(op, window)


class TestSparseWindow:
    def _uniform(self, **kwargs) -> SparseCoupling:
        blocks = [_chain(8, 0.2 + 0.05 * r) for r in range(4)]
        return SparseCoupling(blocks, **kwargs)

    def test_uniform_blocks(self):
        rng = np.random.default_rng(1)
        _assert_sparse_exact(
            self._uniform, [_window(rng, w, 32) for w in (1, 10, 3)]
        )

    def test_uniform_blocks_are_views_of_one_stack(self):
        op = self._uniform()
        assert all(block.base is op._stack for block in op._blocks)

    def test_ragged_blocks_with_one_server_rack(self):
        rng = np.random.default_rng(2)
        sizes = (5, 1, 8, 3)

        def make() -> SparseCoupling:
            return SparseCoupling(
                [_chain(b, 0.3) for b in sizes],
                cross={
                    (1, 0): np.full((1, 5), 0.01),
                    (0, 1): np.full((5, 1), 0.02),
                },
            )

        _assert_sparse_exact(make, [_window(rng, w, 17) for w in (1, 10, 4)])

    def test_two_cross_blocks_into_one_rack(self):
        rng = np.random.default_rng(3)
        cross = {
            (1, 0): rng.uniform(0.0, 0.05, (8, 8)),
            (1, 2): rng.uniform(0.0, 0.05, (8, 8)),
            (3, 2): rng.uniform(0.0, 0.05, (8, 8)),
        }
        _assert_sparse_exact(
            lambda: self._uniform(cross=cross),
            [_window(rng, w, 32) for w in (10, 1, 7)],
        )

    @pytest.mark.parametrize("rank", [1, 2])
    def test_static_low_rank(self, rank):
        rng = np.random.default_rng(10 + rank)
        gain = rng.uniform(0.0, 0.02, (rank, 32))
        mix = rng.uniform(0.0, 0.05, (rank, 32))
        if rank == 1:
            gain, mix = gain[0], mix[0]
        _assert_sparse_exact(
            lambda: self._uniform(feedback_gain=gain, feedback_mix=mix),
            [_window(rng, w, 32) for w in (10, 1, 5)],
        )

    @pytest.mark.parametrize("tau", [(0.0, 0.0), (30.0, 0.0), (5.0, 120.0)])
    def test_dynamic_filter_with_forcing_between_windows(self, tau):
        rng = np.random.default_rng(20)
        gain = rng.uniform(0.0, 0.02, (2, 32))
        mix = rng.uniform(0.0, 0.05, (2, 32))
        cross = {(0, 1): rng.uniform(0.0, 0.05, (8, 8))}

        def make() -> SparseCoupling:
            op = self._uniform(
                cross=cross,
                feedback_gain=gain,
                feedback_mix=mix,
                feedback_tau=np.array(tau),
                feedback_forcing=np.array([0.5, 0.0]),
                crac_unit_rows=(0, 1),
            )
            op.prepare_run(0.1)
            return op

        forcing = {1: (0, 2.5), 2: (1, 4.0), 3: (0, 0.0)}

        def between(op, i):
            if i in forcing:
                op.set_supply_forcing(*forcing[i])

        _assert_sparse_exact(
            make, [_window(rng, w, 32) for w in (10, 10, 1, 7, 10)], between
        )

    def test_non_contiguous_window(self):
        rng = np.random.default_rng(4)
        gain = rng.uniform(0.0, 0.02, 32)
        mix = rng.uniform(0.0, 0.05, 32)

        def make() -> SparseCoupling:
            op = self._uniform(
                cross={(2, 1): np.full((8, 8), 0.01)},
                feedback_gain=gain,
                feedback_mix=mix,
                feedback_tau=np.array([40.0]),
            )
            op.prepare_run(0.1)
            return op

        wide = _window(rng, 10, 64)
        windows = [wide[:, ::2], np.asfortranarray(wide[:, 32:]), wide[::2, 1::2]]
        assert not any(window.flags.c_contiguous for window in windows)
        _assert_sparse_exact(make, windows)

    def test_non_contiguous_window_through_fortran_cross_block(self):
        # An F-ordered cross block takes BLAS's other gemv kernel, which
        # gives different bits for a strided vector than for a
        # contiguous one: the rows must be made contiguous first.
        rng = np.random.default_rng(6)
        cross = {(0, 1): np.asfortranarray(rng.uniform(0.0, 0.05, (8, 2)))}

        def make() -> SparseCoupling:
            return SparseCoupling([_chain(8, 0.2), _chain(2, 0.2)], cross=cross)

        wide = _window(rng, 10, 20)
        _assert_sparse_exact(make, [wide[:, ::2], wide[::2, 1::2]])

    def test_one_step_call_is_the_one_row_window(self):
        rng = np.random.default_rng(5)
        a, b = self._uniform(), self._uniform()
        rises = _window(rng, 1, 32)
        assert a.apply(rises[0]).shape == (32,)
        assert np.array_equal(a.apply(rises[0]), b.apply(rises)[0])


class TestSupplyForcingGuard:
    def _dynamic(self) -> SparseCoupling:
        op = SparseCoupling(
            [_chain(2, 0.2), _chain(2, 0.2)],
            feedback_gain=np.array([[0.01] * 4, [0.02] * 4]),
            feedback_mix=np.array([[0.1] * 4, [0.0] * 4]),
            feedback_tau=np.array([10.0, 10.0]),
            crac_unit_rows=(0, 1),
        )
        op.prepare_run(0.1)
        return op

    @pytest.mark.parametrize("unit", [-1, -2, 2])
    def test_unknown_unit_rejected(self, unit):
        op = self._dynamic()
        with pytest.raises(RoomError, match="no CRAC unit"):
            op.set_supply_forcing(unit, 1.0)
        # Nothing was forced: the last unit's row keeps its baseline.
        assert np.array_equal(op._forcing, np.zeros(2))

    def test_known_unit_accepted(self):
        op = self._dynamic()
        op.set_supply_forcing(1, 1.5)
        assert np.array_equal(op._forcing, np.array([0.0, 1.5]))
