import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import align_alone, brute_force_align, check_full_cover, left_to_right_total, scalar_dp_table
from polyalign.bialign import (
    BATCH_CELLS,
    AlignConfig,
    align_chapter,
    cost_matrix,
    dp_batches,
    dp_tables,
)
from polyalign.model import PolyalignError


# The input checks run before the table is read, so any table will do.
ANY_TABLE = dp_tables([np.zeros((1, 1))], 0.15)[0]


def unit_rows(rows):
    arr = np.asarray(rows, dtype=np.float64)
    arr = arr / np.linalg.norm(arr, axis=1, keepdims=True)
    return arr.astype(np.float32)


class TestCostMatrix:
    def test_identical_rows_cost_zero_on_diagonal(self):
        m = unit_rows([[1, 0], [0, 1]])
        c = cost_matrix(m, m)
        assert c[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert c[1, 1] == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_rows_cost_one(self):
        a = unit_rows([[1, 0]])
        b = unit_rows([[0, 1]])
        assert cost_matrix(a, b)[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_hand_value(self):
        a = unit_rows([[1, 0]])
        b = unit_rows([[0.6, 0.8]])
        assert cost_matrix(a, b)[0, 0] == pytest.approx(0.4, abs=1e-6)


class TestAlignChapter:
    def test_two_by_two_diagonal(self):
        costs = np.array([[0.1, 0.9], [0.9, 0.1]])
        out = align_alone(costs, AlignConfig(0.15))
        assert out == [(0, 0, 0.1), (1, 1, 0.1)]

    def test_skip_both_beats_expensive_substitution(self):
        out = align_alone(np.array([[0.9]]), AlignConfig(0.15))
        assert set(out) == {(0, None, 0.15), (None, 0, 0.15)}

    def test_empty_source_forces_target_deletions(self):
        out = align_alone(np.zeros((0, 3)), AlignConfig(0.15))
        assert out == [(None, 0, 0.15), (None, 1, 0.15), (None, 2, 0.15)]

    def test_empty_both_sides(self):
        assert align_alone(np.zeros((0, 0)), AlignConfig(0.15)) == []

    def test_negative_lambda_is_config_error(self):
        with pytest.raises(PolyalignError, match=r"skip_cost must be a finite number >= 0, got -0\.1$"):
            AlignConfig(skip_cost=-0.1)

    @pytest.mark.parametrize("costs", [np.zeros(3), np.zeros(0), np.zeros((2, 2, 2)), np.float64(0.5)])
    def test_cost_array_that_is_not_two_dimensional_rejected(self, costs):
        with pytest.raises(PolyalignError, match="2-D"):
            align_chapter(costs, AlignConfig(), table=ANY_TABLE)

    def test_non_finite_costs_rejected(self):
        with pytest.raises(PolyalignError, match="cost matrix contains non-finite entries"):
            align_chapter(np.array([[np.inf]]), AlignConfig(), table=ANY_TABLE)

    def test_tie_prefers_substitution(self):
        # substitute 0.3 == skip-both 0.15 + 0.15
        out = align_alone(np.array([[0.3]]), AlignConfig(0.15))
        assert out == [(0, 0, 0.3)]
        assert brute_force_align(np.array([[0.3]]), AlignConfig(0.15))[0] == out

    def test_total_cost_is_sum_of_link_costs(self):
        # The optimum in the DP table is the moves' costs added left to right,
        # exactly: each step of the backtrace matched one addition.
        rng = np.random.default_rng(11)
        costs = rng.random((5, 4))
        out = align_alone(costs, AlignConfig(0.15))
        for src, tgt, cost in out:
            assert cost == (0.15 if src is None or tgt is None else costs[src, tgt])
        assert left_to_right_total(out) == dp_tables([costs], 0.15)[0][5 + 4, 5]


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n, m = rng.integers(0, 7, size=2)
            lam = float(rng.choice([0.05, 0.15, 0.5]))
            costs = rng.random((n, m))
            cfg = AlignConfig(skip_cost=lam)
            fast = align_alone(costs, cfg)
            slow, best = brute_force_align(costs, cfg)
            assert left_to_right_total(fast) == best
            assert fast == slow
            check_full_cover(fast, n, m)

    def test_one_by_one_agrees(self):
        for c in (0.0, 0.2, 0.29, 0.31, 1.0):
            fast = align_alone(np.array([[c]]), AlignConfig(0.15))
            slow, _ = brute_force_align(np.array([[c]]), AlignConfig(0.15))
            assert fast == slow

    def test_brute_force_bound(self):
        with pytest.raises(PolyalignError, match="brute force bounded to 8x8"):
            brute_force_align(np.zeros((9, 2)), AlignConfig())


def unskewed(table, n, m):
    """``dp[i, j]`` from the wavefront's skewed table ``table[i + j, i]``."""
    i, j = np.indices((n + 1, m + 1))
    return table[i + j, i]


def assert_table_matches_scalar(costs, lam):
    n, m = costs.shape
    table = dp_tables([costs], lam)
    assert table.shape == (1, n + m + 1, n + 1)
    assert np.array_equal(unskewed(table[0], n, m), scalar_dp_table(costs, lam))


def assert_batch_matches_scalar(batch, lam):
    """Each pair's slice of one batched table, read at its own shape, equals
    the scalar recurrence on that pair alone."""
    tables = dp_tables(batch, lam)
    assert len(tables) == len(batch)
    for table, costs in zip(tables, batch):
        n, m = costs.shape
        assert np.array_equal(unskewed(table, n, m), scalar_dp_table(costs, lam))


def grid_costs(rng, n, m):
    return np.round(rng.random((n, m)) / 0.05) * 0.05


# Costs on a 0.05 grid make many cells tie between substitution and skips.
tie_costs = st.tuples(st.integers(0, 40), st.integers(0, 40)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.integers(0, 40).map(lambda k: k * 0.05))
)


class TestWavefrontTable:
    def test_equals_scalar_recurrence_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            n, m = rng.integers(0, 45, size=2)
            lam = float(rng.choice([0.05, 0.15, 0.5]))
            assert_table_matches_scalar(np.round(rng.random((n, m)) / 0.05) * 0.05, lam)

    @pytest.mark.parametrize("shape", [(0, 7), (7, 0), (0, 0), (1, 9), (9, 1), (1, 1)])
    def test_equals_scalar_recurrence_on_degenerate_shapes(self, shape):
        rng = np.random.default_rng(14)
        for lam in (0.05, 0.15, 0.5):
            assert_table_matches_scalar(np.round(rng.random(shape) / 0.05) * 0.05, lam)

    def test_equals_scalar_recurrence_on_non_contiguous_input(self):
        rng = np.random.default_rng(15)
        costs = np.round(rng.random((23, 31)) / 0.05) * 0.05
        assert not costs.T.flags.c_contiguous
        assert_table_matches_scalar(costs.T, 0.15)
        assert_table_matches_scalar(costs[::2, 1::3], 0.15)

    @given(tie_costs, st.sampled_from([0.0, 0.05, 0.15, 0.5]))
    def test_equals_scalar_recurrence_property(self, costs, lam):
        assert_table_matches_scalar(costs, lam)


class TestBatchedTable:
    def test_unequal_shapes_with_degenerate_pairs(self):
        rng = np.random.default_rng(16)
        shapes = [(0, 5), (5, 0), (1, 7), (7, 1), (0, 0), (12, 9), (3, 17), (1, 1), (20, 20)]
        for lam in (0.0, 0.05, 0.15, 0.5):
            assert_batch_matches_scalar([grid_costs(rng, n, m) for n, m in shapes], lam)
            assert_batch_matches_scalar([grid_costs(rng, n, m) for n, m in shapes[::-1]], lam)

    def test_equals_scalar_recurrence_on_tie_heavy_batches(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            k = int(rng.integers(1, 11))
            batch = [grid_costs(rng, *rng.integers(0, 45, size=2)) for _ in range(k)]
            assert_batch_matches_scalar(batch, float(rng.choice([0.0, 0.05, 0.15, 0.5])))

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(19)
        costs = grid_costs(rng, 23, 31)
        batch = [costs.T, costs[::2, 1::3], costs[5:, ::-1], costs]
        assert not any(c.flags.c_contiguous for c in batch[:3])
        assert_batch_matches_scalar(batch, 0.15)

    @given(st.lists(tie_costs, min_size=1, max_size=6), st.sampled_from([0.0, 0.05, 0.15, 0.5]))
    def test_equals_scalar_recurrence_property(self, batch, lam):
        assert_batch_matches_scalar(batch, lam)

    def test_align_chapter_on_a_slice_equals_align_chapter_alone(self):
        rng = np.random.default_rng(20)
        cfg = AlignConfig(0.15)
        batch = [grid_costs(rng, n, m) for n, m in [(8, 3), (0, 4), (11, 12), (5, 0), (1, 9)]]
        for costs, table in zip(batch, dp_tables(batch, cfg.skip_cost)):
            assert align_chapter(costs, cfg, table=table) == align_alone(costs, cfg)

    def test_align_chapter_requires_a_table(self):
        with pytest.raises(TypeError, match="table"):
            align_chapter(np.zeros((2, 2)), AlignConfig(0.15))

    def test_align_chapter_rejects_a_table_too_small(self):
        costs = np.zeros((4, 5))
        with pytest.raises(PolyalignError, match=r"DP table of shape \(9, 5\) is too small for 4 by 5 costs"):
            align_chapter(costs, table=dp_tables([np.zeros((4, 4))], 0.15)[0])


class TestDpBatches:
    def test_paper_group_is_one_batch(self):
        assert dp_batches([(40, 40)] * 10) == [list(range(10))]

    def test_long_pairs_run_alone(self):
        assert dp_batches([(330, 330)] * 4) == [[0], [1], [2], [3]]

    def test_batches_are_consecutive_and_within_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            shapes = [tuple(int(x) for x in rng.integers(0, 400, size=2)) for _ in range(int(rng.integers(0, 12)))]
            batches = dp_batches(shapes)
            assert [b for batch in batches for b in batch] == list(range(len(shapes)))
            for batch in batches:
                n = max(shapes[b][0] for b in batch)
                m = max(shapes[b][1] for b in batch)
                assert len(batch) == 1 or len(batch) * n * m <= BATCH_CELLS


class TestProperties:
    def test_full_cover_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = rng.integers(0, 10, size=2)
            out = align_alone(rng.random((n, m)), AlignConfig(0.15))
            srcs = sorted(s for s, _, _ in out if s is not None)
            tgts = sorted(t for _, t, _ in out if t is not None)
            assert srcs == list(range(n))
            assert tgts == list(range(m))

    def test_monotone_one_one_links(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            out = align_alone(rng.random((8, 8)), AlignConfig(0.15))
            subs = [(s, t) for s, t, _ in out if s is not None and t is not None]
            assert subs == sorted(subs)
            assert all(a[1] < b[1] for a, b in zip(subs, subs[1:]))

    def test_substitutions_non_increasing_under_constant_shift(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            costs = rng.random((6, 6)) * 0.4
            prev = None
            for k in (0.0, 0.05, 0.1, 0.2, 0.4):
                out = align_alone(costs + k, AlignConfig(0.15))
                n_subs = sum(1 for s, t, _ in out if s is not None and t is not None)
                if prev is not None:
                    assert n_subs <= prev
                prev = n_subs

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n, m = rng.integers(1, 7, size=2)
            costs = rng.random((n, m))
            fwd = align_alone(costs, AlignConfig(0.15))
            bwd = align_alone(costs.T, AlignConfig(0.15))
            fwd_subs = {(s, t) for s, t, _ in fwd if s is not None and t is not None}
            bwd_subs = {(t, s) for s, t, _ in bwd if s is not None and t is not None}
            # Tie policy is asymmetric under transposition; compare total cost
            # always, link sets when costs are tie-free.
            assert left_to_right_total(fwd) == pytest.approx(left_to_right_total(bwd), abs=1e-12)
            assert fwd_subs == bwd_subs
