import bisect
import json
import math
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import ratiocut as rc
from ratiocut import graphs, oracle
from ratiocut.errors import InputError, SizeError

SWEEP = Path(__file__).parent / "data" / "oracle_sweep.json"


def stirling2(n, k):
    """Second-kind Stirling number via the standard recurrence."""
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def all_partitions_by_filtering(n, k):
    """Independent enumeration: filter all label vectors, deduplicate by
    canonical form (blocks relabeled in order of first occurrence)."""
    seen = set()
    for assignment in product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        first_seen = {}
        seen.add(tuple(first_seen.setdefault(lab, len(first_seen)) for lab in assignment))
    return seen


@lru_cache(maxsize=None)
def partitions_in_lexicographic_order(n, k):
    return [rc.Partition(np.array(labels), k) for labels in sorted(all_partitions_by_filtering(n, k))]


def reference_minimum(g, k):
    """Minimum ratio cut over the filtering route, ties to the lexicographically
    first partition, with the second smallest value as runner-up."""
    partitions = partitions_in_lexicographic_order(g.n, k)
    values = [rc.ratio_cut(g, p) for p in partitions]
    first = min(range(len(values)), key=lambda i: (values[i], i))
    ordered = sorted(values)
    runner_up = ordered[1] if len(ordered) > 1 else None
    return tuple(partitions[first].labels), values[first], runner_up, len(values)


def walked_strings(n, k):
    """Every restricted-growth string the oracle walks, in its order: the
    admitted (prefix, suffix) pairs of ``oracle._Strings``, prefix-major."""
    st = oracle._Strings(n, k, oracle._split(n, k))
    prefix, suffix = np.nonzero(st.admits[st.used])
    return [tuple(row) for row in st.labels(prefix, suffix).tolist()]


def loop_minimum(g, k):
    """The plain per-partition loop: ratio_cut of every walked string, in order."""
    best, best_v, second_v, count = None, math.inf, math.inf, 0
    for labels in walked_strings(g.n, k):
        p = rc.Partition(np.array(labels), k)
        v = rc.ratio_cut(g, p)
        count += 1
        if v < best_v:
            best, best_v, second_v = p, v, best_v
        elif v < second_v:
            second_v = v
    return tuple(best.labels), best_v, None if math.isinf(second_v) else second_v, count


def equivalence_graphs(n):
    rng = np.random.default_rng(100 + n)
    weighted = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    binary = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    return {
        "weighted": weighted + weighted.T,
        "binary": binary + binary.T,
        "zero": np.zeros((n, n)),
        "complete": np.ones((n, n)),
    }


def test_counts_against_direct_enumeration():
    assert len(walked_strings(3, 2)) == len(all_partitions_by_filtering(3, 2)) == 3
    assert len(walked_strings(4, 2)) == len(all_partitions_by_filtering(4, 2)) == 7
    assert len(walked_strings(5, 1)) == len(all_partitions_by_filtering(5, 1)) == 1
    assert len(walked_strings(5, 5)) == len(all_partitions_by_filtering(5, 5)) == 1


def test_counts_match_stirling_recurrence():
    for n, k in [(4, 2), (5, 3), (6, 2), (7, 3), (8, 4), (10, 4)]:
        assert len(walked_strings(n, k)) == stirling2(n, k)


def test_enumeration_matches_filtering_route():
    for n, k in [(4, 2), (5, 3), (6, 4)]:
        mine = walked_strings(n, k)
        assert len(set(mine)) == len(mine)
        assert set(mine) == all_partitions_by_filtering(n, k)


def test_enumeration_is_lexicographic_and_rgs():
    previous = None
    for labels in walked_strings(6, 3):
        assert labels[0] == 0
        # restricted growth: each value at most one beyond the running max
        running = 0
        for lab in labels:
            assert lab <= running + 1
            running = max(running, lab)
        if previous is not None:
            assert labels > previous
        previous = labels
    assert walked_strings(6, 3) == [tuple(p.labels) for p in partitions_in_lexicographic_order(6, 3)]


def test_enumeration_guards():
    # the oracle takes n from a validated graph only
    with pytest.raises(SizeError):
        rc.min_ratio_cut_bruteforce(rc.WeightedGraph(np.zeros((15, 15))), 2)
    g = rc.WeightedGraph(1.0 - np.eye(4))
    for k in (0, 5, True, 2.0, 2.5):  # k is an integer in [1, n], not a bool or a float
        with pytest.raises(InputError, match="k must be an integer"):
            rc.min_ratio_cut_bruteforce(g, k)
    # the test-only enumerator is gone: the oracle walks oracle._Strings
    assert not hasattr(oracle, "enumerate_partitions")
    assert "enumerate_partitions" not in rc.__all__


def test_bruteforce_disjoint_pairs():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    res = rc.min_ratio_cut_bruteforce(rc.WeightedGraph(w), 2)
    assert res.value == 0.0
    assert res.unique
    assert rc.same_partition(res.best, rc.Partition(np.array([0, 0, 1, 1]), 2))
    assert res.partitions_examined == 7


def test_bruteforce_example_small():
    g, p = rc.gen_example_blocks(1, 0.5)
    res = rc.min_ratio_cut_bruteforce(g, 2)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.unique
    assert rc.same_partition(res.best, p)


def test_bruteforce_example_failure_regime():
    # the planted split loses to the interleaved one when cross weight
    # dominates: {v1, v2, v5, v6} in one-based labels
    g, p = rc.gen_example_blocks(2, 1.2)
    res = rc.min_ratio_cut_bruteforce(g, 2)
    alternative = rc.Partition(np.array([0, 0, 1, 1, 0, 0, 1, 1]), 2)
    assert rc.same_partition(res.best, alternative)
    assert res.value == pytest.approx(4.0, abs=1e-9)
    assert rc.ratio_cut(g, p) == pytest.approx(4.8, abs=1e-9)
    assert res.value < rc.ratio_cut(g, p) - 1e-9


def test_bruteforce_value_is_exact_ratio_cut():
    rng = np.random.default_rng(10)
    w = np.triu(rng.uniform(0, 1, (7, 7)) * (rng.random((7, 7)) < 0.6), 1)
    g = rc.WeightedGraph(w + w.T)
    res = rc.min_ratio_cut_bruteforce(g, 3)
    assert res.value == rc.ratio_cut(g, res.best)
    assert res.partitions_examined == stirling2(7, 3)


def test_bruteforce_matches_filtering_route():
    rng = np.random.default_rng(14)
    w = np.triu(rng.uniform(0.1, 1, (6, 6)) * (rng.random((6, 6)) < 0.8), 1)
    g = rc.WeightedGraph(w + w.T)
    for k in (2, 3):
        res = rc.min_ratio_cut_bruteforce(g, k)
        best = min(
            rc.ratio_cut(g, rc.Partition(np.array(labels), k))
            for labels in all_partitions_by_filtering(g.n, k)
        )
        assert res.value == pytest.approx(best, abs=1e-12)


def test_bruteforce_tie_detection():
    # 4-cycle: the two straight bisections tie at ratio cut 2
    w = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        w[i, j] = w[j, i] = 1.0
    res = rc.min_ratio_cut_bruteforce(rc.WeightedGraph(w), 2)
    assert res.value == pytest.approx(2.0)
    assert not res.unique
    assert res.runner_up == pytest.approx(res.value, abs=1e-12)


def test_bruteforce_runner_up_single_partition():
    g = rc.WeightedGraph(np.zeros((3, 3)))
    res = rc.min_ratio_cut_bruteforce(g, 1)
    assert res.partitions_examined == 1
    assert res.unique
    assert res.runner_up is None


def test_bruteforce_size_guard():
    g = rc.WeightedGraph(np.zeros((15, 15)))
    with pytest.raises(SizeError):
        rc.min_ratio_cut_bruteforce(g, 2)


def test_bruteforce_rejects_weights_whose_cuts_overflow():
    w = np.full((4, 4), 8e307)  # finite, but every cut sums two or more of them
    with pytest.raises(InputError, match="overflows"), np.errstate(over="ignore"):
        rc.min_ratio_cut_bruteforce(rc.WeightedGraph(w), 2)


def test_bruteforce_rescores_strings_whose_batch_value_is_nan():
    # vertices 0 and 1 (prefix) both join vertex 2 (suffix) at 1e308, so the
    # weight from block {0, 1, 2}'s prefix vertices to vertex 2 overflows and
    # is multiplied by 0 in the batch product; the ratio cut of that
    # partition is finite, and the least one
    w = np.zeros((4, 4))
    w[0, 2] = w[1, 2] = 1e308
    w[0, 1] = w[0, 3] = w[1, 3] = w[2, 3] = 1.0
    g = rc.WeightedGraph(w + w.T)
    with np.errstate(over="ignore", invalid="ignore"):
        res = rc.min_ratio_cut_bruteforce(g, 2)
        check_against(res, g, *loop_minimum(g, 2), "nan")
    assert res.best.labels.tolist() == [0, 0, 0, 1]
    assert res.value == 4.0


def test_oracle_result_serializes():
    g, _ = rc.gen_example_blocks(1, 0.5)
    res = rc.min_ratio_cut_bruteforce(g, 2)
    text = rc.canonical_json(res.to_dict())
    assert '"unique": true' in text
    assert '"partitions_examined": 7' in text


def check_against(res, g, labels, value, runner_up, count, case):
    assert tuple(res.best.labels) == labels, case
    assert res.value == rc.ratio_cut(g, res.best) == value, case
    assert res.runner_up == runner_up, case
    assert res.unique == (runner_up is None or runner_up > value * (1 + 1e-9)), case
    assert res.partitions_examined == count, case


def test_bruteforce_matches_filtering_route_exactly():
    for n in range(1, 10):
        for name, w in equivalence_graphs(n).items():
            g = rc.WeightedGraph(w)
            for k in range(1, min(n, 4) + 1):
                res = rc.min_ratio_cut_bruteforce(g, k)
                check_against(res, g, *reference_minimum(g, k), (n, k, name))
    # spot checks beyond the filtering route's reach, against the plain loop
    for n, k, name in [(10, 3, "weighted"), (10, 3, "zero"), (11, 2, "binary"),
                       (12, 2, "weighted"), (12, 2, "complete")]:
        g = rc.WeightedGraph(equivalence_graphs(n)[name])
        res = rc.min_ratio_cut_bruteforce(g, k)
        check_against(res, g, *loop_minimum(g, k), (n, k, name))


def sweep_graphs():
    """The graphs of the committed sweep, in the order of ``tests/data/oracle_sweep.json``."""
    rng = np.random.default_rng(2024)
    for n in range(2, 13):
        upper = np.triu(np.ones((n, n)), 1)
        kinds = {
            "weighted": rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6),
            "binary": (rng.random((n, n)) < 0.5).astype(float),
            "wide": np.exp(rng.uniform(math.log(1e-6), math.log(1e6), (n, n))),
            "integer": rng.integers(0, 3, (n, n)).astype(float),  # many exact ties
            "complete": np.ones((n, n)),  # every partition ties
            "empty": np.zeros((n, n)),
        }
        for name, w in kinds.items():
            w = w * upper
            for k in range(1, min(n, 5) + 1):
                # all-ties graphs rescore every partition: keep them to the cheap cases
                if name in ("complete", "empty") and n > 10 and (n, k) != (12, 3):
                    continue
                yield n, k, name, rc.WeightedGraph(w + w.T)


def test_bruteforce_matches_recorded_sweep():
    # The expected results were recorded with the implementation that
    # rescored every finalist with ratio_cut, one partition at a time, from
    # 2,048-row arrays of full label rows (commit f19936e); values are JSON
    # floats, which round-trip exactly.
    recorded = json.loads(SWEEP.read_text())
    cases = list(sweep_graphs())
    assert len(cases) == len(recorded)
    for (n, k, name, g), want in zip(cases, recorded):
        res = rc.min_ratio_cut_bruteforce(g, k)
        got = {"n": n, "k": k, "graph": name, "best": res.best.labels.tolist(), "value": res.value,
               "unique": res.unique, "runner_up": res.runner_up,
               "partitions_examined": res.partitions_examined}
        assert got == want, (n, k, name)


def test_batch_values_within_rel_of_ratio_cut_at_every_split():
    rng = np.random.default_rng(21)
    for n, k in [(7, 2), (7, 3), (8, 4)]:
        wide = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), (n, n)))
        w = np.triu(wide * (rng.random((n, n)) < 0.7), 1)
        g = rc.WeightedGraph(w + w.T)
        rel = graphs.ratio_cut_rel(n)
        for s in range(n):
            st = oracle._Strings(n, k, s)
            seen = []
            for first, values in oracle._batch_ratio_cuts(g.weights, st):
                admitted = st.admits[st.used[first : first + len(values)]]
                assert np.all(np.isinf(values[~admitted])), (n, k, s)
                prefix, suffix = np.nonzero(admitted)
                labels = st.labels(first + prefix, suffix)
                batch = values[prefix, suffix]
                exact = np.array([rc.ratio_cut(g, rc.Partition(row, k)) for row in labels])
                assert np.all(np.abs(batch - exact) <= rel * exact), (n, k, s)
                seen += map(tuple, labels.tolist())
            # every string exactly once, in enumeration order
            assert seen == [tuple(p.labels.tolist()) for p in partitions_in_lexicographic_order(n, k)], (n, k, s)


def test_bruteforce_is_scale_equivariant():
    # powers of two scale every ratio cut exactly, so the optimum, its value
    # and its uniqueness must not move
    rng = np.random.default_rng(19)
    w = np.triu(rng.uniform(0.1, 2.0, (9, 9)) * (rng.random((9, 9)) < 0.6), 1)
    for g in (rc.gen_example_blocks(2, 0.5)[0], rc.WeightedGraph(w + w.T)):
        for k in (2, 3):
            base = rc.min_ratio_cut_bruteforce(g, k)
            for e in (-60, -40, -30, -20, 20, 60):
                res = rc.min_ratio_cut_bruteforce(rc.WeightedGraph(g.weights * 2.0**e), k)
                assert res.best.labels.tolist() == base.best.labels.tolist(), (k, e)
                assert res.unique == base.unique, (k, e)
                assert res.value == base.value * 2.0**e, (k, e)
                assert res.runner_up == base.runner_up * 2.0**e, (k, e)


def test_batch_chunks_survive_the_next_chunk():
    # each yielded chunk is its own array, so holding on to one is safe
    rng = np.random.default_rng(12)
    n, k = 12, 3
    w = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    g = rc.WeightedGraph(w + w.T)
    st = oracle._Strings(n, k, oracle._split(n, k))
    copied = [(first, values.copy()) for first, values in oracle._batch_ratio_cuts(g.weights, st)]
    held = list(oracle._batch_ratio_cuts(g.weights, st))
    assert len(held) > 1
    assert [first for first, _ in held] == [first for first, _ in copied]
    for (_, got), (_, want) in zip(held, copied):
        assert got.tobytes() == want.tobytes()


def cut_by_mask(w, mask):
    """Reference: one block's boundary submatrix, members and non-members ascending, summed on its own."""
    return float(w[np.ix_(mask, ~mask)].sum())


def ratio_cut_by_blocks(w, labels, k):
    """Reference: each block's cut by ``cut_by_mask`` over its size, added from 0.0."""
    total = 0.0
    for j in range(k):
        mask = labels == j
        total += cut_by_mask(w, mask) / int(mask.sum())
    return total


def test_exact_batch_rescoring_is_bit_identical_to_ratio_cut():
    # the oracle's finalists are rescored by graphs.ratio_cuts, which must
    # give the per-block sums bit for bit, in batches whose rows mix block
    # sizes; ratio_cut goes through the same kernel
    rng = np.random.default_rng(8)
    for trial in range(120):
        n = int(rng.integers(1, 15))
        k = int(rng.integers(1, min(n, 5) + 1))
        scale = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), (n, n)))
        w = np.triu(scale * (rng.random((n, n)) < rng.uniform(0.2, 1.0)), 1)
        g = rc.WeightedGraph(w + w.T)
        labels = rng.integers(0, k, (60, n))
        labels[:, :k] = np.arange(k)  # no block empty
        labels = labels.astype(np.int8)
        batch = graphs.ratio_cuts(g.weights, labels, k)
        exact = [ratio_cut_by_blocks(g.weights, row, k) for row in labels]
        assert batch.tolist() == exact, (trial, n, k)
        assert [rc.ratio_cut(g, rc.Partition(row, k)) for row in labels] == exact, (trial, n, k)


def test_tie_across_chunks_keeps_the_earlier_partition():
    # vertices 1 and 13 are twins joined to cores A and B, so putting one
    # with each core ties exactly (integer weights); the tied strings lie in
    # different scored chunks, so no chunk's filter sees both
    n, k = 14, 3
    cores = ([0, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12])
    w = np.zeros((n, n))
    for core in cores:
        w[np.ix_(core, core)] = 3.0
    twins, joined = [1, 13], cores[0] + cores[1]
    w[np.ix_(twins, joined)] = w[np.ix_(joined, twins)] = 1.0
    np.fill_diagonal(w, 0.0)
    g = rc.WeightedGraph(w)
    earlier = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 1]
    later = [0, 1, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0]
    st = oracle._Strings(n, k, oracle._split(n, k))
    firsts = [first for first, _ in oracle._batch_ratio_cuts(g.weights, st)]

    def chunk_of(labels):
        prefix = np.flatnonzero((st.prefixes == np.array(labels[: st.p], dtype=np.int8)).all(axis=1))
        return bisect.bisect_right(firsts, int(prefix[0])) - 1

    assert chunk_of(earlier) < chunk_of(later)
    value = rc.ratio_cut(g, rc.Partition(earlier, k))
    assert rc.ratio_cut(g, rc.Partition(later, k)) == value
    res = rc.min_ratio_cut_bruteforce(g, k)
    assert res.best.labels.tolist() == earlier
    assert res.value == res.runner_up == value
    assert not res.unique


def test_bruteforce_all_ties_across_many_blocks():
    # every partition of the empty graph scores 0: the first string in
    # lexicographic order must win and the runner-up must tie it, although
    # the 86,526 strings arrive in many separately scored arrays
    res = rc.min_ratio_cut_bruteforce(rc.WeightedGraph(np.zeros((12, 12))), 3)
    assert res.best.labels.tolist() == [0] * 10 + [1, 2]
    assert res.value == 0.0
    assert res.runner_up == 0.0
    assert not res.unique
    assert res.partitions_examined == stirling2(12, 3)

