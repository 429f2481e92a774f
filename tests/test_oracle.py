from functools import lru_cache
from itertools import product

import numpy as np
import pytest

import ratiocut as rc
from ratiocut.errors import InputError, SizeError


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
    assert len(list(rc.enumerate_partitions(3, 2))) == 3
    assert len(list(rc.enumerate_partitions(4, 2))) == 7
    assert len(list(rc.enumerate_partitions(5, 1))) == 1
    assert len(list(rc.enumerate_partitions(5, 5))) == 1


def test_counts_match_stirling_recurrence():
    for n, k in [(4, 2), (5, 3), (6, 2), (7, 3), (8, 4), (10, 4)]:
        count = sum(1 for _ in rc.enumerate_partitions(n, k))
        assert count == stirling2(n, k)


def test_enumeration_matches_filtering_route():
    for n, k in [(4, 2), (5, 3), (6, 4)]:
        mine = {tuple(p.labels) for p in rc.enumerate_partitions(n, k)}
        assert mine == all_partitions_by_filtering(n, k)


def test_enumeration_is_lexicographic_and_rgs():
    previous = None
    for p in rc.enumerate_partitions(6, 3):
        labels = tuple(p.labels)
        assert labels[0] == 0
        # restricted growth: each value at most one beyond the running max
        running = 0
        for lab in labels:
            assert lab <= running + 1
            running = max(running, lab)
        if previous is not None:
            assert labels > previous
        previous = labels


def test_enumeration_guards():
    with pytest.raises(SizeError):
        rc.enumerate_partitions(15, 2)
    with pytest.raises(InputError):
        rc.enumerate_partitions(4, 0)
    with pytest.raises(InputError):
        rc.enumerate_partitions(4, 5)


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


def test_oracle_result_serializes():
    g, _ = rc.gen_example_blocks(1, 0.5)
    res = rc.min_ratio_cut_bruteforce(g, 2)
    text = rc.canonical_json(res.to_dict())
    assert '"unique": true' in text
    assert '"partitions_examined": 7' in text


def test_bruteforce_matches_filtering_route_exactly():
    for n in range(1, 10):
        for name, w in equivalence_graphs(n).items():
            g = rc.WeightedGraph(w)
            for k in range(1, min(n, 4) + 1):
                labels, value, runner_up, count = reference_minimum(g, k)
                res = rc.min_ratio_cut_bruteforce(g, k)
                case = (n, k, name)
                assert tuple(res.best.labels) == labels, case
                assert res.value == rc.ratio_cut(g, res.best) == value, case
                assert res.runner_up == runner_up, case
                assert res.unique == (runner_up is None or runner_up > value + 1e-9), case
                assert res.partitions_examined == count, case


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
