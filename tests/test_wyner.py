"""Common-information solver tests against brute-force and closed forms."""
import itertools
import math

import numpy as np
import pytest

from coordinet.information import (WynerConfig, entropy, mutual_information,
                                   wyner_common_information)
from coordinet.pmf import make_joint
from coordinet.sources import dsbs, identical_uniform, independent_bits, triple_abc

from oracles import binary_entropy, mi_from_table, wyner_deterministic_min, wyner_dsbs

FAST = WynerConfig(restarts=12, seed=3)


def test_independent_is_zero():
    sol = wyner_common_information(independent_bits(), config=FAST)
    assert abs(sol.value) <= 1e-6


@pytest.mark.parametrize("k", [2, 3, 4])
def test_identical_uniform_is_log_k(k):
    sol = wyner_common_information(identical_uniform(k), w_cap=k + 1, config=FAST)
    assert sol.value == pytest.approx(math.log2(k), abs=1e-3)


def test_triple_abc_matches_bruteforce():
    q = triple_abc()
    oracle_value, _ = wyner_deterministic_min(q.table, w_cap=5)
    assert oracle_value == pytest.approx(1.0, abs=1e-9)
    sol = wyner_common_information(q, w_cap=5, config=FAST)
    assert sol.value == pytest.approx(oracle_value, abs=1e-3)


def test_witness_consistency():
    q = dsbs(0.1)
    sol = wyner_common_information(q, config=FAST)
    j = q.attach(sol.witness)
    assert mutual_information(j, ["Y1", "Y2"], ["W"]) == pytest.approx(sol.value, abs=1e-9)
    assert mutual_information(j, ["Y1"], ["Y2"], given=["W"]) <= 1e-6
    assert sol.markov_slack <= 1e-6


def test_sandwich_on_random_sources():
    rng = np.random.default_rng(9)
    small = WynerConfig(restarts=6, seed=1)
    for _ in range(8):
        t = rng.gamma(1.0, size=(2, 2))
        q = make_joint([("Y1", 2), ("Y2", 2)], t / t.sum())
        sol = wyner_common_information(q, config=small)
        lo = mutual_information(q, ["Y1"], ["Y2"])
        hi = entropy(q)
        assert lo - 1e-6 <= sol.value <= hi + 1e-6


def test_trace_records_restarts():
    sol = wyner_common_information(identical_uniform(2), w_cap=2, config=FAST)
    assert len(sol.trace) >= 3
    finite = [v for _, v in sol.trace if math.isfinite(v)]
    assert min(finite) == pytest.approx(sol.value, abs=1e-9)


def test_known_values_at_the_search_penalty():
    cfg = WynerConfig(restarts=8, seed=2)
    assert wyner_common_information(independent_bits(), config=cfg).value == pytest.approx(0.0, abs=1e-3)
    assert wyner_common_information(identical_uniform(2), w_cap=3,
                                    config=cfg).value == pytest.approx(1.0, abs=1e-3)
    assert wyner_common_information(triple_abc(), w_cap=5,
                                    config=cfg).value == pytest.approx(1.0, abs=1e-3)


def test_restarts_must_be_nonnegative():
    with pytest.raises(ValueError, match="restarts"):
        wyner_common_information(dsbs(0.1), w_cap=4, config=WynerConfig(restarts=-1))


def test_w_cap_must_be_a_positive_int():
    for bad in (0, -2, 2.5, True, "3"):
        with pytest.raises(ValueError, match="w_cap"):
            wyner_common_information(dsbs(0.1), w_cap=bad, config=WynerConfig(restarts=2))


def test_infeasible_cardinality_raises():
    from coordinet.information import OptimizerFailed
    # two W symbols cannot make three perfectly correlated values
    # conditionally independent
    with pytest.raises(OptimizerFailed):
        wyner_common_information(identical_uniform(3), w_cap=2,
                                 config=WynerConfig(restarts=6, seed=0))


def test_interval_has_certified_lower_bound():
    # I(Y1;Y2) off the DSBS family; identical bits are the DSBS with crossover 0, where
    # Wyner's closed form is I(Y1;Y2) = 1 as well
    small = WynerConfig(restarts=4, seed=0)
    skewed = make_joint([("Y1", 2), ("Y2", 2)], [[0.5, 0.1], [0.1, 0.3]])
    for q, lower in [(identical_uniform(2), 1.0), (skewed, mi_from_table(skewed.table))]:
        sol = wyner_common_information(q, config=small)
        assert sol.lower_bound == pytest.approx(mutual_information(q, ["Y1"], ["Y2"]), abs=1e-15)
        assert sol.lower_bound == pytest.approx(lower, abs=1e-12)
        assert sol.lower_bound <= sol.value + 1e-6
    # on a DSBS the closed form, well above I(Y1;Y2) = 1 - h(0.1)
    sol = wyner_common_information(dsbs(0.1), config=small)
    assert sol.lower_bound == pytest.approx(wyner_dsbs(0.1), abs=1e-12)
    assert 1.0 - binary_entropy(0.1) + 0.3 < sol.lower_bound <= sol.value + 1e-6


@pytest.mark.parametrize("w_cap", [2, 4])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.9])
def test_dsbs_lower_end_is_wyners_closed_form(p, w_cap):
    q = make_joint([("Y1", 2), ("Y2", 2)], [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
    sol = wyner_common_information(q, w_cap=w_cap, config=FAST)
    assert sol.lower_bound == pytest.approx(wyner_dsbs(p), abs=1e-12)
    assert mutual_information(q, ["Y1"], ["Y2"]) < sol.lower_bound <= sol.value


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
def test_dsbs_oracle_is_attained_by_the_symmetric_witness(p):
    # W a uniform bit and Y_i = W xor Bern(a), with 2a(1 - a) = p: the outputs form the
    # DSBS, are independent given W, and I(Y1Y2;W) is the closed form
    a = (1 - math.sqrt(1 - 2 * p)) / 2
    t = np.zeros((2, 2, 2))
    for w, y1, y2 in itertools.product(range(2), repeat=3):
        t[y1, y2, w] = 0.5 * (a if y1 != w else 1 - a) * (a if y2 != w else 1 - a)
    assert np.allclose(t.sum(axis=2), [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]], atol=1e-15)
    assert mi_from_table(t.reshape(4, 2)) == pytest.approx(wyner_dsbs(p), abs=1e-12)
