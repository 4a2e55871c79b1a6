"""Exact-rational posteriors and the possible-worlds rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resamplekit.worlds import (
    Hypothesis,
    HypothesisSet,
    parse_probability,
    posterior,
    render_worlds,
    sequential_update,
    two_stage_grid,
)

F = Fraction


def hset(*triples) -> HypothesisSet:
    return HypothesisSet.from_triples(triples)


# The guessing-vs-telepathy story: 1-in-50 chance of a lucky guess.
BASE = hset(("guessing", F(3, 4), F(1, 50)), ("telepathy", F(1, 4), F(1)))


def test_base_posterior():
    post = dict(posterior(BASE))
    assert post["telepathy"] == F(50, 53)
    assert post["guessing"] == F(3, 53)


def test_equal_priors():
    post = dict(posterior(hset(("guessing", "1/2", "1/50"), ("telepathy", "1/2", "1"))))
    assert post["telepathy"] == F(50, 51)


def test_skeptical_prior():
    post = dict(posterior(hset(("guessing", "99/100", "1/50"), ("telepathy", "1/100", "1"))))
    assert post["telepathy"] == F(50, 149)


def test_partial_success_rate():
    post = dict(posterior(hset(("guessing", "3/4", "1/50"), ("telepathy", "1/4", "1/2"))))
    assert post["telepathy"] == F(25, 28)


def test_disease_screening():
    post = dict(
        posterior(hset(("healthy", "99/100", "5/100"), ("disease", "1/100", "95/100")))
    )
    assert post["disease"] == F(19, 118)


def test_zero_prior_stays_zero():
    post = dict(posterior(hset(("guessing", "1", "1/50"), ("telepathy", "0", "1"))))
    assert post["telepathy"] == 0
    assert post["guessing"] == 1


def test_posteriors_sum_to_one_exactly():
    assert sum(p for _, p in posterior(BASE)) == 1


def test_all_zero_evidence_rejected():
    with pytest.raises(ValueError, match="impossible under every hypothesis"):
        posterior(hset(("a", "1/2", "0"), ("b", "1/2", "0")))


def test_priors_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to exactly 1"):
        hset(("a", "1/2", "1"), ("b", "1/3", "1"))


def test_probability_range_validation():
    with pytest.raises(ValueError):
        Hypothesis("a", F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        Hypothesis("a", F(1, 2), F(-1, 2))
    with pytest.raises(ValueError, match="distinct"):
        hset(("a", "1/2", "1"), ("a", "1/2", "1"))


def test_scaling_likelihoods_leaves_posterior_unchanged():
    scaled = hset(("guessing", F(3, 4), F(1, 100)), ("telepathy", F(1, 4), F(1, 2)))
    assert posterior(scaled) == posterior(BASE)


# ---------------------------------------------------------------------------
# worlds rendering


def test_base_tableau_is_200_worlds():
    tableau = render_worlds(BASE)
    assert tableau.total_worlds == 200
    by_name = {r.name: r for r in tableau.rows}
    assert (by_name["guessing"].world_count, by_name["guessing"].surviving_count) == (150, 3)
    assert (by_name["telepathy"].world_count, by_name["telepathy"].surviving_count) == (50, 50)
    assert tableau.posterior() == posterior(BASE)


def test_disease_tableau_is_2000_worlds():
    h = hset(("disease", "1/100", "95/100"), ("healthy", "99/100", "5/100"))
    tableau = render_worlds(h)
    assert tableau.total_worlds == 2000
    by_name = {r.name: r for r in tableau.rows}
    assert (by_name["disease"].world_count, by_name["disease"].surviving_count) == (20, 19)
    assert (by_name["healthy"].world_count, by_name["healthy"].surviving_count) == (1980, 99)


def test_trivial_tableau():
    tableau = render_worlds(hset(("a", "1/2", "1"), ("b", "1/2", "1")))
    assert tableau.total_worlds == 2
    assert [r.world_count for r in tableau.rows] == [1, 1]
    assert dict(tableau.posterior()) == {"a": F(1, 2), "b": F(1, 2)}


def test_tableau_render_text():
    text = render_worlds(BASE).render()
    assert "200 equally likely worlds" in text
    assert text.count("G✓") == 3
    assert text.count("T✓") == 50
    assert "53 remain" in text


def test_tableau_size_cap():
    h = hset(("a", F(1, 10**9 + 7), "1"), ("b", F(10**9 + 6, 10**9 + 7), "1"))
    with pytest.raises(ValueError, match="tableau too large"):
        render_worlds(h)
    # posterior still answers exactly
    assert dict(posterior(h))["a"] == F(1, 10**9 + 7)


# Every p/q in [0, 1] with q <= 60.  Drawing q, then p, is the same value set
# as st.fractions(0, 1, max_denominator=60) at a third of its generation cost.
rational = st.integers(1, 60).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(rational, rational), min_size=1, max_size=5))
def test_tableau_reproduces_posterior_exactly(weights_liks):
    # Build priors summing to one from random positive weights.
    weights = [w for w, _ in weights_liks]
    total = sum(weights)
    if total == 0:
        weights[0] = F(1)
        total = F(1)
    priors = [F(w, 1) / total for w in weights]
    liks = [l for _, l in weights_liks]
    if all(p * l == 0 for p, l in zip(priors, liks)):
        liks[0] = F(1)
        priors[0] = priors[0] if priors[0] > 0 else F(1)
        priors = [p / sum(priors) for p in priors]
    h = HypothesisSet(
        tuple(
            Hypothesis(f"h{i}", p, l)
            for i, (p, l) in enumerate(zip(priors, liks))
        )
    )
    try:
        tableau = render_worlds(h)
    except ValueError:
        return  # too many worlds for this draw; posterior still fine
    assert tableau.posterior() == posterior(h)
    assert sum(r.world_count for r in tableau.rows) == tableau.total_worlds


# ---------------------------------------------------------------------------
# sequential updating


def test_second_round_of_evidence():
    second = sequential_update(BASE, [F(1, 50), F(1)])
    post = dict(posterior(second))
    assert post["telepathy"] == F(2500, 2503)


def test_uninformative_update_keeps_posteriors():
    updated = sequential_update(BASE, [F(1, 3), F(1, 3)])
    assert posterior(updated) == posterior(BASE)


def test_two_updates_equal_one_with_multiplied_likelihoods():
    l1 = [F(1, 50), F(1)]
    l2 = [F(2, 5), F(3, 4)]
    stepwise = sequential_update(sequential_update(BASE, l1), l2)
    combined = sequential_update(BASE, [a * b for a, b in zip(l1, l2)])
    assert posterior(stepwise) == posterior(combined)


@settings(deadline=None)
@given(
    st.lists(st.tuples(rational, rational, rational), min_size=2, max_size=4),
)
def test_sequential_update_associativity(rows):
    weights = [max(w, F(1, 60)) for w, _, _ in rows]
    total = sum(weights)
    priors = [w / total for w in weights]
    first = [max(l, F(1, 60)) for _, l, _ in rows]
    second = [max(l, F(1, 60)) for _, _, l in rows]
    h = HypothesisSet(
        tuple(Hypothesis(f"h{i}", p, l) for i, (p, l) in enumerate(zip(priors, first)))
    )
    stepwise = sequential_update(sequential_update(h, first), second)
    merged = sequential_update(h, [a * b for a, b in zip(first, second)])
    assert posterior(stepwise) == posterior(merged)


def test_sequential_update_arity_check():
    with pytest.raises(ValueError, match="likelihoods for"):
        sequential_update(BASE, [F(1, 2)])


# ---------------------------------------------------------------------------
# two-stage outcome grids


def test_independent_rain_example():
    grid = two_stage_grid(F(1, 10), F(6, 10), F(6, 10))
    assert grid.both == F(6, 100)


def test_dependent_rain_example():
    grid = two_stage_grid(F(1, 10), F(9, 10), F(5, 10))
    assert grid.both == F(9, 100)


def test_zero_first_stage():
    grid = two_stage_grid(F(0), F(3, 4), F(1, 4))
    assert grid.both == 0
    assert grid.first_only == 0


def test_two_stage_outcomes_sum_to_one():
    grid = two_stage_grid(F(2, 7), F(3, 5), F(1, 3))
    assert grid.both + grid.first_only + grid.second_only + grid.neither == 1


@given(rational, rational, rational)
def test_two_stage_marginal_identity(p1, p21, p20):
    grid = two_stage_grid(p1, p21, p20)
    assert grid.second == p1 * p21 + (1 - p1) * p20
    assert grid.first == p1


def test_two_stage_validation():
    with pytest.raises(ValueError):
        two_stage_grid(F(3, 2), F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# probability parsing


def test_parse_probability_forms():
    assert parse_probability("3/4") == F(3, 4)
    assert parse_probability("0.25") == F(1, 4)
    assert parse_probability("75%") == F(3, 4)
    assert parse_probability("1") == 1
    with pytest.raises(ValueError, match="outside"):
        parse_probability("1.5")
    with pytest.raises(ValueError):
        parse_probability("nope")


def test_decimal_input_is_exact():
    # "0.1" must become exactly 1/10, not the binary float.
    assert parse_probability("0.1") == F(1, 10)


def test_parse_probability_rejects_zero_denominators_with_value_error():
    for text in ("1/0", "0/0", "3/0%", "1/2/3", "", "%", "half"):
        with pytest.raises(ValueError):
            parse_probability(text)


def test_text_that_is_no_number_names_the_value_and_the_accepted_forms():
    refusals = (
        lambda: parse_probability("x"),
        lambda: parse_probability("nan"),
        lambda: Hypothesis("a", "x", 1),
        lambda: Hypothesis("a", 1, "x"),
        lambda: two_stage_grid("x", 1, 1),
        lambda: sequential_update(HypothesisSet.from_triples([("a", "1", "1")]), ["x"]),
    )
    for refuse in refusals:
        with pytest.raises(ValueError) as err:
            refuse()
        message = str(err.value)
        assert "'x'" in message or "'nan'" in message
        assert "1/4, 0.25 or 25%" in message and "Fraction" not in message


def test_non_numbers_that_are_not_text_name_the_argument_and_the_range():
    hset = HypothesisSet.from_triples([("a", "1", "1")])
    refusals = (
        (lambda: two_stage_grid(float("inf"), 1, 1), "first-stage probability"),
        (lambda: Hypothesis("a", float("nan"), 1), "prior"),
        (lambda: Hypothesis("a", None, 1), "prior"),
        (lambda: Hypothesis("a", 1, float("-inf")), "likelihood"),
        (lambda: sequential_update(hset, [float("nan")]), "likelihood"),
    )
    for refuse, what in refusals:
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value).startswith(f"{what} must be a number in [0, 1], got ")
