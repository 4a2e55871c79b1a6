"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion (the -v test status is the pass/fail record; -s also shows the
numbers behind it).
"""

import time
from fractions import Fraction

import pytest

from resamplekit.calibrate import (
    calibrate_from_interval,
    calibrate_from_p,
)
from resamplekit.cli import main
from resamplekit.data import GroupedSample, get_fixture
from resamplekit.resampling import (
    bootstrap,
    diagnostics,
    exact_shuffle_p,
    percentile_interval,
    shuffle_test,
    tail_probability,
)
from resamplekit.simulate import (
    BernoulliExperiment,
    exact_binomial,
    simulate_bernoulli,
    simulate_poll,
)
from resamplekit.worlds import (
    HypothesisSet,
    posterior,
    render_worlds,
    sequential_update,
)

F = Fraction
VEG6 = get_fixture("veg6").payload
VEG9 = get_fixture("veg9").payload
SKEWED9 = get_fixture("skewed9").payload
POLL500 = get_fixture("poll500").payload


def _announce(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_exact_shuffle_test_on_veg6():
    started = time.perf_counter()
    exact = exact_shuffle_p(VEG6, "mean-diff", "two-sided")
    assert exact == F(6, 20) == F(3, 10)
    report = shuffle_test(VEG6, "mean-diff", n_resamples=100_000, seed=0)
    assert abs(report.p_value - 0.30) < 0.005
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(
        1,
        f"exact p = {exact} exactly; Monte Carlo at N=100000 gave "
        f"{report.p_value} (|diff| = {abs(report.p_value - 0.3):.4f} < 0.005) "
        f"in {elapsed:.2f}s",
    )


def test_criterion_02_bootstrap_veg9_mean():
    tails = []
    intervals = []
    for seed in range(20):
        started = time.perf_counter()
        dist = bootstrap(VEG9, "mean", n_resamples=1000, seed=seed)
        tail = tail_probability(dist, 50)
        low, high = percentile_interval(dist, 0.95)
        assert time.perf_counter() - started < 1.0
        assert 0.93 <= tail <= 0.97
        assert abs(low - 49) <= 2
        assert abs(high - 72) <= 2
        tails.append(tail)
        intervals.append((low, high))
    _announce(
        2,
        f"tail P(>=50) in [{min(tails)}, {max(tails)}] over 20 seeds; "
        f"intervals within +-2 of (49, 72)",
    )


def test_criterion_03_bootstrap_skewed9_mean():
    # N=10000 so the interval endpoints are stable across seeds; the
    # converged interval is about (68.2, 97.6), inside the +-2 band.
    for seed in range(5):
        dist = bootstrap(SKEWED9, "mean", n_resamples=10_000, seed=seed)
        low, high = percentile_interval(dist, 0.95)
        assert abs(low - 69) <= 2
        assert abs(high - 97) <= 2
        assert tail_probability(dist, 50) >= 0.995
        diag = diagnostics(dist, scale_bounds=(0, 100))
        assert diag.skew_flagged
        assert diag.out_of_bounds_fraction > 0
        assert diag.bounds_flagged
    _announce(
        3,
        f"interval within +-2 of (69, 97) over 5 seeds; tail P(>=50) >= 0.995; "
        f"asymmetry flag on (skewness {diag.skewness:.2f}) and reflected "
        f"out-of-scale mass {diag.out_of_bounds_fraction:.3f} > 0 for bounds (0, 100)",
    )


def test_criterion_04_calibration_numbers():
    checks = []

    normal = calibrate_from_interval(49, 72)
    p = normal.prob_greater(50)
    assert p == pytest.approx(0.96, abs=0.005)
    checks.append(f"CI(49,72) P(>50)={p:.4f}")

    student = calibrate_from_interval(49, 72, family="t", df=8)
    gap = abs(p - student.prob_greater(50))
    assert gap == pytest.approx(0.0029, abs=0.001)
    checks.append(f"t-vs-normal gap={gap * 100:.2f}pp")

    diff = calibrate_from_p(10, 0.02, 0)
    assert diff.prob_greater(0) == pytest.approx(0.99, abs=0.005)
    assert diff.prob_greater(5) == pytest.approx(0.88, abs=0.01)
    checks.append(f"p-route P(>0)={diff.prob_greater(0):.3f}, P(>5)={diff.prob_greater(5):.3f}")

    mortality_p = calibrate_from_p(0.88, 0.04, 1)
    assert mortality_p.prob_less(1) == pytest.approx(0.98, abs=0.01)
    mortality_ci = calibrate_from_interval(0.79, 0.99)
    assert mortality_ci.prob_less(1) == pytest.approx(0.98, abs=0.01)
    checks.append("mortality 98% both routes")

    readmission_ci = calibrate_from_interval(0.91, 1.02)
    readmission_p = calibrate_from_p(0.96, 0.20, 1)
    assert readmission_ci.prob_less(1) == pytest.approx(0.89, abs=0.01)
    assert readmission_p.prob_less(1) == pytest.approx(0.90, abs=0.01)
    meaningful = 1 - readmission_p.prob_outside(0.9, 1.1)
    assert meaningful == pytest.approx(0.98, abs=0.015)
    checks.append(f"readmission 89%/90%, |diff|<10% prob={meaningful:.3f}")

    survival = calibrate_from_p(3.9, 0.003, 0)
    assert survival.prob_greater(0) == pytest.approx(0.9985, abs=0.0005)
    checks.append(f"tiny-p confidence={survival.prob_greater(0):.4f}")

    turnover = calibrate_from_interval(-3060, -500)
    assert turnover.prob_less(0) == pytest.approx(0.997, abs=0.002)
    checks.append(f"negative-coefficient prob={turnover.prob_less(0):.4f}")

    _announce(4, "; ".join(checks))


def test_criterion_05_exact_bayes_numbers():
    base = HypothesisSet.from_triples(
        [("guessing", "3/4", "1/50"), ("telepathy", "1/4", "1")]
    )
    post = dict(posterior(base))
    assert post["telepathy"] == F(50, 53)
    assert post["guessing"] == F(3, 53)

    equal = HypothesisSet.from_triples(
        [("guessing", "1/2", "1/50"), ("telepathy", "1/2", "1")]
    )
    assert dict(posterior(equal))["telepathy"] == F(50, 51)

    skeptical = HypothesisSet.from_triples(
        [("guessing", "99/100", "1/50"), ("telepathy", "1/100", "1")]
    )
    assert dict(posterior(skeptical))["telepathy"] == F(50, 149)

    partial = HypothesisSet.from_triples(
        [("guessing", "3/4", "1/50"), ("telepathy", "1/4", "1/2")]
    )
    assert dict(posterior(partial))["telepathy"] == F(25, 28)

    disease = HypothesisSet.from_triples(
        [("healthy", "99/100", "5/100"), ("disease", "1/100", "95/100")]
    )
    assert dict(posterior(disease))["disease"] == F(19, 118)

    second = sequential_update(base, [F(1, 50), F(1)])
    assert dict(posterior(second))["telepathy"] == F(2500, 2503)

    tableau = render_worlds(base)
    rows = {r.name: r for r in tableau.rows}
    assert tableau.total_worlds == 200
    assert rows["guessing"].surviving_count == 3
    assert rows["telepathy"].surviving_count == 50

    disease_tableau = render_worlds(disease)
    rows = {r.name: r for r in disease_tableau.rows}
    assert disease_tableau.total_worlds == 2000
    assert rows["disease"].world_count == 20
    assert rows["disease"].surviving_count == 19
    assert rows["healthy"].surviving_count == 99

    _announce(
        5,
        "posteriors 50/53, 3/53, 50/51, 50/149, 25/28, 19/118, 2500/2503 all "
        "exact; tableaux 200 and 2000 worlds with survivors (3, 50) and (19, 99)",
    )


def test_criterion_06_monte_carlo_binomials():
    assert exact_binomial(8, 4, F(1, 2)) == F(70, 256)
    assert exact_binomial(3, 2, F(1, 2)) == F(3, 8)
    assert exact_binomial(2, 2, F(1, 2)) == F(1, 4)
    experiment = BernoulliExperiment(8, F(1, 2), "exactly", 4, runs=1000)
    estimate = simulate_bernoulli(experiment, seed=0)
    assert abs(estimate - 70 / 256) < 0.04
    _announce(
        6,
        f"exact 70/256, 3/8, 1/4; simulation at runs=1000 seed=0 gave "
        f"{estimate} (|diff| = {abs(estimate - 70 / 256):.4f} < 0.04)",
    )


def test_criterion_07_poll_experiments():
    results = []
    cases = [
        (20, "without-replacement", (0.40, 0.80), 0.05),
        (100, "without-replacement", (0.51, 0.68), 0.03),
        (100, "with-replacement", (0.51, 0.69), 0.03),
        (1000, "with-replacement", (0.57, 0.63), 0.02),
    ]
    for size, mode, (want_lo, want_hi), tolerance in cases:
        low, high = simulate_poll(POLL500, size, mode, 1000, seed=0).interval()
        assert abs(low - want_lo) <= tolerance
        assert abs(high - want_hi) <= tolerance
        results.append(f"k={size} {mode.split('-')[0]} ({low:.3f}, {high:.3f})")
    _announce(7, "; ".join(results))


def test_criterion_08_substitute_properties_for_unpublished_data():
    # (a) More rows, same observed difference: stronger evidence.
    group_a = [58.0, 66.0, 61.0, 54.0, 69.0, 57.0, 63.0, 51.0]
    group_b = [52.0, 45.0, 57.0, 48.0, 60.0, 42.0, 55.0, 49.0]

    def grouped(a, b):
        return GroupedSample.from_rows([(v, "a") for v in a] + [(v, "b") for v in b])

    p = lambda d: shuffle_test(d, n_resamples=10_000, seed=0).p_value
    p_dup = p(grouped(group_a * 2, group_b * 2))
    p_orig = p(grouped(group_a, group_b))
    p_half = p(grouped(group_a[:4], group_b[:4]))
    assert p_dup < p_orig < p_half

    # (b) Calibrating from the bootstrap's own interval reproduces the
    # bootstrap's tail probability within 2 points.
    gaps = []
    for seed in range(10):
        dist = bootstrap(VEG9, "mean", n_resamples=1000, seed=seed)
        tail = tail_probability(dist, 50)
        low, high = percentile_interval(dist, 0.95)
        calibrated = calibrate_from_interval(low, high).prob_greater(50)
        gaps.append(abs(calibrated - tail))
        assert gaps[-1] < 0.02
    _announce(
        8,
        f"(a) p ordering {p_dup} < {p_orig} < {p_half} at N=10000 seed=0; "
        f"(b) bootstrap-vs-calibration gap max {max(gaps):.4f} < 0.02 over 10 seeds",
    )


def test_criterion_09_determinism(capsys, scalar_oracle):
    argv = ["bootstrap", "--fixture", "veg6", "--threshold", "0",
            "--n", "500", "--seed", "0"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second and first

    vector = bootstrap(VEG6, n_resamples=400, seed=0)
    serial = scalar_oracle(lambda: bootstrap(VEG6, n_resamples=400, seed=0))
    assert vector.values == serial.values
    assert vector.redraw_count == serial.redraw_count

    vector_test = shuffle_test(VEG6, n_resamples=400, seed=0)
    serial_test = scalar_oracle(lambda: shuffle_test(VEG6, n_resamples=400, seed=0))
    assert vector_test == serial_test

    vector_poll = simulate_poll(POLL500, 25, "without-replacement", 100, 0)
    serial_poll = scalar_oracle(lambda: simulate_poll(POLL500, 25, "without-replacement", 100, 0))
    assert vector_poll.proportions == serial_poll.proportions

    with capsys.disabled():
        _announce(
            9,
            "equal manifests give byte-identical reports; lockstep and "
            "one-replicate-at-a-time execution give identical value lists "
            "(bootstrap with redraws, shuffle test, polls)",
        )
