import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridwatch.detection import (
    Label,
    _quantile,
    correlate,
    detect_region,
    low_report_correlations,
    low_report_filter,
    most_negative,
    pearson,
    series_from_arrays,
)
from gridwatch.errors import ConfigurationError, InputError
from reference import classify


def oracle_pearson(x, y):
    """Independent covariance/variance evaluation (population moments)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cov = np.mean((x - x.mean()) * (y - y.mean()))
    vx = np.mean((x - x.mean()) ** 2)
    vy = np.mean((y - y.mean()) ** 2)
    if vx == 0 or vy == 0:
        return math.nan
    return cov / np.sqrt(vx * vy)


def arrays_of(pairs_by_pos):
    """The region size (up to the highest position given) and the (position,
    report, leakage) arrays of every position's pairs, in the order given."""
    n = max(pairs_by_pos, default=-1) + 1
    pos, x, y = [], [], []
    for p, (r, l) in pairs_by_pos.items():
        pos += [p] * len(r)
        x += list(r)
        y += list(l)
    return n, np.array(pos, dtype=np.int64), np.array(x, dtype=float), np.array(y, dtype=float)


def correlations_of(pairs_by_pos):
    """(counts, corr) by position, as run_trial hands them to the detectors."""
    n, pos, x, y = arrays_of(pairs_by_pos)
    return correlate(pos, x, y, n)


# Inputs that are not two equal-length vectors: numpy would broadcast one onto the other.
MISMATCHED = [([5, 5], [0.1]), ([5], [0.1, -0.2]), ([[5, 5]], [[0.1, -0.2]]), (5, 0.1)]
MISMATCH_IDS = ["short_corr", "short_counts", "2d", "scalars"]


class TestPearson:
    def test_exact_positive_relation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_negative_relation(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_hand_derived_value(self):
        # centered dot 4.0 over norms sqrt(5)*sqrt(5)
        x, y = [1, 2, 3, 4], [1, 3, 2, 4]
        assert oracle_pearson(x, y) == pytest.approx(0.8, abs=1e-15)
        assert pearson(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_oracle_equivalence_short_vectors(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = rng.integers(2, 11)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            expected = oracle_pearson(x, y)
            assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_undefined_cases(self, rng):
        assert math.isnan(pearson([], []))
        assert math.isnan(pearson([1.0], [2.0]))
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
        # a constant whose mean rounds: x - x.mean() is not exactly zero
        assert math.isnan(pearson([0.1, 0.1, 0.1], [1.0, 2.0, 3.0]))

    def test_overflow_is_undefined_not_a_correlation(self):
        # perfectly anti-correlated, but the centred sums overflow to inf;
        # clamping the NaN quotient used to report +1.0
        assert math.isnan(pearson([0, 1e200, 2e200], [2e200, 1e200, 0]))
        # only x overflows: the quotient is a finite 0.0, still no evidence
        assert math.isnan(pearson([0, 1e200, 2e200], [0.0, 1.0, 2.0]))
        assert math.isnan(pearson([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            pearson([1.0, 2.0], [1.0])

    def test_symmetry(self, rng):
        for _ in range(50):
            x = rng.normal(size=8)
            y = rng.normal(size=8)
            assert pearson(x, y) == pearson(y, x)

    @given(seed=st.integers(0, 2**32 - 1),
           a=st.floats(min_value=-10, max_value=10),
           b=st.floats(min_value=-100, max_value=100))
    @settings(max_examples=150, deadline=None)
    def test_scale_shift_sign_invariance(self, seed, a, b):
        if abs(a) < 1e-3:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = pearson(x, y)
        scaled = pearson(a * x + b, y)
        assert scaled == pytest.approx(np.sign(a) * base, abs=1e-9)

    def test_multiplicative_attack_sign_identity(self, rng):
        # r = alpha*c and l = (1-alpha)*c correlate at exactly sign(alpha*(1-alpha))
        c = rng.uniform(0.5, 1.5, 100)
        for alpha, sign in ((0.1, 1.0), (0.9, 1.0), (10.0, -1.0), (1.5, -1.0)):
            corr = pearson(alpha * c, (1 - alpha) * c)
            assert corr == pytest.approx(sign, abs=1e-9)

    def test_clamped_into_unit_interval(self, rng):
        for _ in range(200):
            c = rng.normal(size=5)
            corr = pearson(c * 1e8, c * 1e-8)
            assert -1.0 <= corr <= 1.0

    def test_benign_null_mean_near_zero(self):
        # independent pairs: mean correlation over seeds within 3/sqrt(trials)
        trials = 400
        rng = np.random.default_rng(17)
        corrs = [pearson(rng.normal(size=29), rng.normal(size=29)) for _ in range(trials)]
        assert abs(np.mean(corrs)) < 3 / np.sqrt(trials)

    def test_random_offset_attack_negative_sign(self, rng):
        # r = c - theta, l = theta, no clipping: corr must be strictly negative
        c = rng.uniform(0.5, 1.5, 2000)
        theta = rng.uniform(0.0, 0.5, 2000)
        assert pearson(c - theta, theta) < -0.01


class TestClassify:
    @pytest.mark.parametrize(
        "corr,label",
        [
            (1.0, Label.MALICIOUS_UNDER),
            (0.5, Label.MALICIOUS_UNDER),
            (0.49, Label.BENIGN),
            (0.0, Label.BENIGN),
            (-0.49, Label.BENIGN),
            (-0.5, Label.MALICIOUS_OVER),
            (-1.0, Label.MALICIOUS_OVER),
            (math.nan, Label.INSUFFICIENT_DATA),
        ],
    )
    def test_threshold_branches(self, corr, label):
        report = detect_region(np.array([5]), np.array([corr]), th=0.5, min_samples=5)
        assert report.labels.tolist() == [label]
        assert np.array_equal(report.corrs, [corr], equal_nan=True)
        assert classify(corr, th=0.5) == label

    @pytest.mark.parametrize("th", [0.0, -0.1, 1.1])
    def test_threshold_domain(self, th):
        with pytest.raises(ConfigurationError):
            detect_region(np.array([5]), np.array([0.2]), th=th)
        with pytest.raises(ConfigurationError):
            classify(0.2, th=th)


# Grid values (multiples of 1/8 up to 64): group sums are exact in any order,
# so a constant group centres to exactly zero in both forms and the only
# difference left is the summation order of the centred products.
grid_values = st.integers(-512, 512).map(lambda k: k / 8.0)


@st.composite
def grouped_pairs(draw):
    n = draw(st.integers(1, 8))
    size = draw(st.integers(0, 60))
    pos = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    x = draw(st.lists(grid_values, min_size=size, max_size=size))
    y = draw(st.lists(grid_values, min_size=size, max_size=size))
    # one group with a constant report and one with a constant leakage
    constant_x, constant_y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    x = [x[0] if x and p == constant_x else v for p, v in zip(pos, x)]
    y = [y[0] if y and p == constant_y else v for p, v in zip(pos, y)]
    return n, np.array(pos, dtype=np.int64), np.array(x), np.array(y)


class TestCorrelate:
    @given(grouped_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_pearson_per_group(self, case):
        n, pos, x, y = case
        counts, corr = correlate(pos, x, y, n)
        assert list(counts) == [int(np.sum(pos == g)) for g in range(n)]
        for g in range(n):
            want = pearson(x[pos == g], y[pos == g])
            if math.isnan(want):
                assert math.isnan(corr[g]), g
            else:
                assert abs(corr[g] - want) <= 1e-12, g

    def test_every_undefined_kind(self):
        pos = np.array([1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7])
        x = np.array([1.0, 1.0, 2.0, 1.0, 2.0, 3.0, 0.0, 1e200, 2e200, 1.0, 2.0, 3.0,
                      0.0, 1e200, 2e200, 0.1, 0.1, 0.1])
        y = np.array([1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 2e200, 1e200, 0.0, 3.0, 2.0, 1.0,
                      0.0, 1.0, 2.0, 1.0, 2.0, 3.0])
        counts, corr = correlate(pos, x, y, 8)
        assert list(counts) == [0, 1, 2, 3, 3, 3, 3, 3]
        # empty, single sample, constant leakage, overflow (of both sides, or
        # of one side only) and a constant report whose mean rounds are
        # undefined
        assert [math.isnan(c) for c in corr] == [
            True, True, False, True, True, False, True, True
        ]
        assert corr[2] == pytest.approx(1.0, abs=1e-12)
        assert corr[5] == pytest.approx(-1.0, abs=1e-12)


class TestDetectRegion:
    def test_min_samples_gate(self):
        data = {0: ([1.0, 2.0], [1.0, 2.0]), 1: ([1, 2, 3, 2, 1], [3, 1, 2, 2, 3])}
        report = detect_region(*correlations_of(data), th=0.5, min_samples=5)
        assert report.labels[0] == Label.INSUFFICIENT_DATA
        assert math.isnan(report.corrs[0])
        assert report.counts[0] == 2
        assert not math.isnan(report.corrs[1])

    def test_constant_leakage_is_not_evidence(self):
        data = {0: ([1, 2, 3, 4, 5], [2, 2, 2, 2, 2])}
        report = detect_region(*correlations_of(data), min_samples=5)
        assert report.labels.tolist() == [Label.INSUFFICIENT_DATA]

    def test_perfect_underreporter_flagged(self, rng):
        c = rng.uniform(0.5, 1.5, 30)
        data = {0: (0.1 * c, 0.9 * c), 1: (rng.uniform(0.5, 1.5, 30), rng.normal(size=30))}
        report = detect_region(*correlations_of(data), th=0.5, min_samples=5)
        assert report.labels[0] == Label.MALICIOUS_UNDER
        assert report.corrs[0] == pytest.approx(1.0, abs=1e-9)

    def test_verdicts_in_position_order(self):
        # pairs of positions 7, 3, 5 in that order: n = 8, and the positions
        # without pairs have no evidence
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        data = {7: (x[:7], x[:7]), 3: (x[:3], x[:3]), 5: (x[:5], x[:5])}
        report = detect_region(*correlations_of(data), min_samples=5)
        assert len(report.labels) == len(report.corrs) == 8
        assert report.counts.tolist() == [0, 0, 0, 3, 0, 5, 0, 7]
        under, none = Label.MALICIOUS_UNDER, Label.INSUFFICIENT_DATA
        assert report.labels.tolist() == [none] * 5 + [under, none, under]
        flags = np.isin(report.labels, (Label.MALICIOUS_UNDER, Label.MALICIOUS_OVER))
        assert np.flatnonzero(flags).tolist() == [5, 7]
        assert math.isnan(report.corrs[4]) and report.corrs[np.int64(7)] == pytest.approx(1.0)

    @given(st.data(), st.sampled_from([0.05, 0.3, 0.5, 1.0]), st.integers(2, 8))
    @settings(max_examples=200, deadline=None)
    def test_labels_match_scalar_classify(self, data, th, min_samples):
        n = data.draw(st.integers(1, 12))
        counts = np.array(data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)))
        edge = st.sampled_from([np.nan, th, -th, 1.0, -1.0, 0.0])
        values = st.one_of(edge, st.floats(-1.0, 1.0))
        corr = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        report = detect_region(counts, corr, th=th, min_samples=min_samples)
        assert len(report.labels) == len(report.corrs) == n
        for pos in range(n):
            count, value = int(counts[pos]), float(corr[pos])
            evidence = count >= min_samples and not math.isnan(value)
            want = value if evidence else math.nan
            assert np.array_equal(report.corrs[pos], want, equal_nan=True)
            assert report.labels[pos] == classify(want, th)
            assert report.counts[pos] == count

    def test_min_samples_domain(self):
        with pytest.raises(ConfigurationError):
            detect_region(*correlations_of({}), min_samples=1)

    def test_low_report_path_matches_scalar_loop(self, rng):
        data = {
            cid: (np.maximum(rng.uniform(0.5, 1.5, 40) - 0.6, 0.0), rng.normal(size=40))
            for cid in range(4)
        }
        data[4] = ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])  # below min_samples
        data[5] = (rng.uniform(0.5, 1.5, 12), rng.normal(size=12))  # keeps 3 of its 12 pairs
        data[6] = ([0.1] + [0.3] * 5 + [1.0, 2.0], rng.normal(size=8))  # ties at the cutoff keep 6 of 8
        data[7] = ([], [])
        n, pos, x, y = arrays_of(data)
        series = series_from_arrays(pos, x, y, n)
        corr = low_report_correlations(series, 0.25, 5)
        for p, (r, l) in enumerate(data.values()):
            kept = low_report_filter(r, l, 0.25) if len(r) else ([], [])
            want = pearson(*kept) if len(kept[0]) >= 5 else math.nan
            assert np.array_equal(corr[p], want, equal_nan=True)
        assert np.isnan(corr[[4, 5, 7]]).all() and not np.isnan(corr[6])

    def test_low_report_correlation_needs_min_samples_kept_pairs(self):
        # 5 pairs keep 2 at q = 0.25, whose correlation would be -1 by construction
        reports, leakages = np.array([0.1, 0.2, 0.3, 0.4, 0.5]), np.array([0.9, 0.8, 0.3, 0.1, 0.7])
        assert len(low_report_filter(reports, leakages, 0.25)[0]) == 2
        corr = low_report_correlations([(reports, leakages)], 0.25, 5)
        assert np.isnan(corr).all()
        report = detect_region(np.array([5]), corr, min_samples=5)
        assert report.labels.tolist() == [Label.INSUFFICIENT_DATA]

    @pytest.mark.parametrize("counts, corr", MISMATCHED, ids=MISMATCH_IDS)
    def test_mismatched_inputs_are_refused(self, counts, corr):
        # [5, 5] against [0.1] once gave consumer 1 consumer 0's correlation
        with pytest.raises(InputError, match="detect_region needs two equal-length vectors"):
            detect_region(np.array(counts), np.array(corr))


class TestMostNegative:
    def test_argmin(self):
        data = {
            1: ([1, 2, 3, 4, 5], [5, 4, 3, 2, 1.5]),   # strongly negative
            2: ([1, 2, 3, 4, 5], [1, 2.2, 2.8, 4, 5]),  # positive
            3: ([1, 2, 3, 4, 5], [2, 1, 3, 5, 4]),       # mild
        }
        assert most_negative(*correlations_of(data), min_samples=5) == 1

    def test_tie_break_is_lowest_id(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert most_negative(*correlations_of({4: (x, y), 2: (x, y)}), min_samples=5) == 2

    @given(positions=st.lists(st.integers(0, 1000), min_size=2, max_size=12, unique=True),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ties_go_to_lowest_position_in_any_order(self, positions, data):
        # the pairs come in the drawn order of positions, not position order
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        tied = data.draw(st.sets(st.sampled_from(positions), min_size=2))
        pairs = {
            pos: (x, [5.0, 4.0, 3.0, 2.0, 1.0] if pos in tied else [1.0, 3.0, 2.0, 5.0, 4.0])
            for pos in positions
        }
        assert most_negative(*correlations_of(pairs), min_samples=5) == min(tied)

    def test_no_qualified_consumer(self):
        assert most_negative(*correlations_of({0: ([1.0], [1.0])}), min_samples=5) is None
        assert most_negative(*correlations_of({}), min_samples=5) is None

    @pytest.mark.parametrize("counts, corr", MISMATCHED, ids=MISMATCH_IDS)
    def test_mismatched_inputs_are_refused(self, counts, corr):
        with pytest.raises(InputError, match="most_negative needs two equal-length vectors"):
            most_negative(np.array(counts), np.array(corr))


class TestLowReportFilter:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0]),
                st.floats(-3, 3).map(lambda v: round(v, 1)),  # ties
                st.floats(),
            ),
            min_size=1,
            max_size=60,
        ),
        st.one_of(
            st.floats(0, 1, exclude_min=True, exclude_max=True),
            st.sampled_from([5e-324, 1e-300, 1e-17, 1 - 1e-12, 1 - 2**-53]),
        ),
    )
    @example([-0.0], 0.25)
    @example([0.0, -0.0, -0.0], 0.75)
    @example([math.inf, -math.inf], 0.5)
    @example([1.0] * 7 + [math.nan], 0.25)
    @settings(max_examples=500, deadline=None)
    def test_cutoff_is_numpys_quantile_bit_for_bit(self, values, q):
        x = np.array(values)
        with np.errstate(all="ignore"):  # inf - inf
            want = np.quantile(x, q)
        assert np.float64(_quantile(x, q)).tobytes() == np.float64(want).tobytes()

    def test_all_equal_reports_all_retained(self):
        r, l = low_report_filter([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], q=0.5)
        assert len(r) == 3

    def test_median_cut(self):
        r, l = low_report_filter([0.0, 0.0, 5.0, 6.0], [1.0, 2.0, 3.0, 4.0], q=0.5)
        assert list(r) == [0.0, 0.0]
        assert list(l) == [1.0, 2.0]

    def test_pairing_preserved(self):
        r, l = low_report_filter([3.0, 1.0, 2.0], [30.0, 10.0, 20.0], q=0.4)
        assert list(l) == [10.0 * v for v in r]

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            low_report_filter([], [], q=0.5)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2])
    def test_quantile_domain(self, q):
        with pytest.raises(ConfigurationError):
            low_report_filter([1.0], [1.0], q=q)

    def test_filter_improves_fixed_offset_correlation(self):
        # fixed-offset attacker (eta below the clipping knee), desk scale:
        # filtering to the low-report pairs should not hurt the correlation
        # in at least 90% of seeded trials
        trials = 100
        improved = 0
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            c = rng.uniform(0.5, 1.5, 200)
            r = np.maximum(c - 0.6, 0.0)
            l = c - r
            filtered = pearson(*low_report_filter(r, l, q=0.25))
            full = pearson(r, l)
            if not math.isnan(filtered) and filtered >= full:
                improved += 1
        assert improved >= 0.9 * trials

    @pytest.mark.parametrize("reports, leakages", [
        ([1.0, 2.0, 3.0], [1.0, 2.0]),
        ([1.0], [1.0, 2.0]),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),  # not flattened
    ], ids=["short_leakages", "short_reports", "2d"])
    def test_mismatched_inputs_are_refused(self, reports, leakages):
        with pytest.raises(InputError, match="low_report_filter needs two equal-length vectors"):
            low_report_filter(reports, leakages, q=0.5)
