"""Unit tests for experiment metrics and text reporting."""

import dataclasses
import math
import time
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.oracle import oracle_allocation
from repro.experiments.metrics import (
    ALPHA,
    Claim,
    RunMetrics,
    _binomial_row,
    coefficient_of_variation,
    group_by,
    metrics_from_trace,
    pair,
    percentiles,
    summarize_policy,
    tally,
    verdict,
)
from repro.experiments.reporting import (
    ExperimentReport,
    ascii_table,
    claims_table,
    format_cell,
    sparkline,
)
from repro.jobs.trace import OUTCOMES, RunTrace, TaskRecord
from tests.test_runtime_batch_path import CASES, run_case


class TestBasicStats:
    def test_cov(self):
        assert coefficient_of_variation([10.0, 10.0, 10.0]) == 0.0
        assert coefficient_of_variation([5.0, 15.0]) == pytest.approx(0.5)

    def test_cov_needs_samples(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([1.0])

    def test_cov_zero_mean(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([0.0, 0.0])

    def test_percentiles(self):
        values = list(range(101))
        assert percentiles(values, (50, 90)) == [50.0, 90.0]

    def test_percentiles_empty(self):
        with pytest.raises(ValueError):
            percentiles([], (50,))


def make_trace(duration=600.0, deadline=1200.0, allocation=10, cpu=3000.0):
    trace = RunTrace(job_name="j", start_time=0.0, deadline=deadline)
    trace.mark_allocation(0.0, allocation)
    trace.add(TaskRecord("s", 0, 0, 0.0, 0.0, cpu))
    trace.end_time = duration
    return trace


class TestRunMetrics:
    def test_metrics_from_trace(self):
        # cpu 3000s, deadline 1200s -> oracle ceil(2.5) = 3 tokens.
        metrics = metrics_from_trace(make_trace(), policy="jockey")
        assert metrics.oracle_tokens == 3
        assert metrics.met_deadline
        assert metrics.relative_latency == pytest.approx(0.5)
        # allocation 10 for 600s = 6000 token-seconds; above-oracle part
        # (10-3)*600 = 4200 -> impact 0.7.
        assert metrics.impact_above_oracle == pytest.approx(0.7)

    def test_requires_deadline(self):
        trace = make_trace()
        trace.deadline = None
        with pytest.raises(ValueError):
            metrics_from_trace(trace, policy="x")

    def test_summarize_policy(self):
        runs = [
            metrics_from_trace(make_trace(duration=600.0), policy="p"),
            metrics_from_trace(make_trace(duration=1300.0), policy="p"),
        ]
        summary = summarize_policy(runs)
        assert summary.runs == 2
        assert summary.fraction_missed == 0.5
        assert summary.fraction_met == 0.5

    def test_summarize_rejects_mixed(self):
        runs = [
            metrics_from_trace(make_trace(), policy="a"),
            metrics_from_trace(make_trace(), policy="b"),
        ]
        with pytest.raises(ValueError):
            summarize_policy(runs)

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_policy([])

    def test_group_by(self):
        runs = [
            metrics_from_trace(make_trace(), policy="a"),
            metrics_from_trace(make_trace(), policy="b"),
            metrics_from_trace(make_trace(), policy="a"),
        ]
        grouped = group_by(runs, lambda m: m.policy)
        assert len(grouped["a"]) == 2
        assert len(grouped["b"]) == 1


def four_scans(trace: RunTrace):
    """What ``RunTrace.tally`` counts, as the four scans it replaced count
    it, kept verbatim: ``total_cpu_seconds``, ``spare_fraction`` and
    ``metrics_from_trace``'s two outcome counts."""
    cpu = sum(r.run_time for r in trace.records if r.succeeded)
    ok = trace.successful_records()
    if not ok:
        spare = 0.0
    else:
        spare = sum(1 for r in ok if r.used_spare_token) / len(ok)
    evictions = sum(1 for r in trace.records if r.outcome == "evicted")
    failures = sum(1 for r in trace.records if r.outcome == "failed")
    return cpu, spare, evictions, failures


def replaced_metrics_from_trace(trace: RunTrace, *, policy: str) -> RunMetrics:
    """``metrics_from_trace`` as it was before it read the records once,
    kept verbatim but for the four scans' values, taken from
    :func:`four_scans`."""
    if trace.deadline is None:
        raise ValueError("trace has no deadline")
    cpu, spare, evictions, failures = four_scans(trace)
    oracle = oracle_allocation(cpu, trace.deadline)
    alloc_seconds = trace.allocation_seconds()
    excess = trace.allocation_excess_seconds(oracle)
    impact = excess / alloc_seconds if alloc_seconds > 0 else 0.0
    return RunMetrics(
        job=trace.job_name,
        policy=policy,
        deadline_seconds=trace.deadline,
        duration_seconds=trace.duration,
        cpu_seconds=cpu,
        oracle_tokens=oracle,
        allocation_token_seconds=alloc_seconds,
        impact_above_oracle=impact,
        spare_fraction=spare,
        evictions=evictions,
        failures=failures,
    )


@st.composite
def finished_traces(draw):
    """A finished trace with a deadline: attempts of every outcome (or of
    none but ok's complement, so no successful set) at arbitrary times."""
    outcomes = draw(st.sampled_from([OUTCOMES, OUTCOMES[1:]]))
    times = st.floats(0.0, 5_000.0)
    trace = RunTrace(job_name="j", start_time=0.0, deadline=draw(st.floats(10.0, 3_000.0)))
    for t, tokens in sorted(draw(st.lists(st.tuples(times, st.integers(0, 40)), max_size=6))):
        trace.mark_allocation(t, tokens)
    for i in range(draw(st.integers(0, 60))):
        ready, start, end = sorted(draw(st.tuples(times, times, times)))
        trace.add(TaskRecord("s", i, 0, ready, start, end, draw(st.sampled_from(outcomes)),
                             used_spare_token=draw(st.booleans())))
    trace.end_time = draw(st.floats(0.0, 6_000.0))
    return trace


class TestOnePassMetricsAreTheFourScans:
    """``RunTrace.tally``, and the ``metrics_from_trace``,
    ``total_cpu_seconds`` and ``spare_fraction`` that read it, return, bit
    for bit, what the four scans it replaced return."""

    @staticmethod
    def assert_same(trace):
        ours = metrics_from_trace(trace, policy="p")
        theirs = replaced_metrics_from_trace(trace, policy="p")
        # repr round-trips a float, so equal reprs are equal bits.
        assert repr(ours) == repr(theirs)
        cpu, spare, evictions, failures = four_scans(trace)
        assert repr(tuple(trace.tally())) == repr((cpu, spare, evictions, failures))
        assert repr(trace.total_cpu_seconds()) == repr(cpu)
        assert repr(trace.spare_fraction()) == repr(spare)

    @given(trace=finished_traces())
    def test_equal_metrics(self, trace):
        self.assert_same(trace)

    def test_no_successful_attempt(self):
        trace = make_trace()
        trace.records[0] = trace.records[0]._replace(outcome="failed")
        self.assert_same(trace)
        assert metrics_from_trace(trace, policy="p").spare_fraction == 0.0

    def test_a_run_with_every_outcome(self):
        trace = run_case(CASES[6])
        assert {r.outcome for r in trace.records} == set(OUTCOMES)
        self.assert_same(trace)


class TestReporting:
    def test_ascii_table_aligns(self):
        text = ascii_table(["name", "value"], [["a", 1], ["bcd", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [["only-one"]])

    def test_format_cell(self):
        assert format_cell(3) == "3"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(2.0) == "2"
        assert format_cell(1234.6) == "1,235"
        assert format_cell(float("nan")) == "nan"

    def test_report_render(self):
        report = ExperimentReport("fig0", "demo", headers=["a"], rows=[])
        report.add_row(1)
        report.add_note("hello")
        report.add_section("extra text")
        text = report.render()
        assert "fig0" in text and "hello" in text and "extra text" in text

    def test_sparkline_length_and_chars(self):
        line = sparkline([0, 1, 2, 3, 4, 5], width=6)
        assert len(line) == 6
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_constant(self):
        assert set(sparkline([5, 5, 5])) <= set("▁▂▃▄▅▆▇█ ")


HIGHER = Claim("a beats b", "paper", itemgetter("v"), "a", "b")


def rows_of(values, prefix=""):
    """``(key, arm, record)`` rows from one ``(a, b)`` value pair per key."""
    rows = []
    for i, (a, b) in enumerate(values):
        rows += [(f"{prefix}k{i}", "a", {"v": a}), (f"{prefix}k{i}", "b", {"v": b})]
    return rows


class TestClaims:
    """The judge on synthetic tallies: the sign test against a hand-computed
    table, orientation, ties, pooling and the pairing's errors."""

    @pytest.mark.parametrize("wins, losses, reading, p", [
        (5, 0, "holds", Fraction(1, 32)),       # 1/2^5
        (4, 0, "unresolved", Fraction(1, 16)),  # 1/2^4 > 1/20
        (0, 5, "fails", Fraction(1, 32)),
        (0, 0, "unresolved", 1),
        (1, 1, "unresolved", Fraction(3, 4)),   # P(X >= 1 of 2)
        (6, 1, "unresolved", Fraction(1 + 7, 2**7)),  # C(7,7) + C(7,6)
        (7, 1, "holds", Fraction(1 + 8, 2**8)),       # 9/256 ~ 0.035
        (1, 7, "fails", Fraction(1 + 8, 2**8)),
    ])
    def test_hand_computed_sign_tests(self, wins, losses, reading, p):
        assert verdict(wins, losses)[:2] == (reading, p)

    def test_clopper_pearson_closed_forms(self):
        # With no losses the lower bound solves low^n = 5%; mirrored below.
        assert verdict(5, 0).low == pytest.approx(0.05 ** 0.2, abs=1e-9)
        assert verdict(0, 5).high == pytest.approx(1 - 0.05 ** 0.2, abs=1e-9)
        assert (verdict(5, 0).high, verdict(0, 5).low) == (1.0, 0.0)
        assert verdict(0, 0)[2:] == (0.0, 1.0)

    def test_interval_and_verdict_always_agree(self):
        for n in range(21):
            for wins in range(n + 1):
                v = verdict(wins, n - wins)
                side = "holds" if v.low > 0.5 else "fails" if v.high < 0.5 else "unresolved"
                assert side == v.reading, (wins, n - wins)
                assert v.low <= (wins / n if n else 0.5) <= v.high

    def test_lower_flips_the_orientation(self):
        rows = rows_of([(2, 1)] * 5)
        lower = dataclasses.replace(HIGHER, better="lower")
        assert tally(HIGHER, rows) == (5, 0)
        assert tally(lower, rows) == (0, 5)
        assert verdict(*tally(lower, rows)).reading == "fails"

    def test_ties_are_dropped(self):
        assert tally(HIGHER, rows_of([(1, 1)] * 7 + [(2, 1)] * 4)) == (4, 0)
        # A "no more than" claim whose arms always tie never holds.
        assert verdict(*tally(HIGHER, rows_of([(1, 1)] * 50))).reading == "unresolved"

    def test_pooling_is_addition(self):
        roots = {
            "0": [(2, 1), (1, 1), (0, 1)],
            "1": [(3, 1), (3, 2), (1, 1)],
            "2": [(5, 1)],
        }
        tallies = [(HIGHER, tally(HIGHER, rows_of(v))) for v in roots.values()]
        concatenated = [
            row for root, values in roots.items() for row in rows_of(values, f"{root}/")
        ]
        pooled = tuple(map(sum, zip(*(counts for _c, counts in tallies))))
        assert pooled == tally(HIGHER, concatenated) == (4, 1)
        assert claims_table(tallies) == claims_table([(HIGHER, pooled)])

    def test_pairs_follow_the_arms_row_order(self):
        rows = rows_of([(3, 0), (1, 0)])[::-1]
        assert [(k, a["v"], b["v"]) for k, a, b in pair(HIGHER, rows)] == [
            ("k1", 1, 0), ("k0", 3, 0),
        ]

    @pytest.mark.parametrize("rows", [
        rows_of([(1, 0), (2, 0)])[:-1],                      # b lacks k1
        [r for r in rows_of([(1, 0)]) if r[1] == "a"],        # no b at all
        [],                                                   # no rows
    ], ids=["unpaired-key", "missing-arm", "empty"])
    def test_a_missing_key_names_the_claim(self, rows):
        with pytest.raises(ValueError, match="'a beats b'"):
            tally(HIGHER, rows)

    def test_a_report_renders_its_tallies_before_its_notes(self):
        report = ExperimentReport("fig0", "demo")
        report.add_note("last")
        assert "claims" not in report.render()
        report.tallies = [(HIGHER, tally(HIGHER, rows_of([(2, 1)] * 5)))]
        verdicts, note = report.render().split("\n")[-2:]
        assert "a beats b" in verdicts and "holds" in verdicts and " 5-0 " in verdicts
        assert note == "note: last"


def float_bisection_verdict(wins: int, losses: int, null: Fraction = Fraction(1, 2)):
    """The judge while its Clopper–Pearson bisection summed the tail in
    floats (``math.comb(n, i) * p**i``, which overflows above n ~ 1 030),
    verbatim."""
    if not 0 < null < 1:
        raise ValueError(f"null must lie in (0, 1), got {null!r}")
    n = wins + losses
    comb = [math.comb(n, i) for i in range(n + 1)]

    def at_least(k, p):  # P(X >= k), X ~ Binomial(n, p); exact for a Fraction p
        # A Fraction sums over integers: one reduction, not one per term.
        a, b = (p.numerator, p.denominator) if isinstance(p, Fraction) else (p, 1)
        return Fraction(1, b**n) * sum(comb[i] * a**i * (b - a) ** (n - i) for i in range(k, n + 1))

    def lower(k, pivot, above):  # the Clopper–Pearson lower bound for k of n
        if k == 0:
            return 0.0
        lo, hi = (float(pivot), 1.0) if above else (0.0, float(pivot))
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if at_least(k, mid) < ALPHA else (lo, mid)
        return (lo + hi) / 2

    p_for, p_against = at_least(wins, null), at_least(losses, 1 - null)
    reading = "holds" if p_for <= ALPHA else "fails" if p_against <= ALPHA else "unresolved"
    # The upper bound for wins is 1 minus the lower bound for losses.
    return (reading, float(min(p_for, p_against)),
            lower(wins, null, reading == "holds"),
            1 - lower(losses, 1 - null, reading == "fails"))


class TestVerdictAtAnyN:
    """The bisection's tail is summed term by term in logs, so the judge
    reads at any n; readings and ``p`` still come from the exact tails."""

    @pytest.mark.parametrize("null", [Fraction(1, 2), Fraction(9, 10), Fraction(1, 20)])
    def test_bounds_match_the_float_bisection(self, null):
        for n in range(41):
            for wins in range(n + 1):
                got = verdict(wins, n - wins, null)
                want = float_bisection_verdict(wins, n - wins, null)
                assert got[:2] == want[:2], (wins, n - wins)
                assert got[2:] == pytest.approx(want[2:], abs=1e-12, rel=0), (wins, n - wins)

    @pytest.mark.parametrize("wins, losses", [(600, 500), (1100, 0), (0, 1100)])
    def test_large_n_reads_quickly(self, wins, losses):
        if wins and losses:  # a tail over more than one term
            with pytest.raises(OverflowError):
                float_bisection_verdict(wins, losses)
        start = time.perf_counter()
        v = verdict(wins, losses)
        assert time.perf_counter() - start < 1.0
        assert v.reading == ("holds" if wins else "fails")
        assert v.low <= wins / (wins + losses) <= v.high
        # With no losses the lower bound solves low^n = 5%; mirrored below.
        if not losses:
            assert v.low == pytest.approx(0.05 ** (1 / wins), abs=1e-9)
        if not wins:
            assert v.high == pytest.approx(1 - 0.05 ** (1 / losses), abs=1e-9)

    def test_binomial_row_is_math_comb(self):
        for n in range(201):
            assert _binomial_row(n) == [math.comb(n, i) for i in range(n + 1)], n

    def test_n_5000_reads_within_a_second(self):
        start = time.perf_counter()
        v = verdict(2600, 2400)
        assert time.perf_counter() - start < 1.0
        assert v.reading == "holds" and v.low < 0.52 < v.high
