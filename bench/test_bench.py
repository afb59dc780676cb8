"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q bench
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from pairpath import blowup, routing  # noqa: E402
from pairpath.rng import SplitMix64  # noqa: E402

import pairings  # noqa: E402
import workloads  # noqa: E402
from measure import Outcomes, Tracer, percentile  # noqa: E402


def test_percentile_reports_rank_samples_and_tail():
    p95 = percentile(range(100, 0, -1), 0.95)
    assert (p95.value, p95.samples, p95.beyond) == (95, 100, 5)
    p50 = percentile([4.0, 1.0, 3.0, 2.0], 0.5)
    assert (p50.value, p50.samples, p50.beyond) == (2.0, 4, 2)
    one = percentile([7.5], 0.95)
    assert (one.value, one.samples, one.beyond) == (7.5, 1, 0)
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hall_generator_self_check_at_m4(seed):
    b = blowup.build(4)
    pairing, c, blocked = pairings.hall_deficient(b, SplitMix64(seed))
    assert len(pairing) == b.n // 2  # perfect
    assert b.class_of(blocked) == (c + 1) % b.num_classes
    pairings.check_hall(b, pairing, c, blocked)
    # the same seed gives the same instance
    again, _, _ = pairings.hall_deficient(b, SplitMix64(seed))
    assert again == pairing
    # any other vertex of class c+1 is a candidate of some task
    other = b.vertex(c + 1, b.index_of(blocked) + 1)
    with pytest.raises(pairings.HallCheckError):
        pairings.check_hall(b, pairing, c, other)


def test_hall_generator_has_no_instance_below_m4():
    for m in (2, 3):
        assert pairings.hall_deficient(blowup.build(m), SplitMix64(1)) is None


def test_structured_kinds_are_valid_pairings():
    b = blowup.build(4)
    rng = SplitMix64(9)
    for kind in pairings.KINDS:
        p, hall = pairings.structured(b, kind, rng)
        assert (hall is not None) == (kind == "hall")
        ends = p.endpoints()
        assert len(ends) == 2 * len(p) and max(ends) < b.n
        expected = b.num_classes * (b.q // 2) if kind == "same-class" \
            else b.n // 2
        assert len(p) == expected, kind


def test_outcomes_count_failed_inputs_against_attempted_inputs():
    out = Outcomes()
    out.ok(0.1, 0)
    out.ok(0.2, 1)
    out.refuse(2)
    assert (out.attempted, out.failed, out.correct) == (3, 1, True)
    # repetitions of an input do not change the counts of inputs
    out.ok(0.1, 0)
    out.refuse(2)
    assert (out.attempted, out.failed, out.operations) == (3, 1, 5)
    # an input fails when any of its operations fails
    out.reject("bad plan", 1)
    assert (out.attempted, out.failed, out.correct) == (3, 2, False)
    assert out.notes == ["bad plan"]


def test_route_op_counts_refusals_and_rejected_plans(monkeypatch):
    b = blowup.build(2)
    p = routing.random_perfect_pairing(b.n, 5)
    good = routing.route(b, p)
    broken = routing.RoutePlan(routes=good.routes[:-1],
                               used_edges=good.used_edges)
    out, failures = Outcomes(), {}
    assert workloads._route_op(b, p, out, 0, "ok", failures) is not None

    def refuse(*_):
        raise routing.RoutingError("no free candidate")
    monkeypatch.setattr(routing, "route", refuse)
    assert workloads._route_op(b, p, out, 1, "refused", failures) is None

    monkeypatch.setattr(routing, "route", lambda *_: broken)
    assert workloads._route_op(b, p, out, 2, "broken", failures) is None

    assert (out.attempted, out.refused, out.wrong) == (3, 1, 1)
    assert out.failed == 2
    assert not out.correct
    assert failures == {"refused": 1}


def test_tracer_sums_outermost_spans_per_operation():
    tracer = Tracer()
    fib = None

    def fib_impl(k):
        return k if k < 2 else fib(k - 1) + fib(k - 2)
    fib = tracer.wrap("fib", fib_impl)
    for op in ("a", "b"):
        tracer.op = op
        tracer.call("outer", fib, 5)
    per_op = tracer.per_op("fib")
    assert len(per_op) == 2
    outer = tracer.per_op("outer")
    # recursion is not double counted: fib's total fits inside outer's
    assert all(f <= o for f, o in zip(per_op, outer))
    parents = {tracer.spans[s[2]][1] for s in tracer.spans if s[2] >= 0}
    assert parents == {"outer", "fib"}
