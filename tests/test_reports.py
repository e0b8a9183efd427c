"""The sampling contract shared by every sampled check: one retry loop
(first_defined) and one tally (CheckResult.record)."""

import gc
import json
import re

import pytest

import nugrass.action as action
import nugrass.atlas as atlas
from nugrass.errors import MinorNotInvertible, NotInvertible, OverlapNotSampled
from nugrass.action import verify_action_axioms, verify_action_gluing, verify_transitivity
from nugrass.atlas import get_atlas, pair_defined, verify_cocycle
from nugrass.reports import CheckResult, dumps, first_defined
from nugrass.superalgebra import FlatFraction
from test_pins import check, digest


def test_record_builds_only_the_kept_counterexamples():
    built = []

    def example(i):
        def build():
            built.append(i)
            return {"i": i}
        return build

    result = CheckResult("c", "inst")
    for i, ok in enumerate([True, False, False, True, False, False, False]):
        result.record(ok, example(i))
    assert (result.samples, result.passed, result.failed) == (7, 2, 5)
    assert result.counterexamples == [{"i": 1}, {"i": 2}, {"i": 4}]
    assert built == [1, 2, 4]


def test_first_defined_retries_only_rejected_draws_within_its_budget():
    calls = []

    def never():
        calls.append(1)
        raise MinorNotInvertible("outside")

    with pytest.raises(OverlapNotSampled, match="^could not sample the thing$"):
        first_defined(never, MinorNotInvertible, "the thing")
    assert len(calls) == 400

    draws = iter(range(400))

    def last_draw_lands():
        i = next(draws)
        if i < 399:
            raise NotInvertible("outside")
        return i

    assert first_defined(last_draw_lands, (MinorNotInvertible, NotInvertible), "x") == 399

    def broken():
        raise ValueError("not a rejection")

    with pytest.raises(ValueError):
        first_defined(broken, MinorNotInvertible, "x")


# ---------------------------------------------------------------------------
# every retry site gives up with a typed error
# ---------------------------------------------------------------------------

DIMS = (1, 1, 2, 2)


def _raise(exc):
    def undefined(*args, **kwargs):
        raise exc("outside")
    return undefined


def _overlap(*charts):
    return "could not sample the common overlap of " + ", ".join(str(c.index) for c in charts)


def _outside(mp):
    """Every hop falls outside the overlap: each numerator hop of a cycle
    gives way, and the point_transition that the draw falls back to raises."""
    mp.setattr(atlas.HopPlan, "_numerator_hop", lambda *args: None)
    mp.setattr(atlas, "point_transition", _raise(MinorNotInvertible))


def _pair_site(mp):
    _outside(mp)
    at = get_atlas(*DIMS)
    a, b = next((a, b) for a in at.charts for b in at.charts
                if a is not b and pair_defined(a, b))
    return lambda: verify_cocycle(*DIMS, samples=1), _overlap(a, b)


def _triple_site(mp):
    _outside(mp)
    mp.setattr(atlas, "pair_defined", lambda a, b: False)
    a, b, c = get_atlas(*DIMS).standard_charts[:3]
    return lambda: verify_cocycle(*DIMS, samples=1), _overlap(a, c, b)


def _gluing_site(mp):
    mp.setattr(action, "act", _raise(MinorNotInvertible))
    return (lambda: verify_action_gluing(*DIMS, samples=1),
            "could not sample a defined gluing instance")


def _associativity_site(mp):
    real_act = action.act

    def act(X, P, target=None):
        if target is None:  # only associativity and inverse act without a target
            raise MinorNotInvertible("outside")
        return real_act(X, P, target)

    mp.setattr(action, "act", act)
    return (lambda: verify_action_axioms(*DIMS, samples=1),
            "could not sample a defined associativity instance")


def _inverse_site(mp):
    mp.setattr(action.GLPoint, "inv", _raise(NotInvertible))
    return (lambda: verify_action_axioms(*DIMS, samples=1),
            "could not sample a defined inverse instance")


@pytest.mark.parametrize("site", [_pair_site, _triple_site, _gluing_site,
                                  _associativity_site, _inverse_site],
                         ids=["pair", "triple", "gluing", "associativity", "inverse"])
def test_every_retry_site_raises_when_no_draw_is_defined(site, monkeypatch):
    run, message = site(monkeypatch)
    with pytest.raises(OverlapNotSampled, match=f"^{re.escape(message)}$"):
        run()


@pytest.mark.parametrize("run, message", [
    (lambda: verify_cocycle(1, 1, 2, 2, samples=0), "samples must be at least 1, got 0"),
    (lambda: verify_cocycle(1, 1, 2, 2, samples=-3), "samples must be at least 1, got -3"),
    (lambda: verify_cocycle(1, 1, 2, 2, samples=1, audit_nu_triples=-2),
     "audit_nu_triples must be at least 0, got -2"),
    (lambda: verify_action_gluing(*DIMS, samples=0), "samples must be at least 1, got 0"),
    (lambda: verify_action_axioms(*DIMS, samples=0), "samples must be at least 1, got 0"),
    (lambda: verify_transitivity(*DIMS, r=2, count=0), "count must be at least 1, got 0"),
    (lambda: verify_cocycle(0, 1, 1, 2, r=-1, samples=2), "r must be at least 0, got -1"),
    (lambda: verify_action_gluing(*DIMS, r=-1, samples=1), "r must be at least 0, got -1"),
    (lambda: verify_action_axioms(*DIMS, r=-1, samples=1), "r must be at least 0, got -1"),
    (lambda: verify_transitivity(*DIMS, r=-1, count=1), "r must be at least 0, got -1"),
], ids=["cocycle-0", "cocycle-negative", "cocycle-audit", "gluing", "axioms", "transitivity",
        "cocycle-r", "gluing-r", "axioms-r", "transitivity-r"])
def test_a_sampled_suite_rejects_a_count_before_it_draws(run, message, monkeypatch):
    # each of these used to pass on 0 gating samples, a negative audit
    # count sliced 22 audits from the end of the list, and a negative r
    # reached the Lambda_r layout as a bare shift error
    for module in (atlas, action):
        monkeypatch.setattr(module, "lambda_sample", _raise(AssertionError))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


# ---------------------------------------------------------------------------
# report bytes
# ---------------------------------------------------------------------------

def test_the_symbolic_work_of_a_cocycle_run_happens_once_per_pair(monkeypatch):
    # identity maps, audit maps and audit verdicts are facts of a chart pair:
    # a warm call fills no pasting system with a chart's generators, asks
    # transition_symbolic only for each chart's identity map (a pair without
    # a map keeps its verdict, None, and raises nothing), and both calls
    # give the pinned bytes
    monkeypatch.setattr(atlas, "_GLOBAL_PLANS", {})
    transition = atlas.HopPlan.transition
    transition_symbolic = atlas.transition_symbolic
    labels, symbolic = [], []

    def counting(plan, values):
        if any(isinstance(v, FlatFraction) for v in values.values()):
            labels.append(plan.dst)
        return transition(plan, values)

    def asked(src, dst):
        symbolic.append((src, dst))
        return transition_symbolic(src, dst)

    monkeypatch.setattr(atlas.HopPlan, "transition", counting)
    monkeypatch.setattr(atlas, "transition_symbolic", asked)
    for dims in [(0, 1, 1, 2), (1, 1, 2, 2)]:
        cold = len(labels)
        check(f"cocycle {dims}")
        built = [p for p in atlas._GLOBAL_PLANS.values() if "symbolic" in vars(p)]
        assert len(labels) == len(built) > cold
        symbolic.clear()
        check(f"cocycle {dims}")
        assert len(labels) == len(built)
        assert symbolic == [(c, c) for c in get_atlas(*dims).charts]


# The same suites on 1|1(2|2) with every point comparison and every witness
# failing, 5 samples each: each check keeps its first 3 counterexamples,
# except the nu-triple audit, which keeps none.  A cycle compares its chained
# numerator hops with its start point through atlas._closes, and a draw that
# falls back to point_transition compares GrassPoints.  Recorded at the same
# commit.
GOLDEN_FAILING = {
    "cocycle": "e940406487febd90b29e6dbd3f6e5a1e4f8558d823d3e30ec18da3e27c7af14c",
    "gluing": "8dfc88fb59a28cf38a2a2ed4d8e35f5ba4aef01229a0b33315cd5c0c7faf5959",
    "axioms": "1066fb8f9e91c52a4585cc3391c068b1804bc12842de84e0db82930af58afd89",
    "transitivity": "42ff0a1ce2ca743f6ed193ebd81ae2a10d04c6d8cf762607b8b3ce063a286d47",
}
FAILING_SUITES = {
    "cocycle": lambda: verify_cocycle(*DIMS, r=2, samples=5, seed=0, audit_nu_triples=30),
    "gluing": lambda: verify_action_gluing(*DIMS, r=2, samples=5, seed=0),
    "axioms": lambda: verify_action_axioms(*DIMS, r=2, samples=5, seed=0),
    "transitivity": lambda: verify_transitivity(*DIMS, r=2, count=5, seed=0),
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_FAILING))
def test_failing_suite_reports_are_pinned(suite, monkeypatch):
    def witness(W, base):
        raise ValueError("forced failure")

    monkeypatch.setattr(atlas.GrassPoint, "__eq__", lambda self, other: False)
    monkeypatch.setattr(atlas, "_closes", lambda *args: False)
    monkeypatch.setattr(action, "transitivity_witness", witness)
    report = FAILING_SUITES[suite]()
    assert not report.ok
    assert digest(report.to_json()) == GOLDEN_FAILING[suite]


def _cyclic_garbage(call) -> int:
    """Objects that only the cycle collector could free after one call."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_to_json_is_the_indented_json_dump_and_leaves_no_cyclic_garbage():
    rep = verify_cocycle(1, 1, 2, 2, r=2, samples=2, seed=1, audit_nu_triples=5)
    data = rep.to_dict()
    assert rep.to_json() == json.dumps(data, indent=2, sort_keys=True)
    assert _cyclic_garbage(rep.to_json) == 0
    # the json module's indenting encoder leaves its closures in a cycle
    assert _cyclic_garbage(lambda: json.dumps(data, indent=2, sort_keys=True)) > 0


def test_dumps_matches_the_indented_json_dump_on_nested_values():
    data = {"b": [], "a": {}, "c": [1.5, None, True, False, -7, 10**30, "é\n\"", (1, [2, {}])],
            "d": {"z": {"y": [[]]}, "x": float("inf")}}
    assert dumps(data) == json.dumps(data, indent=2, sort_keys=True)
    assert dumps([]) == "[]" and dumps("s") == '"s"'
