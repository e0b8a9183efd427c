"""The machinery is not shaped around the two worked atlases: structurally
different sizes, including degenerate ones, run every suite clean."""

import random

import pytest

from nugrass.atlas import get_atlas, sample_point, verify_cocycle
from nugrass.action import verify_action_axioms, verify_action_gluing, verify_transitivity
from nugrass.nulie import h_report
from nugrass.reports import Report, CheckResult
from paper_reference import gating_failures


def test_square_symmetric_atlas_runs_every_suite():
    at = get_atlas(1, 1, 2, 2)
    assert len(at.charts) == 6 and len(at.standard_charts) == 4
    assert (at.charts[0].alpha, at.charts[0].beta) == (2, 2)
    rep = verify_cocycle(1, 1, 2, 2, r=2, samples=15, seed=9)
    assert rep.ok
    pairs = [r for r in rep.results if r.check == "pair-round-trip" and r.samples]
    undefined = [r for r in rep.results if r.samples == 0 and r.note.startswith("undefined")]
    assert len(pairs) == 22 and len(undefined) == 8
    assert sum(r.check == "triple-cycle" for r in rep.results) == 24
    assert verify_action_gluing(1, 1, 2, 2, r=2, samples=15, seed=9).ok
    assert verify_action_axioms(1, 1, 2, 2, r=2, samples=10, seed=9).ok
    assert verify_transitivity(1, 1, 2, 2, r=2, count=10, seed=9).ok


def test_square_symmetric_commutant_is_again_the_scalar_line():
    data = h_report(1, 1, 2, 2)
    assert (data["dim_even"], data["dim_odd"]) == (1, 0)
    assert data["basis_even"] == [{"1,1": "1", "2,2": "1", "3,3": "1", "4,4": "1"}]
    assert data["bracket_closed"] and data["jacobi_exact"]
    assert data["rho_morphism_ok"] and data["sign_s"] == "-1"


def test_atlas_without_free_even_columns():
    # k = m leaves no columns left of the divider to fill
    at = get_atlas(1, 1, 1, 2)
    assert len(at.charts) == 3
    assert at.chart((), (1, 2)).label_tokens() == [
        ["nu(e1)", "1nu", "0"],
        ["nu(x1)", "0", "1"],
    ]
    assert verify_cocycle(1, 1, 1, 2, r=2, samples=15, seed=3).ok
    assert verify_action_gluing(1, 1, 1, 2, r=2, samples=15, seed=3).ok


def test_atlas_without_even_coordinates_at_all():
    # alpha = 0: the coefficient field degenerates to plain rationals
    at = get_atlas(1, 0, 1, 1)
    assert len(at.charts) == 2
    assert (at.charts[0].alpha, at.charts[0].beta) == (0, 1)
    assert at.chart((1,), ()).label_tokens() == [["1", "e1"]]
    assert at.chart((), (1,)).label_tokens() == [["nu(e1)", "1nu"]]
    assert verify_cocycle(1, 0, 1, 1, r=2, samples=15, seed=3).ok


@pytest.mark.parametrize("dims", [(1, 0, 2, 0), (1, 0, 3, 0), (2, 0, 4, 0), (0, 2, 0, 4)])
def test_atlases_without_odd_coordinates_run_every_sampled_suite(dims):
    # beta = 0: nu has nothing to act on, so the non-gating nu-equivariance
    # audit gives way to a note and every gating check still samples
    assert get_atlas(*dims).charts[0].beta == 0
    rep = verify_cocycle(*dims, r=2, samples=3, seed=5)
    assert rep.ok and all(r.samples for r in rep.results)
    assert "no odd coordinate: the nu-equivariance audit does not apply" in rep.notes
    assert verify_action_gluing(*dims, r=2, samples=3, seed=5).ok
    assert verify_action_axioms(*dims, r=2, samples=3, seed=5).ok
    assert verify_transitivity(*dims, r=2, count=3, seed=5).ok


def test_point_sampling_works_on_every_chart_of_a_mixed_atlas():
    rng = random.Random(0)
    at = get_atlas(1, 1, 2, 2)
    for chart in at.charts:
        X = sample_point(chart, 3, rng)
        for name, v in X.values.items():
            assert v.parity() == chart.coord_parity[name]


def test_report_exit_semantics_distinguish_gating_failures():
    rep = Report(suite="demo", config={})
    rep.results.append(CheckResult("a", "i", 5, 5, 0))
    rep.results.append(CheckResult("b", "j", 5, 2, 3, gating=False))
    assert rep.ok and not gating_failures(rep)
    rep.results.append(CheckResult("c", "k", 5, 4, 1))
    assert not rep.ok
    assert [r.check for r in gating_failures(rep)] == ["c"]
