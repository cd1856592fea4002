"""The bundled example: context wiring, the fixed verification suite,
deliberate corruptions, and the randomized suite."""

import json
from collections import Counter
from fractions import Fraction

import pytest

import lndkit.casebook as casebook
import lndkit.groebner as groebner
import lndkit.kernel as kernel
import lndkit.poly as poly
from lndkit import (
    Check,
    Derivation,
    NilpotencyCapError,
    PaperContext,
    Point,
    Slice,
    Stratum,
    VerificationReport,
    builtin_context,
    parse_polynomial,
    random_suite,
    separates,
    separating_values,
    stratum_of,
    verify_paper,
)

EXPECTED_CHECKS = (
    "flows_terminate",
    "iteration_depths",
    "invariants_annihilated",
    "invariants_weighted_homogeneous",
    "derivation_weight_preserving",
    "exponential_images",
    "flow_on_sample_point",
    "invariants_constant_on_flows",
    "localized_kernel_generators",
    "localized_generators_invariant",
    "folded_localized_generators",
    "partial_v_maps_kernel_to_kernel",
    "quotient_intertwines",
    "fold_intertwines",
    "quotient_images",
    "fold_image_sample",
    "fold_preserves_grading",
    "quotient_kernel_confirmed",
    "quotient_kernel_computed",
    "folded_kernel_confirmed",
    "folded_kernel_computed",
    "folded_square_cube_identity",
    "folded_relations_mod_localizer",
    "membership_representation",
    "kernel_check_extends_candidates",
    "kernel_growth_two_rounds",
    "invariants_vanish_on_core",
    "core_stratum_inseparable",
    "last_invariant_separates_wall_pair",
)


def _status(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1
    return matches[0]


# -- context -----------------------------------------------------------------


def test_context_wiring(context):
    assert context.ring.variables == ("x", "s", "t", "u", "v")
    assert context.ring.weights == (1, 3, 3, 3, 2)
    assert context.quotient_ring.variables == ("s", "t", "u", "v")
    assert context.folded_ring.variables == ("x", "v", "t", "u")
    assert len(context.generators) == 6
    assert len(context.folded_generators) == 4
    assert len(context.quotient_kernel) == 3
    assert context.kernel_slice.var == "s"
    assert context.kernel_slice.power == 3
    assert context.quotient_slice.var == "t"
    assert context.folded_slice.power == 2


def test_builtin_context_is_cached():
    assert builtin_context() is builtin_context()


def _replaced(context, **changes):
    """PaperContext(...) on the eight fields of context, with changes in
    place of some, so the constructor's checks run on the result."""
    fields = {name: getattr(context, name) for name in context._fields}
    return PaperContext(**{**fields, **changes})


def test_context_rejects_bad_wiring(context):
    with pytest.raises(ValueError):
        _replaced(context, quotient_map=context.fold_map)
    with pytest.raises(ValueError):
        _replaced(context, fold_map=context.quotient_map)
    # a slice on another ring leaves both maps starting elsewhere
    with pytest.raises(ValueError, match="map ring mismatch"):
        _replaced(context, kernel_slice=context.folded_slice)
    # verify_paper reads f1..f6 and h1..h4 by index
    with pytest.raises(ValueError, match="got 5 and 4"):
        _replaced(context, generators=context.generators[:5])
    with pytest.raises(ValueError, match="got 6 and 3"):
        _replaced(context, folded_generators=context.folded_generators[:3])
    # each derivation and ring is read off its slice, so none can
    # disagree with it
    for slc, d, r in (
        (context.kernel_slice, context.derivation, context.ring),
        (context.quotient_slice, context.quotient_derivation, context.quotient_ring),
        (context.folded_slice, context.folded_derivation, context.folded_ring),
    ):
        assert d is slc.derivation and r is d.ring
    assert len(context._fields) == 8


def test_project_point(context):
    p = Point(context.ring, (9, 1, 2, 3, 4))
    shadow = context.project_point(p)
    assert shadow.ring == context.quotient_ring
    assert shadow.coordinates == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        context.project_point(shadow)


# -- strata and separation ------------------------------------------------------


def test_stratum_of(context):
    ring = context.ring
    assert stratum_of(Point(ring, (1, 0, 0, 0, 0))) is Stratum.X_NONZERO
    assert stratum_of(Point(ring, (0, 2, 0, 0, 0))) is Stratum.X_ZERO_S_NONZERO
    assert stratum_of(Point(ring, (0, 0, 5, 5, 5))) is Stratum.X_ZERO_S_ZERO


def test_separating_values_and_separates(context):
    ring = context.ring
    p = Point(ring, (1, 1, 1, 1, 1))
    values = separating_values(context, p)
    assert len(values) == 6
    assert values[0] == 1
    assert all(isinstance(v, Fraction) for v in values)
    q = Point(ring, (2, 1, 1, 1, 1))
    assert separates(context, p, q)
    assert not separates(context, p, p)


# -- the fixed verification suite ---------------------------------------------


def test_verify_passes(report):
    assert report.passed
    assert tuple(c.name for c in report.checks) == EXPECTED_CHECKS
    assert all(c.ok for c in report.checks)
    assert all(c.witness is None for c in report.checks)


def test_report_rendering(report):
    text = report.render_text()
    lines = text.splitlines()
    assert lines[-1] == f"{len(EXPECTED_CHECKS)}/{len(EXPECTED_CHECKS)} checks passed"
    assert lines[0].startswith("flows_terminate ")
    assert " ok" in lines[0]
    payload = report.to_json_obj()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(EXPECTED_CHECKS)


def test_report_structure_helpers():
    failing = VerificationReport(
        (Check("alpha"), Check("beta", "boom"))
    )
    assert not failing.passed
    assert failing.checks[0].ok
    assert not failing.checks[1].ok
    text = failing.render_text()
    assert "alpha .... ok" in text
    assert "beta ..... FAIL" in text
    assert "    boom" in text
    assert text.endswith("1/2 checks passed")
    assert failing.to_json_obj()["checks"][1]["witness"] == "boom"
    # the status is read off the witness: any witness, even "", is a FAIL
    assert list(Check._fields) == ["name", "witness"]
    assert Check("gamma", "").status == "FAIL"


# -- corruption drills: break one input, watch the right check fail -------------


def test_corrupted_generator_is_caught(context):
    f = context.generators
    # t is not invariant, so f2 + t leaks through the derivation
    broken = _replaced(
        context, generators=f[:1] + (f[1] + context.ring.var("t"),) + f[2:]
    )
    report = verify_paper(broken)
    assert not report.passed
    assert not _status(report, "invariants_annihilated").ok
    witness = _status(report, "invariants_annihilated").witness
    assert "f2" in witness
    # the flow check substitutes the flowed variables into f2 + t, so it
    # catches the leak without applying the derivation to f2 + t
    flowed = _status(report, "invariants_constant_on_flows")
    assert not flowed.ok
    assert "f2" in flowed.witness


def test_corrupted_folded_generator_is_caught(context):
    h = context.folded_generators
    broken = _replaced(
        context, folded_generators=h[:3] + (h[3] + context.folded_ring.var("x"),)
    )
    report = verify_paper(broken)
    assert not report.passed
    assert not _status(report, "folded_square_cube_identity").ok


def test_corrupted_quotient_kernel_is_caught(context):
    k = context.quotient_kernel
    flipped = (k[0], -k[1], k[2])
    broken = _replaced(context, quotient_kernel=flipped)
    report = verify_paper(broken)
    assert not report.passed
    assert not _status(report, "quotient_kernel_computed").ok
    # the sign flip spans the same algebra, so confirmation still holds
    assert _status(report, "quotient_kernel_confirmed").ok


def _corrupted(context, name):
    """The bundled context with one input broken, by drill name."""
    ring, q_ring, h_ring = context.ring, context.quotient_ring, context.folded_ring
    p = lambda text: parse_polynomial(text, ring)
    qp = lambda text: parse_polynomial(text, q_ring)
    hp = lambda text: parse_polynomial(text, h_ring)
    f, h = context.generators, context.folded_generators
    if name == "main slice without u":
        d = Derivation.from_mapping(ring, {"s": p("x^3"), "t": p("s"), "v": p("x^2")})
        return _replaced(context, kernel_slice=Slice(d, "s", "x"))
    if name == "main slice with D(t) = t":
        # not locally nilpotent, yet a context: verify_paper reports it
        d = Derivation.from_mapping(ring, {"s": p("x^3"), "t": p("t")})
        return _replaced(context, kernel_slice=Slice(d, "s", "x"))
    if name == "f2 + t":
        return _replaced(context, generators=f[:1] + (f[1] + p("t"),) + f[2:])
    if name == "quotient slice on t only":
        d = Derivation.from_mapping(q_ring, {"t": qp("s")})
        return _replaced(context, quotient_slice=Slice(d, "t", "s"))
    if name == "quotient element + t":
        broken = (qp("s"), qp("2*s*u - t^2 + t"), qp("v"))
        return _replaced(context, quotient_kernel=broken)
    if name == "quotient kernel (s, v)":
        return _replaced(context, quotient_kernel=(qp("s"), qp("v")))
    if name == "folded slice without u":
        d = Derivation.from_mapping(h_ring, {"v": hp("x^2"), "t": hp("x*v")})
        return _replaced(context, folded_slice=Slice(d, "v", "x"))
    if name == "h2 + x":
        return _replaced(context, folded_generators=(h[0], h[1] + hp("x"), h[2], h[3]))
    if name == "h4 = h2*h3":
        return _replaced(context, folded_generators=h[:3] + (h[1] * h[2],))
    raise KeyError(name)


@pytest.fixture(scope="module")
def drill_reports():
    # drill name -> verify_paper report, so each drill runs once
    return {}


# one drill per picture of each statement that holds in several of them
@pytest.mark.parametrize(
    "drill, check, witness",
    [
        ("main slice with D(t) = t", "flows_terminate", "some variable never reaches zero"),
        ("main slice with D(t) = t", "iteration_depths", "main depths (1, 2, None, 1, 1)"),
        ("main slice without u", "iteration_depths", "main depths (1, 2, 3, 1, 2)"),
        ("quotient slice on t only", "iteration_depths", "quotient depths (1, 2, 1, 1)"),
        ("folded slice without u", "iteration_depths", "folded depths (1, 2, 3, 1)"),
        ("f2 + t", "invariants_annihilated", "f2 maps to s"),
        ("quotient element + t", "invariants_annihilated",
         "quotient element 2*s*u - t^2 + t maps to s"),
        ("folded slice without u", "invariants_annihilated", "h3 maps to -3*x^3*t"),
        ("f2 + t", "invariants_weighted_homogeneous",
         "main degrees (1, DegreeSpread(min=3, max=6), 9, 3, 8, 12)"),
        ("h2 + x", "invariants_weighted_homogeneous",
         "folded degrees (1, DegreeSpread(min=1, max=4), 6, 10)"),
        ("quotient element + t", "invariants_weighted_homogeneous",
         "quotient degrees (3, DegreeSpread(min=3, max=6), 2)"),
        ("main slice without u", "localized_kernel_generators", "projection of u is u"),
        ("folded slice without u", "folded_localized_generators",
         "folded projection of u is u"),
        ("h2 + x", "folded_localized_generators",
         "folded projection of t is (x*t - 1/2*v^2) / x"),
        ("quotient kernel (s, v)", "quotient_kernel_confirmed", "status new-generators"),
        ("quotient element + t", "quotient_kernel_confirmed",
         "NonInvariantCandidateError: candidate 2*s*u - t^2 + t is not in the kernel"),
        ("h4 = h2*h3", "folded_kernel_confirmed", "status new-generators"),
        ("folded slice without u", "folded_kernel_confirmed",
         "NonInvariantCandidateError: candidate 3*x^3*u - 3*x*v*t + v^3 is not in the kernel"),
    ],
)
def test_corruption_drill_witness(context, drill_reports, drill, check, witness):
    if drill not in drill_reports:
        drill_reports[drill] = verify_paper(_corrupted(context, drill))
    assert _status(drill_reports[drill], check).witness == witness


def test_verify_paper_kernel_work(monkeypatch):
    # one run makes 9 kernel_check, 3 kernel_compute, 10 relation_ideal
    # calls and builds 18 testers, so no check is dropped or repeated,
    # and 2 exponentials: one that exponential_images and
    # invariants_constant_on_flows share, one behind orbit_point.
    # A fresh context, so no iterate cached by another test is reused.
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (casebook, kernel):
        for name in ("kernel_check", "kernel_compute", "relation_ideal"):
            if hasattr(module, name):
                counting(module, name)
    counting(groebner.SubalgebraTester, "__init__")
    counting(Derivation, "exponential")
    report = verify_paper(builtin_context.__wrapped__())
    assert report.passed and len(report.checks) == len(EXPECTED_CHECKS)
    assert calls == {
        "kernel_check": 9,
        "kernel_compute": 3,
        "relation_ideal": 10,
        "__init__": 18,
        "exponential": 2,
    }


# -- randomized suite ------------------------------------------------------------


def test_random_suite_shape():
    report = random_suite(7, 3)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "random_orbit_invariance",
        "random_core_points_vanish",
        "random_matched_pairs_connected",
        "random_fiber_pairs_split_by_last",
        "random_quotient_recovery",
    ]


def test_random_suite_deterministic():
    first = random_suite(11, 4)
    second = random_suite(11, 4)
    assert first.to_json_obj() == second.to_json_obj()


def test_random_suite_validation():
    with pytest.raises(ValueError):
        random_suite(1, 0)
    with pytest.raises(ValueError):
        random_suite(1, -5)


def test_random_suite_keeps_first_failures(context):
    # f2 + t is not invariant, and every sample shows it: each check it
    # breaks reports its first failing sample, and the flow and recovery
    # checks, which read no f2, pass
    report = random_suite(1, 3, _corrupted(context, "f2 + t"))
    point = (Fraction(0), Fraction(0), Fraction(55, 98), Fraction(96), Fraction(39, 29))
    assert {c.name: c.witness for c in report.checks} == {
        "random_orbit_invariance": "sample 0: values changed along the flow at 66/49",
        "random_core_points_vanish": f"sample 0: nonzero value at x = s = 0 point {point}",
        "random_matched_pairs_connected": None,
        "random_fiber_pairs_split_by_last": "sample 0: matched pair separated",
        "random_quotient_recovery": None,
    }
    later = random_suite(2, 2, _corrupted(context, "f2 + t"))
    assert [c.ok for c in later.checks] == [c.ok for c in report.checks]


def test_random_suite_on_a_runaway_flow(context):
    # the flow of a derivation that is not locally nilpotent has no
    # closed form, so no sample can be drawn
    with pytest.raises(NilpotencyCapError):
        random_suite(1, 1, _corrupted(context, "main slice with D(t) = t"))


def test_random_suite_large(random_report):
    assert random_report.passed
    assert all(c.ok for c in random_report.checks)


def test_random_suite_polynomial_work(monkeypatch):
    # each power of a bundled invariant is built once and kept on it, no
    # power or product multiplies by one, and a constant factor only
    # scales: 296 term-dict products, against 1183 when every power
    # started from one and was rebuilt every sample.  A fresh context,
    # so no power kept by another test is reused.
    context = builtin_context.__wrapped__()
    calls = []
    product = poly._product

    def counted(left, right):
        calls.append(None)
        return product(left, right)

    monkeypatch.setattr(poly, "_product", counted)
    assert random_suite(0, 100, context=context).passed
    assert len(calls) <= 300
