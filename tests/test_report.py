"""The verdict rules that a clean corpus never reaches: the MISMATCH
returns of the agreement rule that test_mismatch_path does not reach, the
"non-thin" reason of the algebraic verdict, and every problem of the
structure checks, reached with crafted fits, decompositions and structure
reports."""
from dataclasses import replace

import pytest

import tkit.report
from tkit.cli import load_graph
from tkit.decompose import (FAIL, NOT_APPLICABLE, PASS, VACUOUS,
                            AlgebraicVerdict, decompose)
from tkit.exact import build_operators
from tkit.graphs import parse_graph6, structure_report
from tkit.regularity import NotApplicable, fit_endpoint1, fit_pdr
from tkit.report import (AGREE_NA, AGREE_PASS, AGREE_VACUOUS, MISMATCH,
                         _agreement, analyze)
from tkit.scan import _structure_problems

THINNESS = "exact fit and decomposition disagree on thinness"


def _sides(g, x):
    """The fits and the decomposition at base x, as analyze_fitted has them."""
    pdr = fit_pdr(g, x)
    try:
        endpoint1 = fit_endpoint1(pdr)
    except NotApplicable:
        endpoint1 = None
    return pdr, endpoint1, decompose(pdr.ops)


class TestAgreementMismatch:
    def test_not_thin_base_decomposed_thin(self):
        # Ck is the path 3-0-1-2; at the inner vertex 0 the ratio fit fails
        pdr, endpoint1, rep = _sides(parse_graph6("Ck"), 0)
        assert not pdr.ok and not rep.trivial_thin
        na = AlgebraicVerdict(NOT_APPLICABLE, "trivial module not thin")
        assert _agreement(pdr, endpoint1, rep, na)[0] == AGREE_NA
        thin = replace(rep, trivial_thin=True)
        assert _agreement(pdr, endpoint1, thin, na) == (MISMATCH, THINNESS)

    @pytest.mark.parametrize("status", [PASS, FAIL])
    def test_leaf_base_with_endpoint1_modules(self, status):
        pdr, endpoint1, rep = _sides(load_graph("path:3")[0], 0)
        assert pdr.ok and endpoint1 is None
        vacuous = AlgebraicVerdict(VACUOUS)
        assert _agreement(pdr, endpoint1, rep, vacuous) == (AGREE_VACUOUS, None)
        assert _agreement(pdr, endpoint1, rep, AlgebraicVerdict(status)) == (
            MISMATCH, "leaf base must have no endpoint-one modules")

    def test_thin_base_decomposed_not_thin(self):
        pdr, endpoint1, rep = _sides(load_graph("cycle:6")[0], 0)
        passed = AlgebraicVerdict(PASS)
        assert _agreement(pdr, endpoint1, rep, passed) == (AGREE_PASS, None)
        not_thin = replace(rep, trivial_thin=False)
        assert _agreement(pdr, endpoint1, not_thin, passed) == (MISMATCH, THINNESS)

    def test_no_endpoint1_modules_at_degree_two(self):
        pdr, endpoint1, rep = _sides(load_graph("cycle:6")[0], 0)
        assert _agreement(pdr, endpoint1, rep, AlgebraicVerdict(VACUOUS)) == (
            MISMATCH, "no endpoint-one modules at a base of degree >= 2")


class TestVerdictNonThin:
    @pytest.mark.parametrize("iso_classes,reason", [
        (1, "non-thin"), (2, "multiple iso classes + non-thin")])
    def test_endpoint1_module_not_thin(self, monkeypatch, iso_classes, reason):
        # K4 passes at every base; its decomposition is patched to claim an
        # endpoint-one module that is not thin, so the sides disagree
        def not_thin(ops, **kwargs):
            return replace(decompose(ops, **kwargs), endpoint1_all_thin=False,
                           endpoint1_iso_classes=iso_classes)

        monkeypatch.setattr(tkit.report, "decompose", not_thin)
        report = analyze(parse_graph6("C~"), 0, with_decomposition=True)
        assert report.verdict == AlgebraicVerdict(FAIL, reason)
        assert report.endpoint1.ok
        assert (report.agreement, report.agreement_reason) == (
            MISMATCH, "combinatorial ok=True vs algebraic FAIL")


def _clean_structure():
    """cycle:6 at base 0: threshold 2 at both neighbors, eccentricity 3, no
    mid cell, and no problem."""
    g = load_graph("cycle:6")[0]
    s = structure_report(g, 0, build_operators(g, 0).cells)
    assert [rec.threshold for rec in s.per_neighbor] == [2, 2] and s.ecc == 3
    assert _structure_problems(s) == ([], False)
    return s


class TestStructureProblems:
    @pytest.mark.parametrize("field,problem", [
        ("up_blocks_mid", "nonempty upward cell coexists with a mid cell below it"),
        ("thresholds_defined", "threshold pattern undefined for some neighbor")])
    def test_failed_predicate(self, field, problem):
        s = replace(_clean_structure(), **{field: False})
        assert _structure_problems(s) == ([problem], False)

    def test_level1_mid_cell_with_nonzero_threshold(self):
        s = _clean_structure()
        first = replace(s.per_neighbor[0], mid_nonempty=(False, True, False, False))
        s = replace(s, per_neighbor=(first,) + s.per_neighbor[1:])
        assert _structure_problems(s) == (
            ["nonempty level-1 mid cell but nonzero threshold"], False)

    def test_varying_thresholds(self):
        s = replace(_clean_structure(), threshold_constant=False)
        assert _structure_problems(s) == ([], True)
