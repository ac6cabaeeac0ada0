"""Acceptance suite: every criterion of ``ramcat.golden.CRITERIA`` runs at its
stated tolerance and prints one pass/fail line.  The expected values come
from independent oracles (the Stirling recurrence, binomial counts, direct
re-enumeration); see ramcat.golden for the checks."""

import pytest

from ramcat import golden


@pytest.mark.parametrize("name, limit, check", golden.CRITERIA,
                         ids=[name.replace(" ", "_") for name, _, _ in golden.CRITERIA])
def test_criterion(name, limit, check):
    item = golden.run_criterion(name, limit, check)
    print(f"{'PASS' if item['ok'] else 'FAIL'} criterion {name}: {item['detail']} "
          f"[{item['seconds']:.2f}s / {limit:.0f}s]")
    assert item["ok"], item["detail"]


def test_criterion_1_detail_is_the_same_on_every_run():
    first, second = golden.worked_substitution(), golden.worked_substitution()
    assert first == second == (True, "result 'c a b a a x1 d x1^g2 x1^g2 c a x1', substitute under 1ms")


def test_full_suite_summary():
    report = golden.run_golden_suite()
    assert report["ok"]
    assert len(report["criteria"]) == 9
