"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  The expected values come from independent oracles (the
Stirling recurrence, binomial counts, direct re-enumeration); see
ramcat.golden for the criterion bodies."""

from ramcat import golden


def _run(criterion):
    item = criterion()
    limit = golden.TIME_LIMITS[item["name"]]
    status = "PASS" if item["ok"] and item["seconds"] <= limit else "FAIL"
    print(f"{status} criterion {item['name']}: {item['detail']} [{item['seconds']:.2f}s / {limit:.0f}s]")
    assert item["ok"], item["detail"]
    assert item["seconds"] <= limit, f"over the {limit:.0f}s budget: {item['seconds']:.2f}s"


def test_criterion_1_worked_substitution():
    _run(golden.criterion_1_worked_substitution)


def test_criterion_1_detail_is_the_same_on_every_run():
    first, second = golden.criterion_1_worked_substitution(), golden.criterion_1_worked_substitution()
    assert first["detail"] == second["detail"] == "result 'c a b a a x1 d x1^g2 x1^g2 c a x1', substitute under 1ms"


def test_criterion_2_counting_identities():
    _run(golden.criterion_2_counting_identities)


def test_criterion_3_duality_suite():
    _run(golden.criterion_3_duality_suite)


def test_criterion_4_ramsey_search():
    _run(golden.criterion_4_ramsey_search)


def test_criterion_5_pa_verification():
    _run(golden.criterion_5_pa_verification)


def test_criterion_6_cardinality():
    _run(golden.criterion_6_cardinality)


def test_criterion_7_nonthin_pipeline():
    _run(golden.criterion_7_nonthin_pipeline)


def test_criterion_8_monotonization():
    _run(golden.criterion_8_monotonization)


def test_criterion_9_fragment_laws():
    _run(golden.criterion_9_fragment_laws)


def test_full_suite_summary():
    report = golden.run_golden_suite()
    assert report["ok"]
    assert len(report["criteria"]) == 9
