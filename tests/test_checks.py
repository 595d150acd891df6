"""The first-failure search behind every multi-case check."""

from screenops.checks import CheckResult, control, first_failure, passed


def test_witness_names_the_first_failing_case():
    ok, witness = first_failure(
        ((k,) for k in range(1, 6)),
        lambda k: k not in (2, 4),
        lambda k: "case %d" % k,
    )
    assert (ok, witness) == (False, "case 2")


def test_cases_after_the_first_failure_are_never_evaluated():
    def cases():
        yield (1,)
        yield (2,)
        raise AssertionError("advanced past the first failure")

    assert first_failure(cases(), lambda k: k != 2, str) == (False, "2")


def test_witness_is_built_only_for_the_failing_case():
    described = []

    def describe(k):
        described.append(k)
        return "case %d" % k

    first_failure(((k,) for k in range(5)), lambda k: k != 3, describe)
    assert described == [3]


def test_all_pass_gives_ok_and_empty_witness():
    assert first_failure(((k,) for k in range(4)), lambda k: True, str) == (True, "")
    assert first_failure((), lambda: False, str) == (True, "")


def test_failing_case_with_empty_witness_is_still_a_failure():
    ok, witness = first_failure([(0,)], lambda k: False, lambda k: "")
    assert (ok, witness) == (False, "")
    assert passed("empty-witness", "a failing case reads as a failure", ok, witness).status == "FAIL"


def test_check_result_repr_equality_defaults_and_status():
    # battery digests hash these reprs, so their text is part of the record
    result = passed("id", "anchor", True)
    assert repr(result) == (
        "CheckResult(check_id='id', anchor='anchor', ok=True, witness='', expected_fail=False)"
    )
    assert result == CheckResult("id", "anchor", True) != control("id", "anchor", True)
    statuses = [r.status for r in (result, passed("id", "anchor", False),
                                   control("id", "anchor", True), control("id", "anchor", False))]
    assert statuses == ["PASS", "FAIL", "EXPECTED-FAIL", "FAIL"]
