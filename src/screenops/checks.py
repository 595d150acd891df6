"""Uniform pass/fail records produced by the verification layers.

Every machine check reports a ``CheckResult``: a stable identifier, a
self-contained statement of the identity that was tested (the ``anchor``),
the outcome, and a witness string describing the first discrepancy when one
exists.  Negative controls set ``expected_fail``: they deliberately break
one ingredient and count as healthy exactly when the check really fails.

A check over many cases runs them through ``first_failure``: cases are
tested in order, the search stops at the first failing one, and the witness
describes that case.  Later cases are never evaluated, and the witness is
built only for the failing case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = ["CheckResult", "passed", "control", "first_failure"]


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    ok: bool
    witness: str = ""
    expected_fail: bool = False

    @property
    def status(self) -> str:
        if self.expected_fail:
            return "EXPECTED-FAIL" if self.ok else "FAIL"
        return "PASS" if self.ok else "FAIL"


def passed(check_id: str, anchor: str, ok: bool, witness: str = "") -> CheckResult:
    return CheckResult(check_id, anchor, ok, witness)


def control(check_id: str, anchor: str, broke: bool, witness: str = "") -> CheckResult:
    """Negative control: healthy iff the deliberately broken variant fails."""
    return CheckResult(check_id, anchor, broke, witness, expected_fail=True)


def first_failure(
    cases: Iterable[tuple],
    holds: Callable[..., bool],
    describe: Callable[..., str],
) -> tuple[bool, str]:
    """Test ``holds(*case)`` on each case in order, stopping at the first failure.

    Returns ``(True, "")`` when every case holds, otherwise ``(False,
    describe(*case))`` for the first case that does not; the flag, not the
    witness, carries the verdict, so an empty witness still reads as a failure.
    """
    for case in cases:
        if not holds(*case):
            return False, describe(*case)
    return True, ""


def _fmt(x) -> str:
    """Witness text for a value, cut to at most 120 characters."""
    s = repr(x)
    return s if len(s) <= 120 else s[:117] + "..."
