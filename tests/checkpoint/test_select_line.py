"""The one recovery walk, :func:`repro.checkpoint.recover.select_line`:
what its vocabularies publish and how it ranks lines."""

import pytest

from repro.checkpoint.recover import (
    CHECKPOINT_WALK,
    Line,
    Member,
    select_line,
    validate_member,
)
from repro.obs import match_family
from repro.pfs.piofs import PIOFS
from repro.workflow.manifest import WORKFLOW_WALK


@pytest.mark.parametrize("names", [CHECKPOINT_WALK, WORKFLOW_WALK])
def test_walk_counters_belong_to_catalogued_families(names):
    published = [
        names.verified_counter,
        names.rejected_counter,
        names.fallback_counter,
        names.tier_counter.format("l1"),
        names.tier_counter.format("l2"),
    ]
    assert [n for n in published if match_family(n) is None] == []


def test_missing_states_reject_every_line_newest_first():
    pfs = PIOFS()
    lines = [
        Line(2, {"a": Member("x.a.000002"), "b": Member("x.b.000002")}),
        Line.single("x.000001"),
    ]
    decision = select_line(pfs, "x", lines)
    assert decision.key is None
    assert [k for k, _ in decision.rejected] == [2, "x.000001"]
    # a member line names each failing member; a single state its errors
    assert decision.rejected[0][1][0].startswith("a: l2 x.a.000002: ")
    assert "b: " in decision.rejected[0][1][1]
    assert not decision.rejected[1][1][0].startswith(("a:", "l2"))


def test_validate_member_reports_each_failed_tier():
    pfs = PIOFS()
    tier, report, failures = validate_member(pfs, Member("gone"))
    assert (tier, report) == (None, None)
    assert [t for t, _ in failures] == ["l2"]
