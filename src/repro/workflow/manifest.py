"""The v1 workflow manifest: one record naming a consistent line.

A workflow checkpoint with base ``W`` and generation ``g`` consists of
the member checkpoints themselves (ordinary v3 DRMS states, one per
member under its own prefix) plus one workflow manifest
``W.workflow.NNNNNN.manifest`` recording, for every member, the exact
prefix + task count + iteration captured on the line.  The manifest is
committed by the same two-phase protocol as a v3 member manifest
(:func:`~repro.checkpoint.format.commit_two_phase`: staged to ``.tmp``,
read back, renamed) and written only after *every* member checkpoint of
the line succeeded — so its presence marks a complete, mutually
consistent set, and a crash mid-line leaves the previous committed line
untouched.

Recovery inverts this: :func:`select_workflow_restart_state` turns the
committed workflow generations into candidate lines for the one
recovery walk, :func:`~repro.checkpoint.recover.select_line`, which
picks the newest whose **every** member state is byte-valid — a torn
set (one member's generation lost or corrupt) is rejected *as a unit*,
never mixed with states from another line.  Member validation is
tier-aware: a member whose L1 memory replicas still hold and verify the
generation is served from memory, the rest from the PFS.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.checkpoint.format import commit_two_phase
from repro.checkpoint.recover import (
    Line,
    Member,
    RecoveryDecision,
    WalkNames,
    restart_candidates,
    select_line,
    validate_line,
)
from repro.checkpoint.rotation import _GEN_RE
from repro.errors import CheckpointError, WorkflowError
from repro.pfs.piofs import PIOFS

__all__ = [
    "WORKFLOW_VERSION",
    "WorkflowDecision",
    "WorkflowValidation",
    "WORKFLOW_WALK",
    "check_member_name",
    "newest_consistent_generations",
    "read_workflow_manifest",
    "select_workflow_restart_state",
    "validate_workflow_line",
    "workflow_generations",
    "workflow_line",
    "workflow_line_prefix",
    "workflow_manifest_name",
    "write_workflow_manifest",
]

WORKFLOW_VERSION = 1

#: member (and MPMD component) names are path segments of checkpoint
#: prefixes; the separator is ".", so a name containing one would alias
#: another member's namespace, and a six-digit name would alias a
#: rotation generation of the group base
_MEMBER_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")
_GEN_LIKE_RE = re.compile(r"^\d{6}$")
_RESERVED_NAMES = frozenset(
    {"workflow", "mpmd", "manifest", "segment", "array", "task"}
)

_WF_MANIFEST_RE = re.compile(r"\.workflow\.(?P<gen>\d{6})\.manifest$")
_WF_ANY_RE = re.compile(r"\.workflow\.(?P<gen>\d{6})(\..*)?$")
_MEMBER_GEN_RE = re.compile(r"\.(?P<gen>\d{6})(\..*)?$")


def check_member_name(name: str, taken: Mapping[str, Any] = ()) -> str:
    """Validate a workflow-member / MPMD-component name.

    The name becomes a dotted prefix segment, so anything that would
    alias another namespace is rejected: dots (``a.b`` collides with
    member ``a``'s files), six-digit names (collide with rotation
    generations), reserved file-kind words, and duplicates."""
    if not _MEMBER_NAME_RE.match(name):
        raise CheckpointError(
            f"invalid member name {name!r}: use letters, digits, '_' or "
            "'-' only (dots would alias another member's checkpoint "
            "namespace)"
        )
    if _GEN_LIKE_RE.match(name):
        raise CheckpointError(
            f"invalid member name {name!r}: a six-digit name aliases a "
            "rotation generation of the group prefix"
        )
    if name in _RESERVED_NAMES:
        raise CheckpointError(
            f"invalid member name {name!r}: reserved checkpoint file kind"
        )
    if name in taken:
        raise CheckpointError(f"duplicate member name {name!r}")
    return name


# -- names --------------------------------------------------------------------


def workflow_line_prefix(base: str, generation: int) -> str:
    """The dotted prefix naming workflow generation ``generation``."""
    return f"{base}.workflow.{generation:06d}"


def workflow_manifest_name(base: str, generation: int) -> str:
    """Workflow-manifest file name for one generation."""
    return workflow_line_prefix(base, generation) + ".manifest"


# -- manifest I/O -------------------------------------------------------------


def write_workflow_manifest(
    pfs: PIOFS, base: str, generation: int, manifest: Dict[str, Any]
) -> str:
    """Commit a workflow manifest through
    :func:`~repro.checkpoint.format.commit_two_phase` (stamps the
    workflow format version); returns the manifest file name.  A crash
    anywhere before the rename leaves no workflow manifest, so the
    half-committed line is invisible to :func:`workflow_generations`."""
    manifest = dict(manifest)
    manifest["workflow_version"] = WORKFLOW_VERSION
    manifest["base"] = base
    manifest["generation"] = generation
    name = workflow_manifest_name(base, generation)
    commit_two_phase(pfs, name, json.dumps(manifest, sort_keys=True).encode())
    return name


def read_workflow_manifest(pfs: PIOFS, base: str, generation: int) -> Dict[str, Any]:
    """Read and version-check one workflow manifest."""
    name = workflow_manifest_name(base, generation)
    if not pfs.exists(name):
        raise WorkflowError(f"no workflow manifest {name!r}")
    raw = pfs.read_at(name, 0, pfs.file_size(name))
    try:
        manifest = json.loads(raw.decode())
    except Exception as exc:
        raise WorkflowError(f"corrupt workflow manifest {name!r}: {exc}") from exc
    version = manifest.get("workflow_version")
    if version != WORKFLOW_VERSION:
        raise WorkflowError(
            f"workflow manifest {name!r} has version {version}; this "
            f"library reads version {WORKFLOW_VERSION}"
        )
    return manifest


def workflow_generations(pfs: PIOFS, base: str) -> List[int]:
    """Committed workflow generations under ``base``, oldest first.
    Only readable manifests count (the manifest is written last, so a
    half-committed line is invisible here)."""
    out = []
    head = f"{base}.workflow."
    for name in pfs.listdir(head):
        m = _WF_MANIFEST_RE.search(name)
        if m is None or name != workflow_manifest_name(base, int(m.group("gen"))):
            continue
        try:
            read_workflow_manifest(pfs, base, int(m.group("gen")))
        except WorkflowError:
            continue
        out.append(int(m.group("gen")))
    return sorted(out)


def next_workflow_generation(
    pfs: PIOFS, base: str, member_bases: Mapping[str, str] = ()
) -> int:
    """A generation number strictly newer than every existing workflow
    artifact — including incomplete lines (stale ``.tmp`` manifests)
    and every member's own numbered states, whose numbers must not be
    reused even after a manifest is lost."""
    newest = 0
    for name in pfs.listdir(f"{base}.workflow."):
        m = _WF_ANY_RE.search(name)
        if m:
            newest = max(newest, int(m.group("gen")))
    for mbase in dict(member_bases).values():
        for name in pfs.listdir(mbase + "."):
            m = _MEMBER_GEN_RE.match(name[len(mbase):])
            if m:
                newest = max(newest, int(m.group("gen")))
    return newest + 1


# -- validation ---------------------------------------------------------------


@dataclass
class WorkflowValidation:
    """Outcome of auditing one workflow line."""

    generation: int
    #: member -> serving tier ("l1" or "l2") for every valid member
    member_tiers: Dict[str, str] = field(default_factory=dict)
    #: "member: detail" for every member that failed the audit
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True only when *every* member verified — a single torn
        member rejects the whole line."""
        return not self.errors


def workflow_line(
    manifest: Mapping[str, Any], l1_stores: Mapping[str, Any]
) -> Line:
    """The candidate line a workflow manifest names: each member's
    recorded prefix, offered from its L1 store when that holds it."""
    return Line(
        int(manifest["generation"]),
        {
            member: Member.of(entry["prefix"], l1_stores.get(member))
            for member, entry in manifest.get("members", {}).items()
        },
    )


def validate_workflow_line(
    pfs: PIOFS,
    manifest: Mapping[str, Any],
    l1_stores: Optional[Mapping[str, Any]] = None,
) -> WorkflowValidation:
    """Audit every member state named by a workflow manifest.  The line
    is ``ok`` only when all members verify; ``member_tiers`` records
    which tier would serve each member (L1 memory replicas preferred,
    per member — a mixed-tier restart is normal)."""
    line = workflow_line(manifest, dict(l1_stores or {}))
    member_tiers, _, errors = validate_line(pfs, line)
    return WorkflowValidation(line.key, member_tiers, errors)


# -- recovery walks -----------------------------------------------------------

#: one decision type for every walk
WorkflowDecision = RecoveryDecision

WORKFLOW_WALK = WalkNames(
    span="workflow_recovery_walk",
    key="generation",
    rejected="workflow_line_rejected",
    verified="workflow_line_verified",
    fallback="workflow_restart_fallback",
    verified_counter="workflow.lines.verified",
    rejected_counter="workflow.lines.rejected",
    fallback_counter="workflow.lines.fallback",
    tier_counter="workflow.restore.{}",
    record_verified=True,
)


def select_workflow_restart_state(
    pfs: PIOFS,
    base: str,
    l1_stores: Optional[Mapping[str, Any]] = None,
    events=None,
    clock: float = 0.0,
) -> RecoveryDecision:
    """Pick the newest workflow generation whose every member state is
    byte-valid, walking newest-to-oldest and rejecting torn lines *as a
    unit* — one lost or corrupt member never costs less than the whole
    line, and never mixes with a state from another line.

    ``l1_stores`` maps member names to their
    :class:`~repro.mlck.store.L1Store` (or None), upgrading per-member
    validation to the tier-aware policy: members whose memory replicas
    verify are served from L1, the rest from the PFS."""
    l1_stores = dict(l1_stores or {})
    manifests = {
        gen: read_workflow_manifest(pfs, base, gen)
        for gen in reversed(workflow_generations(pfs, base))
    }
    lines = [workflow_line(m, l1_stores) for m in manifests.values()]
    decision = select_line(
        pfs, base, lines, WORKFLOW_WALK,
        events=events, clock=clock, detail={"base": base},
    )
    decision.manifest = manifests.get(decision.generation)
    return decision


# -- joint rotation walk (MPMD components without workflow manifests) ---------


def newest_consistent_generations(
    pfs: PIOFS,
    bases: Mapping[str, str],
    l1_stores: Optional[Mapping[str, Any]] = None,
) -> Tuple[Optional[Dict[str, str]], List[Tuple[int, List[str]]]]:
    """The newest rotation generation number ``g`` at which *every*
    member has a byte-valid state ``<base>.NNNNNN`` — the consistency
    line of a component group that rotates checkpoints without workflow
    manifests (:meth:`~repro.drms.mpmd.MPMDApplication.restart`).

    A number where any member is missing, lost, or corrupt is rejected
    **as a unit**, so components never silently restart from mixed
    logical generations.  Returns ``({member: prefix}, rejected)`` with
    ``rejected`` the list of ``(generation, errors)`` skipped, or
    ``(None, rejected)`` when no number is consistent.  Candidates are
    the rotation numbers any member committed, newest first."""
    l1_stores = dict(l1_stores or {})
    numbers = {
        int(_GEN_RE.match(prefix).group("gen"))
        for mbase in bases.values()
        for prefix in restart_candidates(pfs, mbase)
        if prefix != mbase
    }
    lines = [
        Line(g, {
            member: Member.of(f"{mbase}.{g:06d}", l1_stores.get(member))
            for member, mbase in bases.items()
        })
        for g in sorted(numbers, reverse=True)
    ]
    decision = select_line(pfs, "", lines)
    return (decision.members if decision.key is not None else None), decision.rejected
