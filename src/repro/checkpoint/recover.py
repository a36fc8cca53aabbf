"""Recovery policy: restart from the newest line that verifies.

The paper (Section 3) keeps multiple checkpointed states under rotating
prefixes precisely so that "the application can be restarted from any
of them".  This module turns that flexibility into one automatic
policy, :func:`select_line`: walk the candidate *lines* newest-first
and take the first whose every member state verifies on some tier — so
a state corrupted by a torn write or a flipped bit costs one generation
of progress instead of a failed recovery.

A line is a consistent set of per-member states (MUSCLE3's workflow
snapshot, SNIPPETS.md §1).  A single application's generation is a
one-member line; a workflow generation or an MPMD joint rotation number
is a line of several named members, rejected *as a unit* when any
member fails.  Every member is audited by :func:`validate_member`, L1
memory replicas first, then the PFS copy.  The entry points —
:func:`select_restart_state` here,
:func:`~repro.mlck.recovery.select_tiered_restart_state`,
:func:`~repro.workflow.manifest.select_workflow_restart_state` and
:func:`~repro.workflow.manifest.newest_consistent_generations` — only
enumerate candidate lines.

Every decision is observable.  Given a :class:`WalkNames` vocabulary,
the walk opens one span, counts verified / rejected / fallback lines,
records flight events, and (when an
:class:`~repro.infra.events.EventLog` is supplied) emits one event per
rejected line, one for the chosen line and one more whenever the chosen
line is not the newest.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checkpoint.format import manifest_name
from repro.checkpoint.rotation import _GEN_RE
from repro.checkpoint.validate import ValidationReport, validate_checkpoint
from repro.errors import RestartError
from repro.obs import get_flight, get_tracer
from repro.pfs.piofs import PIOFS

__all__ = [
    "CHECKPOINT_WALK",
    "Line",
    "Member",
    "RecoveryDecision",
    "WalkNames",
    "restart_candidates",
    "restart_latest_valid",
    "select_line",
    "select_restart_state",
    "validate_line",
    "validate_member",
]


@dataclass(frozen=True)
class Member:
    """One member state of a candidate line and the tiers that may
    serve it, in preference order (``"l1"`` memory replicas held by
    ``l1``, ``"l2"`` the PFS copy)."""

    prefix: str
    tiers: Tuple[str, ...] = ("l2",)
    l1: Any = None

    @classmethod
    def of(cls, prefix: str, l1=None) -> "Member":
        """``prefix`` offered from L1 when ``l1`` holds it, else from
        the PFS alone."""
        if l1 is not None and l1.has(prefix):
            return cls(prefix, ("l1", "l2"), l1)
        return cls(prefix)


@dataclass
class Line:
    """One candidate consistent line.  ``members`` maps member names to
    states; a single application's state is the one member ``""``.
    ``tier``, set only by the tier-aware single-state walk, is the one
    tier the line is offered on — that walk tries each (state, tier)
    pair as its own line."""

    key: Any
    members: Dict[str, Member]
    tier: Optional[str] = None

    @classmethod
    def single(cls, prefix: str, tier: Optional[str] = None, l1=None) -> "Line":
        member = Member(prefix, (tier,), l1) if tier else Member(prefix)
        return cls(prefix, {"": member}, tier)

    @property
    def is_single(self) -> bool:
        return list(self.members) == [""]


@dataclass(frozen=True)
class WalkNames:
    """What one family of walks publishes: span, event and flight kinds
    and counter names (all pinned by ``repro.obs.catalog`` and its
    tests)."""

    span: str
    #: detail key naming a line in events and records
    key: str
    rejected: str
    verified: str
    fallback: str
    verified_counter: str
    rejected_counter: str
    fallback_counter: str
    #: counter per serving tier of the chosen line's members
    tier_counter: str
    #: (started, done) flight kinds bracketing the walk, if recorded
    bracket: Optional[Tuple[str, str]] = None
    #: record the chosen line as a flight event too
    record_verified: bool = False


CHECKPOINT_WALK = WalkNames(
    span="recovery_walk",
    key="prefix",
    rejected="checkpoint_rejected",
    verified="checkpoint_verified",
    fallback="restart_fallback",
    verified_counter="recover.verified",
    rejected_counter="recover.rejected",
    fallback_counter="recover.fallback",
    tier_counter="mlck.recover.{}",
    bracket=("recovery_walk_started", "recovery_walk_done"),
)


@dataclass
class RecoveryDecision:
    """Outcome of a recovery walk over the candidate lines under
    ``base``."""

    base: str
    #: key of the chosen line — a checkpoint prefix, or a workflow or
    #: joint generation number — or None when no candidate verified
    key: Any = None
    #: (key, errors) for every newer candidate that failed the audit
    rejected: List[Tuple[Any, List[str]]] = field(default_factory=list)
    #: which tier serves a single chosen state: "l1" (memory replicas),
    #: "l2" (PFS), or None for the PFS-only walk / when nothing verified
    tier: Optional[str] = None
    #: member -> prefix of the chosen line
    members: Dict[str, str] = field(default_factory=dict)
    #: member -> serving tier of the chosen line
    member_tiers: Dict[str, str] = field(default_factory=dict)
    #: the chosen workflow line's manifest (workflow walks only)
    manifest: Optional[Dict[str, Any]] = None

    @property
    def prefix(self) -> Optional[str]:
        """The chosen checkpoint prefix (single-state walks)."""
        return self.key

    @property
    def generation(self) -> Optional[int]:
        """The chosen generation number (workflow and joint walks)."""
        return self.key

    @property
    def fell_back(self) -> bool:
        """True when the chosen line is not the newest candidate."""
        return self.key is not None and bool(self.rejected)

    def rejection_detail(self) -> str:
        """The "nothing verifies" detail: the first error of up to
        three rejected candidates, parenthesised, or "" when none was
        rejected."""
        detail = "; ".join(
            f"{'gen ' if isinstance(key, int) else ''}{key}: {errs[0]}"
            for key, errs in self.rejected[:3]
        )
        return f" ({detail})" if detail else ""


def validate_member(
    pfs: PIOFS, member: Member
) -> Tuple[Optional[str], Optional[ValidationReport], List[Tuple[str, List[str]]]]:
    """Audit one member state on each offered tier, memory first.
    Returns the serving tier and its report, plus ``(tier, errors)``
    for every tier that failed before it (all of them when neither
    tier can serve)."""
    failures: List[Tuple[str, List[str]]] = []
    for tier in member.tiers:
        if tier == "l1":
            member.l1.sync_with_machine()
            report = member.l1.validate_generation(member.prefix)
        else:
            report = validate_checkpoint(pfs, member.prefix)
        if report.ok:
            return tier, report, failures
        failures.append((tier, list(report.errors)))
    return None, None, failures


def validate_line(pfs: PIOFS, line: Line):
    """Audit every member of ``line``.  Returns ``(member_tiers,
    reports, errors)``; the line verifies only when ``errors`` is
    empty."""
    tiers: Dict[str, str] = {}
    reports: Dict[str, ValidationReport] = {}
    errors: List[str] = []
    for name, member in sorted(line.members.items()):
        tier, report, failures = validate_member(pfs, member)
        if tier is not None:
            tiers[name] = tier
            reports[name] = report
        elif line.is_single:
            errors.extend(
                f"{t}: {e}" if line.tier else e for t, errs in failures for e in errs
            )
        else:
            tagged = [f"{t} {member.prefix}: {e}" for t, errs in failures for e in errs]
            errors.append(f"{name}: " + "; ".join(tagged[:2]))
    if not line.members:
        errors.append("line names no members")
    return tiers, reports, errors


def select_line(
    pfs: PIOFS,
    base: str,
    lines: Sequence[Line],
    names: Optional[WalkNames] = None,
    events=None,
    clock: float = 0.0,
    detail: Optional[Mapping[str, Any]] = None,
) -> RecoveryDecision:
    """The recovery walk: take the newest of ``lines`` (given
    newest-first) whose every member verifies, rejecting the rest as
    units.  ``names`` selects what the walk publishes (nothing when
    None); ``detail`` (e.g. ``{"job": ...}``) is attached to every
    event and flight record; ``events``/``clock`` hook the walk into a
    cluster's :class:`~repro.infra.events.EventLog`."""
    decision = RecoveryDecision(base=base)
    pub = _Publisher(names, base, events, clock, detail) if names else None
    with pub.walk(lines) if pub else nullcontext():
        for line in lines:
            tiers, reports, errors = validate_line(pfs, line)
            if errors:
                decision.rejected.append((line.key, errors))
                if pub:
                    pub.rejected(line, errors)
                continue
            decision.key = line.key
            decision.tier = line.tier
            decision.members = {n: mb.prefix for n, mb in line.members.items()}
            decision.member_tiers = tiers
            if pub:
                pub.verified(line, reports, decision)
            break
        if pub:
            pub.done(decision)
    return decision


class _Publisher:
    """Everything one published walk emits: its span, counters, tracer
    marks, flight records and events, named by a :class:`WalkNames`."""

    def __init__(self, names: WalkNames, base, events, clock, detail):
        self.names = names
        self.events = events
        self.clock = clock
        self.detail = dict(detail or {})
        self.where = {"base": base, **self.detail}
        self.obs = get_tracer()
        self.fr = get_flight()
        self.l1_rejected = False

    @contextmanager
    def walk(self, lines: Sequence[Line]):
        self.ncand = len({line.key for line in lines})
        with self.obs.span(self.names.span, **self.where) as self.sp:
            if self.names.bracket:
                self.fr.record(
                    self.names.bracket[0], time=self.clock, **self.where,
                    candidates=self.ncand,
                )
            yield

    def _key(self, line: Line) -> Dict[str, Any]:
        key = {self.names.key: line.key}
        if line.tier:
            key["tier"] = line.tier
        return key

    def _emit(self, kind: str, **detail) -> None:
        if self.events is not None:
            self.events.emit(self.clock, kind, **self.detail, **detail)

    def rejected(self, line: Line, errors: List[str]) -> None:
        n = self.names
        key = self._key(line)
        self.l1_rejected = self.l1_rejected or line.tier == "l1"
        self.obs.mark(n.rejected, **key, errors=len(errors))
        self.fr.record(
            n.rejected, time=self.clock, **self.detail, **key, errors=len(errors)
        )
        self.obs.metrics.counter(n.rejected_counter).inc()
        self._emit(n.rejected, **key, errors=errors)

    def verified(self, line: Line, reports, decision: RecoveryDecision) -> None:
        n = self.names
        m = self.obs.metrics
        key = self._key(line)
        m.counter(n.verified_counter).inc()
        if line.is_single:
            served = [line.tier] if line.tier else []
            report = reports[""]
            chosen = {"files": report.files, "bytes_hashed": report.bytes_hashed}
        else:
            served = list(decision.member_tiers.values())
            chosen = {"tiers": dict(decision.member_tiers)}
        for tier in served:
            m.counter(n.tier_counter.format(tier)).inc()
        if line.tier == "l2" and self.l1_rejected:
            # an L1 candidate existed but could not serve
            m.counter("mlck.l2.fallbacks").inc()
        if n.record_verified:
            self.fr.record(n.verified, time=self.clock, **self.detail, **key, **chosen)
        self._emit(n.verified, **key, **chosen)
        skipped = [k for k, _ in decision.rejected]
        if skipped:
            self._emit(n.fallback, **key, skipped=skipped)
            self.obs.mark(
                n.fallback, chosen=line.key,
                **({"tier": line.tier} if line.tier else {}), skipped=skipped,
            )
            m.counter(n.fallback_counter).inc()

    def done(self, decision: RecoveryDecision) -> None:
        self.sp.set(
            candidates=self.ncand,
            rejected=len(decision.rejected),
            chosen=decision.key,
            tier=decision.tier,
        )
        if self.names.bracket:
            self.fr.record(
                self.names.bracket[1], time=self.clock, **self.where,
                chosen=decision.key, tier=decision.tier,
                rejected=len(decision.rejected),
            )


def restart_candidates(pfs: PIOFS, base: str) -> List[str]:
    """Committed prefixes under ``base``, newest first: the rotation
    generations (``base.NNNNNN``) in reverse order, then ``base``
    itself when a plain un-rotated state exists under that name.

    Discovered from manifest *names* alone — no manifest is read, so
    enumerating costs no PFS read.  Sound because the two-phase commit
    renames ``.manifest.tmp`` onto ``.manifest`` only after read-back
    validation: a listed name is a committed manifest, and one that no
    longer parses is a damaged state the walk must reject, not skip."""
    suffix = ".manifest"
    gens = []
    for name in pfs.listdir(base + "."):
        if not name.endswith(suffix):
            continue
        m = _GEN_RE.match(name[: -len(suffix)])
        if m is not None and m.group("base") == base:
            gens.append((int(m.group("gen")), m.group(0)))
    out = [prefix for _, prefix in sorted(gens, reverse=True)]
    if pfs.exists(manifest_name(base)):
        out.append(base)
    return out


def select_restart_state(
    pfs: PIOFS,
    base: str,
    events=None,
    clock: float = 0.0,
    job: Optional[str] = None,
    l1=None,
) -> RecoveryDecision:
    """Pick the newest checkpointed state under ``base`` that passes
    validation, recording (and optionally emitting as events) each
    rejected newer state.  ``events``/``clock``/``job`` hook the walk
    into a cluster's :class:`~repro.infra.events.EventLog`.

    ``l1``, when given an :class:`~repro.mlck.store.L1Store`, upgrades
    the walk to the tier-aware policy of
    :func:`~repro.mlck.recovery.select_tiered_restart_state`: the
    newest generation satisfiable from *any* tier wins, memory replicas
    preferred over the PFS, and the decision's ``tier`` says which tier
    serves it."""
    if l1 is not None:
        from repro.mlck.recovery import select_tiered_restart_state

        return select_tiered_restart_state(
            pfs, base, l1, events=events, clock=clock, job=job
        )
    lines = [Line.single(p) for p in restart_candidates(pfs, base)]
    return select_line(
        pfs, base, lines, CHECKPOINT_WALK,
        events=events, clock=clock, detail={"job": job},
    )


def restart_latest_valid(pfs: PIOFS, base: str, ntasks: int, **kwargs):
    """Convenience engine entry point: :func:`select_restart_state`
    followed by :func:`~repro.checkpoint.drms.drms_restart` of the
    chosen state.  Raises :class:`~repro.errors.RestartError` when no
    checkpoint under ``base`` verifies."""
    from repro.checkpoint.drms import drms_restart

    decision = select_restart_state(pfs, base)
    if decision.prefix is None:
        raise RestartError(
            f"no checkpoint under {base!r} passes validation"
            + decision.rejection_detail()
        )
    state, bd = drms_restart(pfs, decision.prefix, ntasks, **kwargs)
    return state, bd, decision
