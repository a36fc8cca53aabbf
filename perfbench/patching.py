"""The one way the benchmark installs wrappers on the program: replace
an attribute of a class or module, and later put every original back
in reverse order."""

from __future__ import annotations

from typing import Any, List, Tuple


class Patches:
    """Attribute replacements that :meth:`undo` reverts."""

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name`` (an attribute defined on ``owner``
        itself) with ``value``."""
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)
