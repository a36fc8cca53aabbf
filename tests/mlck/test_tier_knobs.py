"""The application-level tier= knob.  The checkpoint and restart engines
take no tier of their own: the multi-level store is reached through
:class:`~repro.mlck.checkpointer.MultiLevelCheckpointer`
(``tests/mlck/test_checkpointer.py``)."""

import pytest

from repro.errors import ReconfigurationError

pytestmark = pytest.mark.mlck


def test_application_rejects_unknown_tier():
    from repro.drms import DRMSApplication

    with pytest.raises(ReconfigurationError, match="unknown application"):
        DRMSApplication(lambda ctx: None, tier="memory")
