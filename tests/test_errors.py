import pickle

import pytest

from pflab.errors import (BoundarySentinelError, ConfigError, NumericalError,
                          VerificationError)


@pytest.mark.parametrize("exc", [
    ConfigError([(None, "x")]),
    ConfigError([(3, "p: not a number"), (None, "t_end: must exceed t0")]),
    VerificationError("gate failed: order", {"kind": "k", "order": 0.5},
                      ["order", "divergence"]),
    VerificationError("gate failed: none", None, ()),
    NumericalError("NaN at t = 1"),
    BoundarySentinelError("support reached the box"),
], ids=["config-one", "config-two", "verification", "verification-no-report",
        "numerical", "sentinel"])
def test_every_error_survives_pickling(exc):
    # a spawned worker hands its error back pickled: the type, the message
    # and the fields the CLI and the acceptance suite read all arrive
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    for field in ("errors", "report", "failed"):
        assert getattr(back, field, None) == getattr(exc, field, None)
