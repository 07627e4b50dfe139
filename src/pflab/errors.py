"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: config problems exit 1,
numerical failures (NaN, blow-up, boundary sentinel) exit 2, and failed
verification assertions exit 3.
"""


class NumericalError(RuntimeError):
    """A solver produced NaN/Inf, blew up, or hit an iteration cap."""


class BoundarySentinelError(NumericalError):
    """The support of a field came within the safety margin of the box
    boundary, so the finite box no longer stands in for the whole space."""


class VerificationError(RuntimeError):
    """A result violated a property the experiment was asked to verify;
    ``report`` is the experiment's report and ``failed`` names the gates
    that failed."""

    def __init__(self, msg: str, report: dict, failed: tuple):
        super().__init__(msg)
        self.report = report
        self.failed = tuple(failed)

    def __reduce__(self):
        # unpickling calls the class with these, so the error crosses a
        # process boundary whole
        return type(self), (self.args[0], self.report, self.failed)


class ConfigError(ValueError):
    """One or more configuration errors; ``errors`` lists (line, message)."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.errors)
        super().__init__(lines)

    def __reduce__(self):
        return type(self), (self.errors,)
