"""Exception classes shared across the package: one per CLI exit code, and
two that callers catch to carry on.

- `ValidationError`: bad inputs or configuration. Exit code 2.
- `CohortError`: not enough usable data to fit or evaluate. Exit code 3.
- `IoFailure`: a file or stream that cannot be read or written. Exit code 4.
- `SnapGapError`: the base of them all; raised itself, it is a run that
  failed on input the families accept, such as a dead worker process.
  Exit code 5.
- `DegenerateDesign` (a `ValidationError`): the uptake OLS has too few count
  pairs, or no spread in x. The pipeline records it as the diagnostic's
  error and `snapgap label` leaves the residuals blank; both carry on.
- `NonConvergence` (a `SnapGapError`): a fit did not converge. CV records it
  as a failed candidate and the pipeline as a failed task; exit code 5 when
  it ends the run.

The CLI prints only the message, so a raise site names what went wrong in
its text, not in a class of its own.
"""


class SnapGapError(Exception):
    """Base class for all package errors. CLI exit code 5 outside the three
    families below."""


class ValidationError(SnapGapError):
    """Bad inputs or configuration. CLI exit code 2."""


class CohortError(SnapGapError):
    """A cohort cannot support the requested fit/evaluation. CLI exit code 3."""


class IoFailure(SnapGapError):
    """Filesystem or stream failure. CLI exit code 4."""


class DegenerateDesign(ValidationError):
    """The uptake OLS cannot be fit. Caught to skip the diagnostic."""


class NonConvergence(SnapGapError):
    """A fit did not converge. CLI exit code 5 when it ends the run."""
