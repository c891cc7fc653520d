"""Exception hierarchy shared across the package.

Three broad families map onto CLI exit codes: validation problems (bad
inputs, bad config), cohort problems (not enough usable data to fit or
evaluate), and I/O problems. Every other error is a run that failed on input
the families accept, such as a dead worker process; it exits with code 5.
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


# --- ingest ---------------------------------------------------------------

class MissingColumn(ValidationError):
    pass


class UnreadableStream(IoFailure):
    pass


class EmptyInput(ValidationError):
    pass


class NonNumericZip(ValidationError):
    pass


class LengthOverflow(ValidationError):
    pass


# --- labeling -------------------------------------------------------------

class NoEligibleRows(CohortError):
    pass


class DegenerateDesign(ValidationError):
    pass


# --- models ---------------------------------------------------------------

class SingleClass(CohortError):
    pass


class NonConvergence(SnapGapError):
    """A fit did not converge. CLI exit code 5 when it ends the run."""


class FeatureMismatch(ValidationError):
    pass


class InvalidParams(ValidationError):
    pass


class TooFewPositives(CohortError):
    pass


# --- calibration ----------------------------------------------------------

class InsufficientData(CohortError):
    pass


class DegeneratePrevalence(ValidationError):
    pass


# --- metrics --------------------------------------------------------------

class NoPositives(CohortError):
    pass


# --- pipeline -------------------------------------------------------------

class PeriodsOverlap(ValidationError):
    pass


class InsufficientCohort(CohortError):
    pass


class WorkerDied(SnapGapError):
    """A worker process running pipeline tasks exited without a result. CLI
    exit code 5."""


class InvalidSpec(ValidationError):
    pass
