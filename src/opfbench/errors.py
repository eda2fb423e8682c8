"""Exception types shared across the workbench."""


class OpfBenchError(Exception):
    """Base class for all workbench errors."""


class CaseError(OpfBenchError):
    """Case input the parser rejects. Carries the 1-based line number when
    known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CaseParseError(CaseError):
    """Malformed case text."""


class CaseStructureError(CaseError):
    """Tables parsed but are mutually inconsistent (e.g. gencost row count)."""


class UnsupportedFeatureError(CaseError):
    """Input uses a feature outside the supported Matpower subset."""


class SingularBranchError(CaseError):
    """Branch with zero series impedance cannot be converted to admittance."""


class OptionError(OpfBenchError, ValueError):
    """A solver or benchmark option outside its allowed range."""


class DegenerateSegmentError(OpfBenchError):
    """Cost curve has a repeated or non-increasing power coordinate."""


class ConvexityError(OpfBenchError):
    """Cost data is not convex within the configured tolerance."""


class CostDomainError(OpfBenchError):
    """Cost evaluation requested outside the curve's power domain."""


class ModelBuildError(OpfBenchError):
    """Formulation builder received inconsistent or unvalidated inputs."""


class InvalidNetworkError(ModelBuildError):
    """Network with error findings, kept in ``errors``."""

    def __init__(self, errors):
        super().__init__("network rejected: "
                         + "; ".join(f.message for f in errors))
        self.errors = errors


class RecoveryMismatchError(OpfBenchError):
    """Recomputed cost of a recovered solution disagrees with the solver objective."""
