"""Exception hierarchy for the gradalg engine.

Exit-code contract used by the CLI: errors deriving from HypothesisError or
ValidationError map to exit code 2 (bad input / unmet hypothesis), everything
else unexpected maps to exit code 1. Negative decisions are not exceptions.
"""


class GradalgError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GradalgError):
    """Input object violates a structural invariant."""


class HypothesisError(GradalgError):
    """Operation refused: a hypothesis the method relies on fails for the input."""


# group_core

class TableInvalid(ValidationError):
    """Multiplication table fails the group axioms or neutral-element slot."""


class SpecMalformed(ValidationError):
    """Unparseable or unknown group-spec string."""


class OrderCapExceeded(ValidationError):
    """Group order above the configured cap."""


class NotASubgroup(ValidationError):
    """Member set is not a subgroup of the parent group."""


# cyclo_scalars

class FieldMismatch(ValidationError):
    """Arithmetic attempted between numbers of different cyclotomic fields."""


class DivisionByZero(GradalgError):
    """Inverse of the zero scalar."""


# cohomology

class NotACocycle(ValidationError):
    """Exponent matrix fails the 2-cocycle identity."""


class DomainMismatch(ValidationError):
    """Cocycle operands live on different subgroups."""


class ModulusTooLarge(ValidationError):
    """Modulus too large for exact int64 linear algebra (needs N*N*width < 2**63)."""


# twisted_algebra / graded_matrix

class AlgebraMismatch(ValidationError):
    """Elements of different algebras combined."""


class AmbientMismatch(ValidationError):
    """Algebras over different ambient groups compared."""


class NotHomogeneous(GradalgError):
    """Element is not concentrated in a single degree."""


class ZeroElement(GradalgError):
    """Operation undefined for the zero element."""


class IndexOutOfRange(ValidationError):
    """Matrix-unit index outside 0..k-1."""


class LengthMismatch(ValidationError):
    """Tuple length does not match the algebra size."""


class InvalidWitness(ValidationError):
    """Witness fails its reconstruction invariant."""


# embeddings

class HypothesisViolated(HypothesisError):
    """Required hypothesis not satisfied (e.g. theta outside the normalizer)."""


class ChainNotCentral(HypothesisError):
    """Tower chain step is not a central extension."""


class VerificationFailed(GradalgError):
    """A constructed witness or verdict failed the engine's own check (a bug, exit 1)."""


class ExtensionFailed(GradalgError):
    """A tower step's cocycle does not extend to the next subgroup of the chain."""


# graded_pi

class DegreeMismatch(ValidationError):
    """Substitution degrees do not match the assignment."""


class DegreeCapExceeded(ValidationError):
    """Requested multilinear degree above the configured cap."""


# cli_io

class ParseError(ValidationError):
    """Malformed JSON input."""


class UsageError(ValidationError):
    """Bad command-line invocation."""
