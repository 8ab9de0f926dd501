"""Exception hierarchy shared across the library.

Everything derives from SecAggError so callers can catch protocol-level
failures without swallowing programming errors.
"""


class SecAggError(Exception):
    """Base class for all library errors."""


# --- field / encoding ------------------------------------------------------


class ZeroInverse(SecAggError):
    """Multiplicative inverse of zero requested."""


class NonFiniteInput(SecAggError):
    """A NaN or infinite value was given to the fixed-point encoder."""


class DecodeRange(SecAggError):
    """Field element falls in the ambiguous band between the positive and
    negative fixed-point ranges; the sum exceeded its declared bounds."""


# --- secret sharing --------------------------------------------------------


class BadThreshold(SecAggError):
    """Threshold t outside 0 < t <= n."""


class BadPacking(SecAggError):
    """Packing width k below 1, or incompatible with (t, n): needs
    n >= t + k - 1."""


class NotEnoughShares(SecAggError):
    """Fewer shares supplied than the reconstruction threshold."""


class DuplicatePoint(SecAggError):
    """Two shares carry the same evaluation point."""


class PointMismatch(SecAggError):
    """Share sets being combined do not line up point-by-point."""


class FieldTooLarge(SecAggError):
    """Brute-force enumeration requested over a field too big to enumerate."""


# --- masking / key agreement -----------------------------------------------


class InvalidPublicKey(SecAggError):
    """Public key fails the subgroup membership check."""


class DimensionMismatch(SecAggError):
    """Vector/matrix dimensions disagree."""


# --- protocol state machines -----------------------------------------------


class ProtocolError(SecAggError):
    """Base class for per-round protocol failures."""


class UnexpectedMessage(ProtocolError):
    """Message kind not valid for the receiving client's current stage."""


class DuplicateSender(ProtocolError):
    """A second message of the same kind from a sender already heard."""


class InsufficientSurvivors(ProtocolError):
    """Too few live clients remain to finish a reconstruction."""


class InsufficientContributors(ProtocolError):
    """No client input made it into the round."""


class MissingKeyShares(ProtocolError):
    """A contributor's secret shares were never distributed widely enough."""


class SafetyViolation(ProtocolError):
    """An unmask step would reveal both secrets of the same client."""


class UnmaskMismatch(ProtocolError):
    """An unmask broadcast opens other secrets than the receiver's own."""


class SecretOutOfRange(ProtocolError):
    """An opened key or seed is wider than it was shared: a share row it
    was interpolated from was corrupted."""


class DivergentAggregate(ProtocolError):
    """Two survivors finished the round with different aggregates."""


# --- simulation ------------------------------------------------------------


class EmptyContributors(SecAggError):
    """Aggregation over an empty contributor set."""
