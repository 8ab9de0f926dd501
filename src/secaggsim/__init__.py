"""Dropout-resilient, privacy-preserving aggregation for decentralized
learning: prime-field fixed-point encoding, plain and packed Shamir secret
sharing, LWE and pairwise masking, three aggregation protocols, and a
deterministic metered simulator.
"""

from .errors import (
    BadPacking,
    BadThreshold,
    DecodeRange,
    DimensionMismatch,
    DivergentAggregate,
    DuplicatePoint,
    DuplicateSender,
    EmptyContributors,
    FieldTooLarge,
    InsufficientContributors,
    InsufficientSurvivors,
    InvalidPublicKey,
    MissingKeyShares,
    NonFiniteInput,
    NotEnoughShares,
    PointMismatch,
    ProtocolError,
    SafetyViolation,
    SecretOutOfRange,
    SecAggError,
    UnexpectedMessage,
    UnmaskMismatch,
    ZeroInverse,
)
from .field import (
    DEFAULT_FIELD,
    M61,
    FieldPrime,
    FixedPointConfig,
    decode_vec,
    encode_vec,
    field_arith,
    fp_decode,
    fp_encode,
    mod_inverse,
)
from .masking import (
    DH_GROUP_2048,
    DH_GROUP_TEST,
    DhParams,
    KeyPair,
    LweParams,
    dh_agree,
    dh_keygen,
    gaussian_error,
    lwe_mask,
    lwe_matrix,
    stream_expand,
)
from .oracle import (
    TrajectoryConfig,
    brute_force_share_consistency,
    mini_training_trajectory,
    plaintext_aggregate,
)
from .protocol import (
    AggregateResult,
    MsgKind,
    ProtocolMessage,
    RoundConfig,
    contributor_set,
    lwe_round,
    nv_round,
    pw_round,
)
from .shamir import (
    Share,
    ShareSet,
    packed_reconstruct,
    packed_share,
    reconstruct_vector,
    share_add,
    share_vector,
    sss_reconstruct,
    sss_share,
)
from .simnet import (
    DropoutSchedule,
    MessageBus,
    Metrics,
    SimConfig,
    SimReport,
    coalition_view,
    make_dropout_schedule,
    meter_expectations,
    run_simulation,
)

__version__ = "0.1.0"
