from .clients import (
    AggregateResult,
    LweClient,
    NvClient,
    OpsTally,
    PwClient,
    RoundContext,
)
from .messages import (
    BUS_SENDER,
    ContributorSetPayload,
    MsgKind,
    ProtocolMessage,
    PubKeyPayload,
    SECRET_DH_KEY,
    SECRET_PERSONAL_SEED,
    ShareBundlePayload,
    UnmaskPayload,
    VectorPayload,
)
from .rounds import (
    LWE,
    NV,
    PW,
    ROUND_FNS,
    STAGES,
    RoundConfig,
    contributor_set,
    default_threshold,
    lwe_round,
    nv_round,
    pw_round,
)

__all__ = [
    "AggregateResult", "LweClient", "NvClient", "OpsTally", "PwClient",
    "RoundContext",
    "BUS_SENDER", "ContributorSetPayload", "MsgKind",
    "ProtocolMessage", "PubKeyPayload", "SECRET_DH_KEY",
    "SECRET_PERSONAL_SEED", "ShareBundlePayload", "UnmaskPayload",
    "VectorPayload",
    "LWE", "NV", "PW", "ROUND_FNS", "STAGES", "RoundConfig",
    "contributor_set", "default_threshold",
    "lwe_round", "nv_round", "pw_round",
]
