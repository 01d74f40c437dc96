"""Forward error correction with concatenated, generalized concatenated and
matrix-product codes, decoded through reliability-weighted erasure trials."""

from .block_codes import (
    DecodeOutcome,
    LinearCode,
    ee_decode,
    generic_code,
    min_distance,
    repetition_code,
    rs_code,
    wt,
    wt_punctured,
)
from .channel import ChannelModel, apply_channel, trial_rng
from .concat import (
    ConcatCode,
    DecodeOptions,
    cc_decode,
    cc_encode,
    correctable_cc,
    trial_bound_cc,
)
from .errors import (
    CodecError,
    ConfigError,
    ContractViolation,
    DecodeFailure,
    ErasureIndexError,
    FieldMismatch,
    InvalidParams,
    LengthMismatch,
    NoDecoder,
    NotPrime,
    ReducibleModulus,
    ShapeError,
    TooLargeToEnumerate,
    UnknownDistance,
)
from .experiment import ExperimentConfig, ExperimentStats, run_experiment, run_trial
from .galois import Field, TowerView, extend_field, make_field
from .gcc import (
    GccSpec,
    correctable_gcc,
    designed_distance,
    gcc_decode_basic,
    gcc_decode_improved,
    gcc_encode,
    gcc_spec,
    prefix_subcode,
)
from .gmd import (
    ErasureChain,
    GmdReport,
    ReliabilityVector,
    erasure_chain,
    forney_check,
    forney_lhs,
    gmd_decode,
    trial_bound,
    viable,
)
from .mpc import (
    MpcSpec,
    decode_uuv,
    decode_uuv_naive,
    decode_uvw,
    exhaustive_min_distance,
    is_nsc,
    is_triangular,
    mpc_decode,
    mpc_designed_distance,
    mpc_encode,
    mpc_spec,
    random_nsc_matrix,
)
from .oracle import ExhaustiveDecoder, oracle_nearest, oracle_radius, oracle_sigma
from .report import DecodeReport

__version__ = "0.1.0"
