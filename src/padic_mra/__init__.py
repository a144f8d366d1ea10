"""Exact multiresolution analysis on the p-adic line.

The library turns the analytic theory of refinable functions on Q_p into
finite, exactly indexed linear algebra: masks determine candidate scaling
functions through a terminating product formula, multiresolution and
orthonormality become residual-checked verdicts, and wavelet systems come
with computed frame bounds.
"""

from .config import DEFAULT_TOL
from .errors import (
    NotRefinableError,
    PreconditionError,
    SupportViolationError,
    UnsupportedConfigurationError,
    VerificationError,
)
from .generators import (
    random_covering_mask,
    random_function,
    random_noise_mask,
    random_unimodular_mask,
)
from .masks import (
    TrigPolynomial,
    haar_mask,
    hat_from_mask,
    mask_from_roots,
    refinable_from_mask,
    sphere_values,
    support_margin,
)
from .mra import (
    LSet,
    MaskRecovery,
    MraReport,
    OrthonormalityReport,
    ShiftMaskSolution,
    check_haar_equivalence,
    check_mra,
    check_orthonormal_shifts,
    l_set,
    recover_mask,
    shift_mask,
)
from .padic_core import (
    PadicRational,
    PrimeMismatchError,
    character,
    character_phase,
    enumerate_Ip_ball,
    parse_rational,
)
from .test_functions import (
    TestFunction,
    allclose,
    common_frame,
    dilate,
    evaluate,
    fourier,
    inner_product,
    inv_fourier,
    lincomb,
    norm_l2,
    omega,
    reframe,
    shift,
    zero_function,
)
from .wavelets import (
    CoefficientTree,
    FrameReport,
    WaveletSet,
    WaveletVerification,
    analyze,
    build_wavelet_set,
    frame_bounds,
    kozyrev_set,
    synthesize,
    verify_wavelet_set,
    wavelet_functions,
    wavelet_masks,
)

__version__ = "0.1.0"
