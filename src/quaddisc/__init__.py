"""quaddisc: discriminators of integer quadratic sequences versus primes in progressions."""

from .discriminator import (
    APCase,
    HalfQuadratic,
    collision_witness,
    least_modulus,
    least_modulus_pair,
    pairwise_distinct,
    pairwise_distinct_fast,
)
from .ntcore import (
    DEFAULT_SCAN_CEILING,
    ScanCeilingError,
    classify_two_power_times_prime,
    first_prime_in_ap,
    first_prime_of_form,
    is_prime,
    nth_primes,
    primes_in_range,
    radical,
)
from .verifier import (
    COROLLARY11_THRESHOLD,
    COUNTEREXAMPLE_RESIDUE,
    PREDICTION_THRESHOLD,
    THETA_ERROR_BOUND,
    WINDOW_THRESHOLD,
    ModulusClass,
    VerificationRecord,
    predicted_prime,
    prime_window_all_residues,
    verify_remark12,
    verify_theorem11,
    verify_theorem12,
)
from .conjectures import (
    PAIR_THRESHOLD,
    ConjectureReport,
    conjecture11_check,
    conjecture12_check,
    conjecture13_check,
    conjecture14_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
