"""quaddisc: discriminators of integer quadratic sequences versus primes in progressions.

Public names import their module on first access (PEP 562): `import quaddisc` loads none."""

# The library modules, each with the public names it defines or re-exports.
_NAMES = {
    "discriminator": "APCase HalfQuadratic collision_witness least_modulus least_modulus_pair "
                     "pairwise_distinct pairwise_distinct_fast",
    "ntcore": "DEFAULT_SCAN_CEILING Outcome ScanCeilingError classify_two_power_times_prime "
              "first_prime_in_ap first_prime_of_form is_prime nth_primes primes_in_range radical",
    "verifier": "COROLLARY11_THRESHOLD COUNTEREXAMPLE_RESIDUE PREDICTION_THRESHOLD "
                "THETA_ERROR_BOUND WINDOW_THRESHOLD ModulusClass predicted_prime "
                "prime_window_all_residues verify_remark12 verify_theorem11 verify_theorem12",
    "conjectures": "PAIR_THRESHOLD conjecture11_check conjecture12_check conjecture13_check "
                   "conjecture14_check",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_MODULE, *_NAMES])


def __getattr__(name: str):
    module = _MODULE.get(name, name)
    if module not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
