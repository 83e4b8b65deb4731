"""Value semantics of the seven value types: equality and hash within one class,
immutability, validation messages, construction and pickling.  The validation
messages of first_prime_in_ap, which takes plain arguments, are checked with
theirs."""

import pickle
from collections import namedtuple

import pytest

from quaddisc.campaigns import CampaignConfig, Command
from quaddisc.discriminator import APCase, HalfQuadratic, least_modulus
from quaddisc.ntcore import Outcome, Value, first_prime_in_ap
from quaddisc.verifier import ModulusClass, SequenceCase


def _check(config):
    return {}


def _compute(params, ns):
    return [(ns, None, None, True, None, 0)]


def _certified(params):
    return 1, True


VALUES = [
    HalfQuadratic(3, 1),
    APCase(3, 1),
    Outcome(29, 29, True),
    ModulusClass(1, 3, 3),
    SequenceCase("3k-1", 6, 3, -1, 4, ModulusClass(1, 3, 3), 3, 0),
    Outcome(9, None, True, {"flags": [True, True]}),
    CampaignConfig("window-check", {"d": 5}, 206, 300),
    Command((("--d", {"type": int}),), _check, _compute, _certified),
]

# Values that hold a dict: equal ones compare equal, but they cannot be hashed.
# An Outcome holds one only when its extra is a dict, as a conjecture's does.
UNHASHABLE = (CampaignConfig, Command)


def _unhashable(value):
    return isinstance(value, UNHASHABLE) or isinstance(getattr(value, "extra", None), dict)


def _ids(values):
    # Outcome's two cases keep the ids of the two record types it replaced: a
    # verifier's outcome (extra None) and a conjecture's (extra a dict).
    return [type(v).__name__ if type(v) is not Outcome
            else "ConjectureReport" if v.extra else "VerificationRecord" for v in values]


@pytest.mark.parametrize("value", VALUES, ids=_ids(VALUES))
def test_equal_and_hash_only_within_the_class(value):
    cls = type(value)
    same = cls(*value)
    assert same == value and not same != value
    if _unhashable(value):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(same) == hash(value)
        assert len({value, same}) == 1
    twin = type("Twin", (Value, namedtuple("Twin", value._fields)), {"__slots__": ()})(*value)
    for other in (tuple(value), twin):
        assert value != other and other != value
        assert not value == other and not other == value


def test_apcase_never_equals_halfquadratic_or_tuple():
    assert APCase(3, 1) != HalfQuadratic(3, 1)
    assert HalfQuadratic(3, 1) != APCase(3, 1)
    assert APCase(3, 1) != (3, 1) and (3, 1) != APCase(3, 1)
    assert len({APCase(3, 1), HalfQuadratic(3, 1), (3, 1)}) == 3


def test_scan_hint_is_not_taken_across_sequence_types(monkeypatch):
    # _scan keys least_modulus by the sequence itself; an entry under a tuple
    # key with the same fields, left by another scan, must not serve it
    import quaddisc.discriminator as discriminator

    seq = HalfQuadratic(6, -2)
    cold = least_modulus(seq, 40)
    monkeypatch.setattr(discriminator, "_hints", {(6, -2): (10, 10**6)})
    assert least_modulus(seq, 40) == cold


@pytest.mark.parametrize("value", VALUES, ids=_ids(VALUES))
def test_immutable_and_closed(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls,args,message", [
    (first_prime_in_ap, (1, 0, 2), "modulus must be >= 1, got 0"),
    (first_prime_in_ap, (1, 4, 1), "lower_bound must be >= 2, got 1"),
    (first_prime_in_ap, (2, 4, 10), "residue 2 is not coprime to modulus 4"),
    (HalfQuadratic, (3, 2), "a + b must be even, got a=3, b=2"),
    (APCase, (1, 0), "d must be >= 2, got 1"),
    (APCase, (5, 5), "c must lie in (-5, 5), got 5"),
    (APCase, (6, 2), "c=2 and d=6 must be coprime"),
    (ModulusClass, (2, 4), "residue 2 is not coprime to modulus 4"),
    (ModulusClass, (0, 1, 1), "power_base must be >= 2, got 1"),
])
def test_validation_messages(cls, args, message):
    with pytest.raises(ValueError) as err:
        cls(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("value", VALUES, ids=_ids(VALUES))
def test_keyword_construction(value):
    assert type(value)(**value._asdict()) == value


def test_defaults():
    assert ModulusClass(power_base=2) == ModulusClass(0, 1, 2)
    assert ModulusClass() == ModulusClass(0, 1, None)
    outcome = Outcome(29, 29, True)
    assert outcome.extra is None and outcome == Outcome(29, 29, True, None)
    assert hash(outcome) == hash(Outcome(29, 29, True, None))
    config = CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 30, timing=False)
    assert config == CampaignConfig("verify-theorem12", {"case": "3k-1"}, 4, 30, 0, None,
                                    False, 1 << 40, False)
    assert Command((), _check, _compute, _certified).one_of is False


def test_config_params_default_is_not_shared():
    first, second = CampaignConfig("tables"), CampaignConfig("tables")
    assert first.params == second.params == {}
    first.params["d"] = 5
    assert second.params == {}


@pytest.mark.parametrize("value", VALUES, ids=_ids(VALUES))
def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
