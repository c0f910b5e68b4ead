"""Input outside the design envelope: non-finite and overflowing values.

Every failure must be a QLevyError whose message names the parameter, and
a call that does not fail must hand back finite numbers: a non-finite or
overflowing input never becomes a silent inf or NaN.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlevy.constructions import make_azema
from qlevy.errors import InvalidParameter, QLevyError
from qlevy.fock import (
    FockFactor,
    exp_tail_bound,
    exponential_vector,
    generator_process,
    quantum_noise_op,
)
from qlevy.gns import UnitaryTripleParams, gns_construct
from qlevy.ncpoly import NcPoly
from qlevy.partition import Partition
from qlevy.subcoalg import conv_exp, conv_exp_series, factor_table

X, XS = 0, 1
B, _, PSI = make_azema(2.0)
TRIPLE = gns_construct(PSI, B, degree_cap=3)
FACTOR = FockFactor(1, 3)
XX = NcPoly.word((X, XS))
P = NcPoly.word((X, XS) * 2)
BIG = 1.7976931348623157e308

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
HUGE = st.floats(1e300, BIG) | st.floats(-BIG, -1e300)
TINY = st.floats(5e-324, 5e-309, allow_subnormal=True)   # 1 / TINY overflows


def _rule_coefficients(q):
    return [c for rule in make_azema(q)[0].algebra.rules for c in rule.rhs.terms.values()]


# input: (call on the drawn value, returning the numbers it produced; the values
# drawn; a pattern its error message must match)
CASES = {
    "conv_exp t": (lambda v: conv_exp(PSI, v, P, B), NON_FINITE | HUGE, r"\bt\b"),
    "conv_exp_series t": (lambda v: conv_exp_series(PSI, v, P, B)[0], NON_FINITE | HUGE,
                          r"\bt\b"),
    "conv_exp_series tol": (lambda v: conv_exp_series(PSI, 1.0, P, B, tol=v)[0],
                            NON_FINITE | HUGE, r"\btol\b"),
    "factor_table dt": (lambda v: factor_table(PSI, v, [XX], [XX], B), NON_FINITE | HUGE,
                        r"\bstep\b"),
    "make_azema q": (_rule_coefficients, NON_FINITE | HUGE | TINY, r"\bq\b"),
    "Partition times": (lambda v: Partition([-v, v]).steps(), NON_FINITE | HUGE,
                        "partition times"),
    "FockFactor m": (lambda v: FockFactor(v, 3).dim, NON_FINITE | HUGE, "mode count"),
    "FockFactor cap": (lambda v: FockFactor(1, v).dim, NON_FINITE | HUGE, "particle cap"),
    "quantum_noise_op interval": (
        lambda v: quantum_noise_op("creation", [1.0], (-v, v), FACTOR), NON_FINITE | HUGE,
        "interval"),
    "generator_process interval": (
        lambda v: generator_process(TRIPLE, NcPoly.word((X,)), (-v, v), FACTOR),
        NON_FINITE | HUGE, "interval"),
    "exponential_vector interval": (
        lambda v: exponential_vector([1.0], (-v, v), FACTOR),
        NON_FINITE | HUGE, r"interval|\(t-s\)"),
    "exponential_vector k": (lambda v: exponential_vector([v], (0.0, 1.0), FACTOR),
                             NON_FINITE | HUGE, r"\bk\b"),
    "quantum_noise_op k": (lambda v: quantum_noise_op("creation", [v], (0.0, 1.0), FACTOR),
                           NON_FINITE | HUGE, r"\bk\b"),
    "quantum_noise_op T": (lambda v: quantum_noise_op("preservation", [[v]], (0.0, 1.0), FACTOR),
                           NON_FINITE | HUGE, r"\bT\b"),
    "exp_tail_bound z": (lambda v: exp_tail_bound(v, 3), NON_FINITE | HUGE, r"\bz\b"),
    "UnitaryTripleParams W": (lambda v: UnitaryTripleParams(1, [[v]], [[[0.3]]], [[0.5]]).W,
                              NON_FINITE | HUGE, r"\bW\b"),
    "UnitaryTripleParams L": (lambda v: UnitaryTripleParams(1, [[1.0]], [[[v]]], [[0.5]]).L,
                              NON_FINITE | HUGE, r"\bL\b"),
    "UnitaryTripleParams H": (lambda v: UnitaryTripleParams(1, [[1.0]], [[[0.3]]], [[v]]).H,
                              NON_FINITE | HUGE, r"\bH\b"),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_failures_outside_the_envelope_are_typed_and_named(name, data):
    call, values, pattern = CASES[name]
    value = data.draw(values, label="value")
    try:
        with np.errstate(all="ignore"):
            got = call(value)
    except QLevyError as err:
        assert re.search(pattern, str(err)), (name, value, str(err))
    else:
        assert math.isfinite(value), f"{name} accepted {value}"
        assert np.isfinite(np.asarray(got, dtype=complex)).all(), (name, value, got)


@pytest.mark.parametrize("m, cap, pattern", [(2.5, 3, "mode count"), (1, 3.5, "particle cap")])
def test_fock_factor_rejects_a_fractional_size(m, cap, pattern):
    # int() would truncate 2.5 modes to a two-mode factor without a word
    with pytest.raises(InvalidParameter, match=pattern):
        FockFactor(m, cap)


def test_normal_form_overflow_names_q():
    # y y x* -> q^2 x* y y overflows at q = 1e300; the algebra's name carries q
    alg = make_azema(1e300)[0].algebra
    with pytest.raises(InvalidParameter, match=r"\bq\b"):
        alg.word_normal_form((2, 2, 1))
    assert alg.word_normal_form((2, 1)) == {(1, 2): 1e300}
    big, _, psi = make_azema(1e300)
    with pytest.raises(InvalidParameter, match=r"\bq\b"):
        conv_exp(psi, 1.0, NcPoly.word((2, 2, 1)), big)
