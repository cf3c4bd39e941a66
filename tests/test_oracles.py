"""Known gaps, pinned so that mending them shows: F5 in the checking layer,
F11 in the evaluator's depth count and F12 in the conversion."""

import pytest

from weylval import (
    ConversionInternalError,
    DepthExceeded,
    OmegaDescriptor,
    Rat,
    ValueGroupElement,
    WeylElement,
    eval_element,
    omega_element,
    omega_to_z,
    resolve_gammas,
)
from weylval.oracles import shadow_eval


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="F5: the shadow misses the normal-ordering corrections once a "
    "cancellation reaches them, and returns 0 for both (ROADMAP Direction 2)",
)
def test_shadow_sees_normal_ordering_corrections(worked, halving):
    # v(w_2) = xi/8 on `worked`, as the main evaluator certifies
    w2 = shadow_eval(worked, omega_element(worked, 2))
    assert w2 == ValueGroupElement.from_json({"q": "0", "k_xi": 1, "scale": "1/8"})
    # x*y*w_1^2 - 1 on `halving` has value v(w_2) = 1/8
    xy = WeylElement.x().mul(WeylElement.y())
    f = xy.mul(omega_element(halving, 1).pow(2)).sub(WeylElement.scalar(1))
    assert shadow_eval(halving, f) == ValueGroupElement.rational(Rat(1, 8))


@pytest.mark.xfail(
    strict=True,
    raises=DepthExceeded,
    reason="F11: at depth limit d the digit expansion divides by w_d, whose "
    "value is step d + 1, so y^2 is refused at depth 1 (ROADMAP Direction 1)",
)
def test_value_needing_one_step_answers_at_depth_one(halving):
    # v(y^2) = 2 v(y) = 1 reads step 1 only
    y2 = WeylElement.y().pow(2)
    assert eval_element(halving, y2, depth_limit=1) == ValueGroupElement.rational(1)


@pytest.mark.xfail(
    strict=True,
    raises=ConversionInternalError,
    reason="F12: the conversion stops with 'remainder heads cancel exactly' "
    "on a valid, extendable descriptor (ROADMAP Direction 12)",
)
def test_cancelling_heads_convert():
    desc = OmegaDescriptor.from_json(
        {
            "steps": [{"m": 1, "n": 2, "beta": "1"}, {"m": 1, "n": 6, "beta": "1"}],
            "tail": {"kind": "rule", "rule": "constant(1,2,1)"},
            "alpha_signs": [{"i": 1, "j": 2, "sign": 1}],
        }
    )
    zseq = omega_to_z(desc, resolve_gammas(desc), 8)
    assert zseq.explicit_entries
