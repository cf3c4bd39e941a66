"""Known gaps of the checking layer, pinned so that mending them shows."""

import pytest

from weylval import Rat, ValueGroupElement, WeylElement, omega_element
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
