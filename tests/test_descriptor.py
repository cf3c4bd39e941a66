"""Tower descriptors: JSON format, derived data, and validation rules."""

import time

import pytest

from weylval import (
    BudgetExceeded,
    DeclarationInconsistent,
    DepthExceeded,
    MissingSignChoice,
    OmegaDescriptor,
    ParseError,
    Rat,
    ValueGroupElement,
    WeylElement,
    basis_slot,
    commutator,
    eval_element,
    group_kind,
    omega_element,
    shadow_eval,
    validate,
)
from weylval.descriptor import (
    TOWER_Y_DEGREE_BUDGET,
    GroupKind,
    alpha,
    alpha_sign,
    builtin_rule,
    data_window,
    level_limit,
    pair_data,
    prefix_sum,
)


def desc(steps, tail=None, alpha_signs=None):
    data = {"steps": [{"m": m, "n": n, "beta": str(b)} for m, n, b in steps]}
    if tail is not None:
        data["tail"] = tail
    if alpha_signs is not None:
        data["alpha_signs"] = alpha_signs
    return OmegaDescriptor.from_json(data)


class TestJson:
    def test_roundtrip(self, worked):
        assert OmegaDescriptor.from_json(worked.to_json()).to_json() == worked.to_json()

    def test_rule_roundtrip(self, halving, constant131):
        for d in (halving, constant131):
            again = OmegaDescriptor.from_json(d.to_json())
            assert group_kind(again) == group_kind(d)
            assert again.step(5).n == d.step(5).n

    def test_bad_shapes(self):
        with pytest.raises(ParseError):
            OmegaDescriptor.from_json([])
        with pytest.raises(ParseError):
            OmegaDescriptor.from_json({"steps": [{"m": 1}]})
        with pytest.raises(ParseError):
            OmegaDescriptor.from_json({"steps": [{"m": 1, "n": 2, "beta": "1/0"}]})
        with pytest.raises(ParseError):
            OmegaDescriptor.from_json({"steps": [], "tail": {"kind": "mystery"}})
        with pytest.raises(ParseError):
            OmegaDescriptor.from_json({"steps": [], "tail": {"kind": "rule", "rule": "nope"}})

    def test_declared_group_kind_must_match_rule(self):
        with pytest.raises(DeclarationInconsistent):
            OmegaDescriptor.from_json(
                {
                    "steps": [],
                    "tail": {
                        "kind": "rule",
                        "rule": "halving",
                        "group_kind": "RankTwo",
                    },
                }
            )

    def test_terminal_must_be_irrational(self):
        with pytest.raises(DeclarationInconsistent):
            desc([(1, 2, 1)], tail={"kind": "irrational", "value": {"q": "1", "k_xi": 0, "k_mu": 0}})

    def test_alpha_sign_index_order(self):
        with pytest.raises(DeclarationInconsistent):
            desc([(1, 2, 1)], alpha_signs=[{"i": 2, "j": 1, "sign": 1}])


class TestStepAccess:
    def test_explicit_steps_are_one_based(self, worked):
        assert worked.step(1).n == 2
        assert worked.step(2).n == 4
        with pytest.raises(ValueError):
            worked.step(0)

    def test_exhausted_bare_prefix(self, single24):
        with pytest.raises(DepthExceeded):
            single24.step(2)

    def test_rule_steps_materialize(self, halving, constant131):
        assert halving.step(3).n == 8
        assert constant131.step(3).n == 27
        assert constant131.step(3).m == 1

    def test_generator_values(self, worked):
        assert worked.generator_value(-1) == ValueGroupElement.rational(Rat(-1))
        assert worked.generator_value(0) == ValueGroupElement.rational(Rat(1, 2))
        assert worked.generator_value(1) == ValueGroupElement.rational(Rat(1, 4))
        terminal = worked.generator_value(2)
        assert terminal.k_xi == 1 and terminal.xi_scale == Rat(1, 8)

    def test_pair_mn_index_zero_is_x(self, worked):
        assert worked.pair_mn(0) == (1, -1)
        assert worked.beta(0) == Rat(1)

    def test_two_adic_depths(self, worked, constant131):
        assert worked.h(0) == 0
        assert worked.h(1) == 1
        assert worked.h(2) == 2
        assert constant131.h(3) == 0


class TestDerivedData:
    def test_pair_data_worked(self, worked):
        p = pair_data(worked, 1, 2)
        assert (p.d, p.k_ij, p.k_ji) == (2, 1, 2)
        q = pair_data(worked, 0, 1)
        assert (q.d, q.k_ij, q.k_ji) == (1, -1, 2)
        with pytest.raises(ValueError):
            pair_data(worked, 1, 1)

    def test_alpha_uses_stored_sign(self, worked):
        assert alpha(worked, 1, 2) == Rat(1)
        assert alpha(worked, 2, 1) == Rat(1)
        assert alpha_sign(worked, 1, 2) == 1

    def test_alpha_negative_stored_sign(self):
        d = desc(
            [(1, 2, 1), (1, 4, 1)],
            tail={"kind": "irrational", "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/8"}},
            alpha_signs=[{"i": 1, "j": 2, "sign": -1}],
        )
        assert alpha(d, 1, 2) == Rat(-1)
        assert alpha_sign(d, 1, 2) == -1

    def test_alpha_missing_sign(self):
        d = desc(
            [(1, 2, 1), (1, 4, 1)],
            tail={"kind": "irrational", "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/8"}},
        )
        with pytest.raises(MissingSignChoice):
            alpha(d, 1, 2)

    def test_alpha_odd_pair_needs_no_sign(self, constant131):
        # odd n steps: the odd-part root is canonical
        assert alpha(constant131, 1, 2) == Rat(1)

    def test_commutator_values(self, worked, halving, constant131):
        # v([w_j, w_i]) = -v(x y w_1 ... w_{j-1} with w_i left out), w_{-1} = x
        expected = {
            (-1, 0): ("0", "0", "0"),
            (-1, 1): ("-1/2", "-1/2", "-1/3"),
            (0, 1): ("1", "1", "1"),
            (1, 2): ("1/2", "1/2", "2/3"),
            (0, 2): ("3/4", "3/4", "8/9"),
            (-1, 2): ("-3/4", "-3/4", "-4/9"),
        }
        for (i, j), values in expected.items():
            for d, q in zip((worked, halving, constant131), values):
                bracket = commutator(omega_element(d, j), omega_element(d, i))
                assert eval_element(d, bracket) == ValueGroupElement.rational(Rat(q))

    def test_group_kinds(self, worked, halving, constant131, single24):
        assert group_kind(worked) == GroupKind.RANK_TWO
        assert group_kind(halving) == GroupKind.TWO_DIVISIBLE
        assert group_kind(constant131) == GroupKind.NON_TWO_DIVISIBLE
        assert group_kind(single24) == GroupKind.NON_TWO_DIVISIBLE

    def test_basis_slots(self, worked, halving, constant131, single24):
        assert basis_slot(worked) == (2, 2)
        assert basis_slot(halving) is None
        assert basis_slot(constant131) == (0, 0)
        assert basis_slot(single24) == (1, 1)

    def test_prefix_sums(self, worked):
        assert prefix_size_check(worked)

    def test_omega_elements(self, worked):
        assert omega_element(worked, -1) == WeylElement.x()
        assert omega_element(worked, 0) == WeylElement.y()
        w1 = WeylElement({(1, 2): Rat(1), (0, 0): Rat(-1)})
        assert omega_element(worked, 1) == w1
        w2 = WeylElement.x().mul(w1.pow(4)).sub(WeylElement.scalar(Rat(1)))
        assert omega_element(worked, 2) == w2

    def test_builtin_rule_names(self):
        assert builtin_rule("halving").step_fn(3).n == 8
        rule = builtin_rule("constant(1,3,1)")
        assert rule.step_fn(2).n == 9
        with pytest.raises(ParseError):
            builtin_rule("constant(1,1,1)")

    @pytest.mark.parametrize(
        "steps, rule_name, limit",
        [
            ([], "halving", Rat(1)),
            ([], "constant(1,3,1)", Rat(1, 2)),
            ([], "constant(2,5,1)", Rat(1, 2)),
            # explicit steps replace the rule's first steps: 1 + 1/4 - 1/2
            ([(1, 4, 1)], "halving", Rat(3, 4)),
            # -1/2 + 1/9 + sum_{i>=3} 1/3^i
            ([(-1, 2, 4), (1, 9, 1)], "constant(1,3,1)", Rat(-1, 3)),
            # ratios that are not positive leave the levels unbounded below r*
            ([], "constant(0,3,1)", None),
            ([], "constant(-1,3,1)", None),
            ([(1, 2, 1), (-1, 4, 1)], "halving", None),
        ],
    )
    def test_level_limit_on_rules(self, steps, rule_name, limit):
        d = desc(steps, tail={"kind": "rule", "rule": rule_name})
        assert level_limit(d) == limit
        if limit is not None:
            levels = [prefix_sum(d, k) + 1 for k in range(1, 12)]
            assert all(a < b < limit for a, b in zip(levels, levels[1:]))

    def test_level_limit_needs_a_rule(self, worked, single24):
        assert level_limit(worked) is None
        assert level_limit(single24) is None


def rule(name):
    """A fresh rule descriptor; the session fixtures may already hold built towers."""
    return OmegaDescriptor.from_json({"steps": [], "tail": {"kind": "rule", "rule": name}})


class TestTowerMemo:
    def test_repeated_call_returns_the_same_object(self):
        d = rule("halving")
        w2 = omega_element(d, 2)
        assert omega_element(d, 2) is w2
        w3 = omega_element(d, 3)
        assert omega_element(d, 3) is w3
        assert omega_element(d, 2) is w2
        w1 = omega_element(d, 1)
        assert w3 == WeylElement.x().mul(w2.pow(8)).sub(WeylElement.scalar(1))
        assert w2 == WeylElement.x().mul(w1.pow(4)).sub(WeylElement.scalar(1))

    def test_descriptors_never_share_entries(self):
        a, b = rule("halving"), rule("halving")
        assert omega_element(a, 2) == omega_element(b, 2)
        assert omega_element(a, 2) is not omega_element(b, 2)
        c = rule("constant(1,2,3)")
        assert omega_element(c, 1) == WeylElement({(1, 2): Rat(1), (0, 0): Rat(-3)})
        assert omega_element(a, 1) == WeylElement({(1, 2): Rat(1), (0, 0): Rat(-1)})

    def test_missing_step_raises_on_every_call(self, single24):
        w1 = omega_element(single24, 1)
        for _ in range(2):
            with pytest.raises(DepthExceeded) as info:
                omega_element(single24, 2)
            assert info.value.consulted == 2
        assert omega_element(single24, 1) is w1

    def test_negative_m_builds_a_laurent_tower(self):
        # m_1 < 0: w_1 = x^-1 y^3 - 8 and w_2 are Laurent in x
        xi = {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/1000"}
        d = desc([(-1, 3, 8), (1, 2, 1)], tail={"kind": "irrational", "value": xi})
        assert validate(d) == []
        w1, w2 = omega_element(d, 1), omega_element(d, 2)
        assert w1 == WeylElement({(-1, 3): Rat(1), (0, 0): Rat(-8)})
        assert w2 == WeylElement.x().mul(w1.pow(2)).sub(WeylElement.scalar(1))
        assert eval_element(d, w2) == d.generator_value(2)
        for element in (w2, w2.mul(WeylElement.y()), WeylElement.x().mul(w2), w2.pow(2)):
            assert eval_element(d, element).cmp(shadow_eval(d, element)) == 0


class TestTowerBudget:
    @pytest.mark.parametrize(
        "name,i,degree", [("constant(1,3,1)", 3, 729), ("halving", 4, 1024)]
    )
    def test_over_budget_raises_at_once(self, name, i, degree):
        d = rule(name)
        for _ in range(2):
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded) as info:
                omega_element(d, i)
            assert time.perf_counter() - start < 1.0
            assert f"w_{i}" in str(info.value) and str(degree) in str(info.value)
            assert info.value.payload()["type"] == "BudgetExceeded"
        # the levels below the budget still build
        assert max(omega_element(d, i - 1).rows) == degree // d.step(i).n

    def test_halving_w3_builds(self):
        w3 = omega_element(rule("halving"), 3)
        assert max(w3.rows) == 64 <= TOWER_Y_DEGREE_BUDGET


def prefix_size_check(d):
    return prefix_sum(d, 1) == Rat(-1, 2) and prefix_sum(d, 2) == Rat(-1, 4)


class TestValidate:
    def test_worked_is_clean(self, worked, halving, constant131, single24):
        for d in (worked, halving, constant131, single24):
            assert validate(d) == []

    def rules(self, violations):
        return {v.rule for v in violations}

    def test_step_shape(self):
        assert "StepShape" in self.rules(validate(desc([(2, 4, 1)])))
        assert "StepShape" in self.rules(validate(desc([(1, 0, 1)])))
        assert "StepShape" in self.rules(validate(desc([(1, 2, 0)])))
        assert "StepShape" in self.rules(validate(desc([(3, 2, 1)])))
        assert "StepShape" in self.rules(validate(desc([(1, 2, 1), (0, 3, 1)])))

    def test_prefix_sum(self):
        assert "PrefixSum" in self.rules(validate(desc([(1, 2, 1), (3, 4, 1)])))

    def test_terminal_shape(self):
        d = desc(
            [(1, 2, 1)],
            tail={"kind": "irrational", "value": {"q": "-1", "k_xi": 1, "k_mu": 0, "scale": "1/8"}},
        )
        assert "TerminalShape" in self.rules(validate(d))

    def test_terminal_prefix_overflow(self):
        # prefix sum -1/2 plus a huge positive terminal crosses zero
        d = desc(
            [(1, 2, 1)],
            tail={"kind": "irrational", "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "7"}},
        )
        assert "PrefixSum" in self.rules(validate(d))

    def test_sign_constancy(self):
        assert "SignConstancy" in self.rules(validate(desc([(1, 2, 1), (1, 4, -1)])))
        assert "SignConstancy" not in self.rules(validate(desc([(1, 2, -1), (1, 4, -1)])))

    def test_missing_sign_choice(self):
        d = desc([(1, 4, 1), (1, 4, 1), (1, 4, 1)])
        assert "MissingSignChoice" in self.rules(validate(d))

    def test_every_missing_sign_is_named(self):
        # heights 1/2, 3/4, 7/8 differ, so no triple condition asks for a
        # sign, yet eval and extend-check need alpha(1,3) and alpha(2,3)
        d = desc(
            [(1, 2, 1), (1, 4, 1), (1, 8, 1)],
            alpha_signs=[{"i": 1, "j": 2, "sign": 1}],
        )
        assert [(v.rule, v.detail) for v in validate(d)] == [
            ("MissingSignChoice", "pair (1, 3) needs a stored residue-unit sign"),
            ("MissingSignChoice", "pair (2, 3) needs a stored residue-unit sign"),
        ]

    def test_triple_condition(self):
        d = desc(
            [(1, 4, 1), (1, 4, 1), (1, 4, 1)],
            alpha_signs=[
                {"i": 1, "j": 2, "sign": 1},
                {"i": 1, "j": 3, "sign": 1},
                {"i": 2, "j": 3, "sign": -1},
            ],
        )
        assert "TripleCondition" in self.rules(validate(d))

    def test_triple_condition_satisfied(self):
        d = desc(
            [(1, 4, 1), (1, 4, 1), (1, 4, 1)],
            alpha_signs=[
                {"i": 1, "j": 2, "sign": 1},
                {"i": 1, "j": 3, "sign": -1},
                {"i": 2, "j": 3, "sign": -1},
            ],
        )
        assert validate(d) == []

    def test_rule_levels_below_one_past_the_window(self):
        # r* = 1 + 1/1024: h_k < 1 up to k = 9, and h_10 = 1
        halving = {"kind": "rule", "rule": "halving"}
        d = desc([(1, 2, 1), (257, 1024, 1)], tail=halving)
        assert all(prefix_sum(d, k) < 0 for k in range(1, 10))
        assert prefix_sum(d, 10) == 0
        assert self.rules(validate(d)) == {"PrefixSum"}
        # r* = 1 - 1/1024 stays below 1
        assert validate(desc([(1, 2, 1), (255, 1024, 1)], tail=halving)) == []

    def test_every_explicit_step_of_a_rule_is_checked(self):
        steps = [(1, 2**i, 1) for i in range(1, 9)]
        halving = {"kind": "rule", "rule": "halving"}
        assert validate(desc(steps + [(1, 512, 1)], tail=halving)) == []
        violations = validate(desc(steps + [(1, 512, 0)], tail=halving))
        assert [(v.rule, v.detail) for v in violations] == [
            ("StepShape", "step 9: beta must be nonzero")
        ]

    def test_rule_steps_past_the_first_are_checked_at_any_depth(self):
        d = desc([], tail={"kind": "rule", "rule": "constant(-1,3,1)"})
        assert "StepShape" in self.rules(validate(d))

    def test_data_window(self, worked, halving, constant131, single24, single_terminal):
        assert [
            data_window(d) for d in (worked, halving, constant131, single24, single_terminal)
        ] == [2, 2, 2, 1, 1]
        steps = [(1, 3**i, 1) for i in range(1, 10)]
        assert data_window(desc(steps)) == 9
        assert data_window(desc(steps, tail={"kind": "rule", "rule": "halving"})) == 10

    def test_rule_data_window(self):
        halving = {"kind": "rule", "rule": "halving"}
        assert data_window(desc([], tail=halving)) == 2
        assert data_window(desc([(1, 2, 1)] * 3, tail=halving)) == 4
        signs = [{"i": 9, "j": 10, "sign": -1}]
        assert data_window(desc([], tail=halving, alpha_signs=signs)) == 11

    def test_data_window_budget(self):
        halving = {"kind": "rule", "rule": "halving"}
        assert data_window(desc([(1, 2**64, 1)], tail=halving)) == 65
        with pytest.raises(BudgetExceeded, match="reaches step 66"):
            data_window(desc([(1, 2**4000, 1)], tail=halving))
        signs = [{"i": 1, "j": 10**9, "sign": 1}]
        with pytest.raises(BudgetExceeded, match="reaches step 1000000001"):
            validate(desc([], tail=halving, alpha_signs=signs))

    def test_zero_n_before_a_two_divisible_rule(self):
        # the window's h scan skips n = 0, which has no 2-adic depth
        d = desc([(1, 0, 1)], tail={"kind": "rule", "rule": "halving"})
        assert self.rules(validate(d)) == {"StepShape"}

    def test_triple_condition_with_a_rule_step_of_equal_depth(self):
        # h_1 = h_2 = 9 with alpha(1,2) = -1, while halving's step 9, of the
        # same h, and every deeper step take the default +1
        d = desc(
            [(1, 512, 1), (3, 512, 1)],
            tail={"kind": "rule", "rule": "halving"},
            alpha_signs=[{"i": 1, "j": 2, "sign": -1}],
        )
        assert data_window(d) == 10
        assert [v.detail for v in validate(d)] == [
            f"residue-unit signs inconsistent on {t}"
            for t in ("(1,2,9)", "(1,2,10)", "(1,9,2)", "(2,9,1)")
        ]
