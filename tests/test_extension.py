"""Extendability checks, root resolution, cofactor algebra, and the
tower-to-z-sequence conversion with its round trip."""

import hashlib
import json
import math
import random

import pytest

from weylval import extension
from weylval import (
    ConversionInternalError,
    NotExtendable,
    OmegaDescriptor,
    OrePoly,
    PuiseuxSeries,
    Rat,
    RoundtripReport,
    SignChoiceForbidden,
    SignChoiceRequired,
    WeylvalError,
    ZSequence,
    check_extendable,
    cofactor_tail_residue,
    embed,
    omega_element,
    omega_to_z,
    ore_mul,
    resolve_gammas,
    roundtrip_check,
    sample_element,
    tail_count,
    validate,
    z_eval,
)
from weylval.descriptor import alpha_sign, data_window, level_limit, pair_data
from weylval.extension import ExtendViolation, _Conversion, _Record, free_step


def desc(steps, tail=None, signs=None):
    data = {"steps": [{"m": m, "n": n, "beta": str(b)} for m, n, b in steps]}
    if tail is not None:
        data["tail"] = tail
    if signs:
        data["alpha_signs"] = [{"i": i, "j": j, "sign": s} for i, j, s in signs]
    return OmegaDescriptor.from_json(data)


def scalar_poly(r):
    return OrePoly.from_series(PuiseuxSeries.scalar(Rat(r)))


def base_root(d, i):
    """x^{m_i/n_i} omega_{i-1}, the element whose residue is gamma_i."""
    step = d.step(i)
    factor = PuiseuxSeries.x_power(Rat(step.m, step.n))
    return embed(omega_element(d, i - 1)).scale_series(factor)


def cofactor_tail(d, res, i, j):
    """S_{i,j} = sum_{k=1..n-j} C(k+j-1, j) gamma^{k-1} b_i^{n-j-k} as an Ore
    polynomial, the reference for the conversion's closed-form atoms."""
    n = d.step(i).n
    if not 0 <= j <= n - 1:
        raise ValueError(f"cofactor tail S_{{{i},{j}}} needs 0 <= j < n = {n}")
    b = base_root(d, i)
    out = OrePoly.zero()
    for k in range(1, n - j + 1):
        coeff = Rat(tail_count(n, k, j)) * res.gamma(i) ** (k - 1)
        out = ore_mul(out, b).add(scalar_poly(coeff))
    return out


def ore_pow(f, n):
    out = scalar_poly(1)
    for _ in range(n):
        out = ore_mul(out, f)
    return out


IRRATIONAL_THIRD = {
    "kind": "irrational",
    "value": {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/3"},
}


def pairwise_extendable(desc):
    """check_extendable with condition 2 read pair by pair, the reference."""
    window = data_window(desc)
    for i in range(1, window + 1):
        step = desc.step(i)
        if step.n % 2 == 0 and step.beta < 0:
            return ExtendViolation(
                1, (i,), f"step {i} has even n={step.n} with beta<0"
            )
    h = {i: desc.h(i) for i in range(0, window + 1)}
    for i in range(0, window + 1):
        linked = [j for j in range(1, window + 1) if h[i] < h[j]]
        for a in range(len(linked)):
            for b in range(a + 1, len(linked)):
                j, l = linked[a], linked[b]
                if h[j] > h[l]:
                    j, l = l, j
                if alpha_sign(desc, i, j) * alpha_sign(desc, i, l) < 0:
                    return ExtendViolation(
                        2,
                        (i, j, l),
                        f"alpha({i},{j}) and alpha({i},{l}) have opposite signs",
                    )
    return None


def extendable_outcome(check, d):
    try:
        return check(d)
    except WeylvalError as exc:
        return type(exc).__name__, str(exc)


class TestCheckExtendable:
    def test_worked_descriptor_passes(self, worked):
        assert check_extendable(worked) is None

    def test_halving_rule_passes(self, halving):
        assert check_extendable(halving) is None

    def test_even_step_with_negative_beta_fails_condition_one(self):
        violation = check_extendable(desc([(1, 2, -1), (1, 4, -1)]))
        assert violation is not None
        assert violation.condition == 1
        assert violation.indices == (1,)

    def test_even_negative_beta_beats_later_odd_step(self):
        violation = check_extendable(desc([(1, 2, -1), (1, 3, 1)]))
        assert violation is not None
        assert violation.condition == 1

    def test_odd_steps_allow_negative_beta(self):
        assert check_extendable(desc([(1, 3, -8)])) is None

    def test_twisted_sign_triple_fails_condition_two(self):
        violation = check_extendable(
            desc(
                [(1, 2, 1), (1, 4, 1), (1, 8, 1)],
                signs=[(1, 2, 1), (1, 3, -1), (2, 3, 1)],
            )
        )
        assert violation is not None
        assert violation.condition == 2
        assert violation.indices == (1, 2, 3)

    def test_disagreement_at_the_third_linked_slot(self):
        # row 1 links slots 2, 3, 4; alpha(1,4) is the first sign to differ
        violation = check_extendable(
            desc(
                [(1, 2, 1), (1, 4, 1), (1, 8, 1), (1, 16, 1)],
                signs=[(1, 2, 1), (1, 3, 1), (1, 4, -1), (2, 3, 1), (2, 4, 1), (3, 4, 1)],
            )
        )
        assert violation == ExtendViolation(
            2, (1, 2, 4), "alpha(1,2) and alpha(1,4) have opposite signs"
        )

    def test_violating_pair_is_reported_in_h_order(self):
        # slots 2 and 3 have h = 3 and 2, so the triple lists slot 3 first
        violation = check_extendable(
            desc(
                [(1, 2, 1), (1, 8, 1), (1, 4, 1)],
                signs=[(1, 2, 1), (1, 3, -1), (2, 3, 1)],
            )
        )
        assert violation.indices == (1, 3, 2)

    def test_matches_the_pairwise_scan(self):
        rng = random.Random(61)
        cases = [
            # row 1 links only slot 2: no sign is read, so none is missing
            ([(1, 2, 1), (1, 4, 1)], []),
            # row 1 links slots 2 (h 3) and 3 (h 2), both unsigned: the
            # scan reads the pair in h order and misses (1, 3) first
            ([(1, 2, 1), (1, 8, 1), (1, 4, 1)], []),
        ]
        for _ in range(300):
            steps = [
                (rng.choice((1, 3, 5)), rng.choice((2, 3, 4, 6, 8, 12, 16)), rng.choice((1, 2, -1, -3)))
                for _ in range(rng.randint(1, 5))
            ]
            signs = [
                (i, j, rng.choice((1, -1)))
                for j in range(2, len(steps) + 1)
                for i in range(1, j)
                if rng.random() < 0.8
            ]
            cases.append((steps, signs))
        outcomes = []
        for steps, signs in cases:
            try:
                d = desc(steps, signs=signs)
            except WeylvalError:
                continue
            expected = extendable_outcome(pairwise_extendable, d)
            assert extendable_outcome(check_extendable, d) == expected
            outcomes.append(expected)
        assert outcomes[:2] == [
            None,
            ("MissingSignChoice", "pair (1, 3) needs a stored residue-unit sign"),
        ]
        # the batch reaches both conditions, a pass, and a missing sign
        kinds = {getattr(o, "condition", type(o).__name__) for o in outcomes}
        assert kinds == {1, 2, "NoneType", "tuple"}

    def test_consistent_sign_triple_passes(self):
        ok = desc(
            [(1, 2, 1), (1, 4, 1), (1, 8, 1)],
            signs=[(1, 2, 1), (1, 3, 1), (2, 3, 1)],
        )
        assert check_extendable(ok) is None

    def test_violation_json_shape(self):
        violation = check_extendable(desc([(1, 2, -1), (1, 4, -1)]))
        out = violation.to_json()
        assert out["condition"] == 1
        assert out["indices"] == [1]
        assert isinstance(out["detail"], str) and out["detail"]


class TestConditionTwoAgainstDeepRuleSteps:
    # h_1 = 10 > h_2 = 9, and halving's step 10 has h = 10 too
    STEPS = [(1, 1024, 1), (1, 512, 1)]
    HALVING = {"kind": "rule", "rule": "halving"}

    def test_opposite_signs_against_equal_depths(self):
        d = desc(self.STEPS, self.HALVING, [(1, 2, -1)])
        violation = check_extendable(d)
        assert (violation.condition, violation.indices) == (2, (2, 1, 10))
        with pytest.raises(NotExtendable):
            resolve_gammas(d)
        # halving's step 9 shares step 2's h, so the descriptor is invalid too
        assert [v.detail for v in validate(d)] == [
            "residue-unit signs inconsistent on (2,9,1)"
        ]

    def test_agreeing_signs_resolve(self):
        d = desc(self.STEPS, self.HALVING, [(1, 2, 1)])
        assert validate(d) == [] and check_extendable(d) is None
        res = resolve_gammas(d)
        assert res.gammas == (Rat(1),) * 11
        assert sign_identity_failures(d, res) == []


class TestResolveGammas:
    def test_odd_root_is_unique(self):
        res = resolve_gammas(desc([(1, 3, 8)]))
        assert res.gamma(1) == Rat(2)
        assert res.free_choice_index is None

    def test_odd_root_rejects_sign_choice(self):
        with pytest.raises(SignChoiceForbidden):
            resolve_gammas(desc([(1, 3, 8)]), sign_choice=1)

    def test_negative_odd_root(self):
        assert resolve_gammas(desc([(1, 3, -8)])).gamma(1) == Rat(-2)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_free_even_root_follows_sign_choice(self, single24, sign):
        res = resolve_gammas(single24, sign_choice=sign)
        assert res.gamma(1) == sign * Rat(2)
        assert res.free_choice_index == 1
        assert res.chosen_sign == sign

    def test_free_even_root_requires_sign_choice(self, single24):
        with pytest.raises(SignChoiceRequired):
            resolve_gammas(single24)

    def test_sign_choice_must_be_a_unit(self, single24):
        with pytest.raises(SignChoiceRequired):
            resolve_gammas(single24, sign_choice=3)

    def test_halving_rule_pins_every_root(self, halving):
        res = resolve_gammas(halving)
        assert set(res.gammas) == {Rat(1)}
        assert res.free_choice_index is None
        with pytest.raises(SignChoiceForbidden):
            resolve_gammas(halving, sign_choice=1)

    def test_each_deep_root_is_taken_once(self, halving, monkeypatch):
        # the conversion reads every root again at each later entry; past
        # the data window the resolution takes each root once and keeps it
        roots = []
        nth_root = extension.nth_root
        monkeypatch.setattr(
            extension, "nth_root", lambda value, n: roots.append(n) or nth_root(value, n)
        )
        res = resolve_gammas(halving)
        assert len(omega_to_z(halving, res, 64).explicit_entries) == 64
        assert len(roots) <= 64
        assert res == resolve_gammas(halving)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_worked_descriptor_free_sign_sits_at_top_step(self, worked, sign):
        res = resolve_gammas(worked, sign_choice=sign)
        assert res.gammas == (Rat(1), sign * Rat(1))
        assert res.free_choice_index == 2

    def test_not_extendable_raises(self):
        with pytest.raises(NotExtendable):
            resolve_gammas(desc([(1, 2, -1), (1, 4, -1)]))

    def test_json_shape(self, single24):
        out = resolve_gammas(single24, sign_choice=-1).to_json()
        assert out == {
            "gammas": ["-2"],
            "free_choice_index": 1,
            "chosen_sign": -1,
        }


def sign_identity_failures(d, res):
    """Window pairs (i, j) whose alpha sign is not the sign of
    gamma_i^{K_ij} gamma_j^{-K_ji}."""
    window = data_window(d)
    sgn = {i: 1 if res.gamma(i) > 0 else -1 for i in range(1, window + 1)}
    out = []
    for i in range(1, window + 1):
        for j in range(i + 1, window + 1):
            p = pair_data(d, i, j)
            if alpha_sign(d, i, j) != sgn[i] ** (p.k_ij % 2) * sgn[j] ** (p.k_ji % 2):
                out.append((i, j))
    return out


def resolutions(d):
    """resolve_gammas under every sign choice the descriptor admits."""
    choices = (None,) if free_step(d) is None else (1, -1)
    return [resolve_gammas(d, choice) for choice in choices]


def random_extendable(rng):
    """A valid, extendable descriptor of 1-4 steps with rational roots."""
    while True:
        steps = []
        for idx in range(1, rng.randint(1, 4) + 1):
            n = rng.choice([1, 2, 3, 4, 4, 6, 8, 12, 16])
            m = rng.choice([-1, 1, 1, 2]) if idx == 1 else rng.choice([1, 1, 2, 3])
            if math.gcd(abs(m), n) != 1 or (idx == 1 and m >= n):
                m = 1 if n > 1 else -1
            beta = Rat(rng.choice([1, 2, 3, Rat(1, 2)])) ** n
            if n % 2 == 1 and rng.random() < 0.3:
                beta = -beta
            steps.append((m, n, beta))
        tail = rng.choice(
            [None, None, IRRATIONAL_THIRD, {"kind": "rule", "rule": "halving"},
             {"kind": "rule", "rule": "constant(1,3,1)"}]
        )
        signs = [
            (i, j, rng.choice([1, -1]))
            for i in range(1, len(steps) + 1)
            for j in range(i + 1, len(steps) + 1)
            if steps[i - 1][1] % 2 == 0 and steps[j - 1][1] % 2 == 0
        ]
        d = desc(steps, tail, signs)
        if not validate(d) and check_extendable(d) is None:
            return d


class TestRootSigns:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_equal_depth_step_follows_the_free_root(self, sign):
        # both steps have h = 2: step 1 is free, step 2 follows via alpha(1,2)
        res = resolve_gammas(desc([(1, 4, 16), (1, 4, 1)], signs=[(1, 2, 1)]), sign)
        assert res.free_choice_index == 1
        assert res.gammas == (sign * Rat(2), sign * Rat(1))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_earlier_deeper_step_pins_the_root(self, alpha, sign):
        # h_1 = 2 > h_2 = 1 and no step after step 2
        res = resolve_gammas(desc([(1, 4, 16), (1, 2, 4)], signs=[(1, 2, alpha)]), sign)
        assert res.free_choice_index == 1
        assert res.gammas == (sign * Rat(2), alpha * Rat(2))

    def test_two_divisible_rule_scans_past_its_window(self):
        # h_1 = 9 and halving reaches a larger h first at step 10
        d = desc([(1, 512, 1)], {"kind": "rule", "rule": "halving"})
        assert data_window(d) == 10
        assert resolve_gammas(d).gammas[0] == 1

    def test_fixtures_satisfy_the_sign_identity(
        self, worked, halving, constant131, single24, single_terminal
    ):
        for d in (worked, halving, constant131, single24, single_terminal):
            for res in resolutions(d):
                assert sign_identity_failures(d, res) == []

    def test_random_descriptors_satisfy_the_sign_identity(self):
        rng = random.Random(18)
        shared = 0
        for _ in range(150):
            d = random_extendable(rng)
            for res in resolutions(d):
                assert sign_identity_failures(d, res) == [], d.to_json()
            b, window = free_step(d), data_window(d)
            top = max(d.h(i) for i in range(1, window + 1))
            shared += b is not None and any(
                i != b and d.h(i) == top for i in range(1, window + 1)
            )
        # the batch reaches the branch where a root follows the free one
        assert shared >= 5


class TestTailCounts:
    def test_first_row_counts_up(self):
        assert [tail_count(4, k, 0) for k in (1, 2, 3, 4)] == [1, 1, 1, 1]
        assert [tail_count(4, k, 1) for k in (1, 2, 3)] == [1, 2, 3]

    def test_later_rows_are_prefix_sums(self):
        assert [tail_count(4, k, 2) for k in (1, 2)] == [1, 3]
        assert tail_count(4, 1, 3) == 1
        for n in range(2, 9):
            for j in range(0, n - 1):
                for k in range(1, n - j):
                    prefix = sum(tail_count(n, l, j) for l in range(1, k + 1))
                    assert tail_count(n, k, j + 1) == prefix

    def test_one_past_the_end_is_the_row_total(self):
        assert tail_count(4, 4, 1) == 4
        assert tail_count(4, 3, 2) == 6
        assert tail_count(4, 2, 3) == 4
        assert tail_count(3, 2, 2) == 3
        assert tail_count(2, 1, 2) == 1

    def test_row_total_law(self):
        for n in range(2, 7):
            for j in range(0, n):
                total = sum(tail_count(n, k, j) for k in range(1, n - j + 1))
                assert tail_count(n, n - j, j + 1) == total

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            tail_count(4, 4, 2)
        with pytest.raises(ValueError):
            tail_count(4, 1, 5)
        with pytest.raises(ValueError):
            tail_count(4, 0, 1)
        with pytest.raises(ValueError):
            tail_count(4, 6, 0)
        with pytest.raises(ValueError):
            tail_count(4, 1, -1)


@pytest.fixture(scope="module")
def mixed():
    d = desc([(1, 3, 8), (1, 4, 1)])
    return d, resolve_gammas(d, sign_choice=1)


class TestCofactorAlgebra:
    def test_resolved_roots(self, mixed):
        d, res = mixed
        assert res.gammas == (Rat(2), Rat(1))

    def test_out_of_range_tail_rejected(self, mixed):
        d, res = mixed
        for j in (-1, 3):
            with pytest.raises(ValueError):
                cofactor_tail(d, res, 1, j)

    @pytest.mark.parametrize("i", [1, 2])
    def test_root_cofactor_clears_the_root(self, mixed, i):
        d, res = mixed
        step = d.step(i)
        b = base_root(d, i)
        b_minus_gamma = b.sub(scalar_poly(res.gamma(i)))
        lhs = ore_mul(b_minus_gamma, cofactor_tail(d, res, i, 0))
        rhs = ore_pow(b, step.n).sub(scalar_poly(step.beta))
        assert lhs == rhs

    @pytest.mark.parametrize("i", [1, 2])
    def test_first_tail_peels_the_cofactor_residue(self, mixed, i):
        d, res = mixed
        b = base_root(d, i)
        b_minus_gamma = b.sub(scalar_poly(res.gamma(i)))
        cofactor = cofactor_tail(d, res, i, 0)
        lhs = ore_mul(b_minus_gamma, cofactor_tail(d, res, i, 1))
        rhs = cofactor.sub(scalar_poly(cofactor_tail_residue(d, res, i, 0)))
        assert lhs == rhs

    @pytest.mark.parametrize("i", [1, 2])
    def test_tail_chain_telescopes(self, mixed, i):
        d, res = mixed
        step = d.step(i)
        b = base_root(d, i)
        b_minus_gamma = b.sub(scalar_poly(res.gamma(i)))
        for j in range(0, step.n - 1):
            lhs = ore_mul(b_minus_gamma, cofactor_tail(d, res, i, j + 1))
            rhs = cofactor_tail(d, res, i, j).sub(
                scalar_poly(cofactor_tail_residue(d, res, i, j))
            )
            assert lhs == rhs

    def test_residue_closed_forms(self, mixed):
        d, res = mixed
        # step 1: n=3, gamma=2; step 2: n=4, gamma=1
        assert cofactor_tail_residue(d, res, 1, 0) == Rat(12)
        assert cofactor_tail_residue(d, res, 1, 1) == Rat(6)
        assert cofactor_tail_residue(d, res, 1, 2) == Rat(1)
        assert cofactor_tail_residue(d, res, 2, 0) == Rat(4)
        assert cofactor_tail_residue(d, res, 2, 1) == Rat(6)
        assert cofactor_tail_residue(d, res, 2, 2) == Rat(4)
        assert cofactor_tail_residue(d, res, 2, 3) == Rat(1)

    def test_worked_first_cofactor_residue(self, worked):
        res = resolve_gammas(worked, sign_choice=1)
        assert cofactor_tail_residue(worked, res, 1, 0) == Rat(2)


CLOSED_FORM_RULES = [
    ("constant(1,3,1)", 3),
    ("constant(1,5,1)", 5),
    ("constant(2,5,1)", 5),
    ("halving", 2),
]


def assert_closed_form_entries(rule, n, depth):
    """r_i = h_i, the i-th tower level, and gamma_i = n^{-i(i-1)/2}."""
    d = desc([], tail={"kind": "rule", "rule": rule})
    z = omega_to_z(d, resolve_gammas(d), depth)
    levels = [sum(d.step(k).ratio() for k in range(1, i + 1)) for i in range(1, depth + 1)]
    assert z.explicit_entries == [
        (levels[i - 1], Rat(1, n ** (i * (i - 1) // 2))) for i in range(1, depth + 1)
    ]


class TestConversion:
    def test_single_step_first_emission_is_the_root(self):
        d = desc([(1, 2, 1)], tail=IRRATIONAL_THIRD)
        assert validate(d) == []
        res = resolve_gammas(d, sign_choice=1)
        z = omega_to_z(d, res, depth=3)
        assert z.explicit_entries == [(Rat(1, 2), Rat(1))]
        assert z.terminal is not None

    @pytest.mark.parametrize("sign", [1, -1])
    def test_worked_emissions_and_terminal(self, worked, sign):
        res = resolve_gammas(worked, sign_choice=sign)
        z = omega_to_z(worked, res, depth=2)
        assert z.explicit_entries == [
            (Rat(1, 2), Rat(1)),
            (Rat(3, 4), sign * Rat(1, 2)),
        ]
        total = z.terminal.value
        assert total.q == Rat(3, 4)
        assert total.k_xi == 1
        assert total.k_mu == 0
        assert total.xi_scale == Rat(1, 8)

    def test_worked_second_gamma_divides_by_cofactor_residue(self, worked):
        res = resolve_gammas(worked, sign_choice=1)
        z = omega_to_z(worked, res, depth=2)
        gamma2 = z.explicit_entries[1][1]
        assert gamma2 == res.gamma(2) / cofactor_tail_residue(worked, res, 1, 0)

    def test_halving_rule_entries(self, halving):
        res = resolve_gammas(halving)
        z = omega_to_z(halving, res, depth=4)
        assert z.explicit_entries == [
            (Rat(1, 2), Rat(1)),
            (Rat(3, 4), Rat(1, 2)),
            (Rat(7, 8), Rat(1, 8)),
            (Rat(15, 16), Rat(1, 64)),
        ]
        assert z.terminal is None and z.rule is None

    def test_geometric_rule_entries(self, constant131):
        res = resolve_gammas(constant131)
        z = omega_to_z(constant131, res, depth=3)
        assert z.explicit_entries == [
            (Rat(1, 3), Rat(1)),
            (Rat(4, 9), Rat(1, 3)),
            (Rat(13, 27), Rat(1, 27)),
        ]

    @pytest.mark.parametrize("rule, n", CLOSED_FORM_RULES)
    def test_rule_entries_in_closed_form_to_depth_20(self, rule, n):
        assert_closed_form_entries(rule, n, 20)

    @pytest.mark.parametrize("rule, n", CLOSED_FORM_RULES)
    def test_rule_entries_in_closed_form_to_depth_256(self, rule, n):
        # far past depth 169, where the CLI can no longer print halving's gamma
        assert_closed_form_entries(rule, n, 256)

    @pytest.mark.parametrize("rule", ["halving", "constant(1,3,1)"])
    def test_one_cofactor_residue_per_closed_step(self, rule, monkeypatch):
        # children are tested against the cut before they are built, so a
        # telescoped record that keeps none takes no suffix residues: on a
        # rule the residues left are bbar's, one per closed step
        calls = []
        residue = extension.cofactor_tail_residue
        monkeypatch.setattr(
            extension,
            "cofactor_tail_residue",
            lambda *args: calls.append(args[2:]) or residue(*args),
        )
        d = desc([], tail={"kind": "rule", "rule": rule})
        assert len(omega_to_z(d, resolve_gammas(d), 64).explicit_entries) == 64
        assert len(calls) == 64
        assert calls == [(i, 0) for i in range(1, 65)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cofactor_tails_of_a_sixth_root_step(self, rng, sign):
        # n_1 = 6 and n_2 = n_3 = 3 give the conversion records whose atoms
        # are the tails S_{i,j} with j >= 1, which no fixture tower reaches
        xi_twentieth = {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/20"}
        d = desc(
            [(1, 6, 1), (1, 3, 1), (1, 3, 8)],
            tail={"kind": "irrational", "value": xi_twentieth},
        )
        assert validate(d) == []
        res = resolve_gammas(d, sign_choice=sign)
        z = omega_to_z(d, res, depth=16)
        assert z.explicit_entries == [
            (Rat(1, 6), sign * Rat(1)),
            (Rat(1, 2), sign * Rat(1, 6)),
            (Rat(5, 6), sign * Rat(1, 24)),
        ]
        assert z.terminal.value.q == Rat(5, 6)
        samples = [sample_element(rng, max_degree=5) for _ in range(15)]
        assert roundtrip_check(d, res, samples, depth=16).ok

    def test_tail_deviations_reach_the_terminal_value(self):
        # the fourth entry depends on S_{i,j} - res = (b_i - gamma) S_{i,j+1}
        # for j >= 1: with that S_{i,j+1} read as 1 it would be 35/131072,
        # and z_eval of w_2 would miss the terminal value
        xi_third = {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/3"}
        d = desc(
            [(1, 4, 16), (1, 5, 32)],
            tail={"kind": "irrational", "value": xi_third},
            signs=[(1, 2, -1)],
        )
        assert validate(d) == []
        z = omega_to_z(d, resolve_gammas(d, sign_choice=1), depth=16)
        assert z.explicit_entries[3] == (Rat(17, 20), Rat(7, 32768))
        assert z_eval(z, embed(omega_element(d, 2))) == d.generator_value(2)

    def test_entries_increase_and_stay_below_one(self, halving, constant131):
        for d in (halving, constant131):
            res = resolve_gammas(d)
            z = omega_to_z(d, res, depth=5)
            rs = [r for r, _ in z.explicit_entries]
            assert all(a < b for a, b in zip(rs, rs[1:]))
            assert all(Rat(0) < r < Rat(1) for r in rs)

    def test_depth_zero_gives_empty_prefix(self, worked, halving):
        for d, sign in ((worked, 1), (halving, None)):
            res = (
                resolve_gammas(d, sign_choice=sign)
                if sign
                else resolve_gammas(d)
            )
            z = omega_to_z(d, res, depth=0)
            assert z.explicit_entries == []
            assert z.terminal is None

    def test_single_terminal_conversion(self, single_terminal):
        for sign in (1, -1):
            res = resolve_gammas(single_terminal, sign_choice=sign)
            z = omega_to_z(single_terminal, res, depth=4)
            assert z.explicit_entries == [(Rat(1, 2), sign * Rat(2))]
            total = z.terminal.value
            assert total.q == Rat(1, 2)
            assert total.k_xi == 1
            assert total.xi_scale == Rat(1, 3)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_negative_first_step_converts_through_the_head_branches(self, sign):
        # with m_1 < 0 the conversion reads the residues of its remainder
        # heads and telescopes them, which no fixture tower reaches
        xi_eighth = {"q": "0", "k_xi": 1, "k_mu": 0, "scale": "1/8"}
        d = desc(
            [(-1, 2, 4), (1, 2, 9), (3, 4, 1)],
            tail={"kind": "irrational", "value": xi_eighth},
            signs=[(1, 2, 1), (1, 3, 1), (2, 3, 1)],
        )
        assert validate(d) == []
        z = omega_to_z(d, resolve_gammas(d, sign_choice=sign), depth=16)
        assert z.explicit_entries == [
            (Rat(-1, 2), Rat(2)),
            (Rat(0), Rat(3, 4)),
            (Rat(1, 2), Rat(-9, 64)),
            (Rat(3, 4), sign * Rat(1, 24)),
        ]
        for i in range(4):
            assert z_eval(z, embed(omega_element(d, i))) == d.generator_value(i)

    def test_depth_stops_before_a_head_entry(self):
        # past the bare prefix only remainder heads emit, and depth 2 stops
        # where the third entry, at a head, was due
        d = desc([(-1, 3, 27), (1, 3, -27)], signs=[(1, 2, 1)])
        assert validate(d) == []
        res = resolve_gammas(d)
        z = omega_to_z(d, res, depth=2)
        assert z.explicit_entries == [(Rat(-1, 3), Rat(3)), (Rat(0), Rat(-1, 9))]
        assert z.terminal is None
        assert omega_to_z(d, res, depth=3).explicit_entries[2] == (Rat(1, 3), Rat(-1, 243))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_depth_stops_before_a_tied_entry(self, sign):
        # after four entries v(w_2) = 3/4 ties with the remainder heads, and
        # depth 4 stops where that tie's entry was due
        d = desc(
            [(-1, 6, "1/64"), (1, 4, 81), (3, 4, 16)],
            signs=[(1, 2, -1), (1, 3, -1), (2, 3, 1)],
        )
        assert validate(d) == []
        res = resolve_gammas(d, sign_choice=sign)
        z = omega_to_z(d, res, depth=4)
        assert z.explicit_entries == [
            (Rat(-1, 6), Rat(-1, 2)),
            (Rat(1, 12), sign * Rat(-16)),
            (Rat(1, 3), Rat(1280)),
            (Rat(7, 12), sign * Rat(-450560, 3)),
        ]
        assert z.terminal is None
        assert omega_to_z(d, res, depth=5).explicit_entries[4][0] == Rat(5, 6)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_cancelled_tie_closes_its_step_without_an_entry(self, sign):
        # the tower above with gamma_3 = +-413614080, the residue sum of the
        # heads that tie with v(w_2): the tie's gamma is zero, so step 3
        # closes with no entry, and nothing is left to emit
        root = 413614080
        d = desc(
            [(-1, 6, "1/64"), (1, 4, 81), (3, 4, root**4)],
            signs=[(1, 2, -1), (1, 3, -1), (2, 3, 1)],
        )
        assert validate(d) == []
        res = resolve_gammas(d, sign_choice=sign)
        assert res.gamma(3) == sign * root
        conversion = _Conversion(d, res, 12)
        z = conversion.run()
        assert [r for r, _ in z.explicit_entries] == [
            Rat(-1, 6), Rat(1, 12), Rat(1, 3), Rat(7, 12)
        ]
        assert conversion.k == 3


def random_rule_descriptor(rng):
    """0-2 explicit steps, then halving or constant(m,n,beta)."""
    steps = []
    for i in range(rng.randint(0, 2)):
        m = rng.randint(-2, 2) if i == 0 else rng.randint(1, 3)
        beta = rng.choice(["1", "1", "-1", "4", "9", "1/4", "8", "-8", "16"])
        steps.append({"m": m, "n": rng.choice([1, 2, 3, 4, 6, 8]), "beta": beta})
    if rng.random() < 0.4:
        name = "halving"
    else:
        m, n = rng.randint(1, 3), rng.choice([2, 3, 4, 5, 7])
        name = f"constant({m},{n},{rng.choice(['1', '1', '-1', '2'])})"
    signs = [
        {"i": i, "j": j, "sign": rng.choice([1, -1])}
        for i in range(1, 6)
        for j in range(i + 1, 7)
        if rng.random() < 0.08
    ]
    data = {"steps": steps, "tail": {"kind": "rule", "rule": name}, "alpha_signs": signs}
    return OmegaDescriptor.from_json(data)


def conversion_outcome(d, sign, depth):
    try:
        return omega_to_z(d, resolve_gammas(d, sign), depth).to_json()
    except WeylvalError as exc:
        return (type(exc).__name__, str(exc))


def outcome_batch(seed, size):
    """Outcomes of `size` seeded conversions of valid descriptors: bare
    prefixes, terminals and rules from `random_extendable` (m_1 = -1 among
    them), rules that may not extend from `random_rule_descriptor`, each
    under a sign choice of None, +1 or -1 and a depth of 0 to 12."""
    rng = random.Random(seed)
    batch = []
    while len(batch) < size:
        if rng.random() < 0.5:
            d = random_extendable(rng)
        else:
            try:
                d = random_rule_descriptor(rng)
            except WeylvalError:
                continue
            if validate(d):
                continue
        batch.append((d, conversion_outcome(d, rng.choice([None, 1, -1]), rng.randint(0, 12))))
    return batch


def outcome_kind(outcome):
    if isinstance(outcome, tuple):
        return outcome[0]
    if outcome["tail"] is not None:
        return "terminal"
    return "entries" if outcome["entries"] else "empty"


def over(q, den):
    """The rational q as an int over den, which q's denominator divides."""
    e = q * den
    assert e.denominator == 1
    return e.numerator


class TestIntExponents:
    def test_widening_keeps_every_exponent(self, halving, constant131):
        # every stored exponent, as an int over den, against its Fraction
        # through widenings by denominators that do not nest (2, then 3),
        # with negative exponents and the positive floor of a negative cut
        halving_tail = {"kind": "rule", "rule": "halving"}
        negative_cut = desc([(-1, 2, "1/4"), (1, 8, 1)], tail=halving_tail)
        rng = random.Random(3303)
        for d in (halving, constant131, negative_cut):
            conversion = _Conversion(d, resolve_gammas(d), 0)
            cut = min(Rat(1), level_limit(d))
            assert Rat(conversion.floor, conversion.den) == -cut
            assert Rat(conversion._omega_value(), conversion.den) == d.step(1).ratio()
            sigma = Rat(rng.randint(-9, 9), 4)
            last = sigma + Rat(rng.randint(-9, 9), 6)
            conversion._widen(12)
            den = conversion.den
            conversion.sigma, conversion.last_r = over(sigma, den), over(last, den)
            conversion.floor = conversion.sigma - over(cut, den)
            conversion.zfloor = conversion.floor + conversion.last_r
            held = []
            widths = [2, 3] + [rng.choice([1, 2, 3, 4, 5, 7, 9, 12, 16, 25]) for _ in range(30)]
            for n in widths:
                conversion._widen(n)
                den = conversion.den
                assert den % n == 0
                q = Rat(rng.randint(-60, 60), n)
                z = rng.choice([None, 1])
                record = _Record(Rat(1), over(q, den), (), z)
                if rng.random() < 0.5:
                    conversion.C.append(record)
                else:
                    conversion.devs.setdefault(rng.randint(1, 3), []).append(record)
                held.append(q)
                stored = conversion.C + [r for recs in conversion.devs.values() for r in recs]
                assert sorted(Rat(rec.xexp, den) for rec in stored) == sorted(held)
                state = (conversion.sigma, conversion.last_r, conversion.floor, conversion.zfloor)
                assert {type(e) for e in state + tuple(r.xexp for r in stored)} == {int}
                assert Rat(conversion.sigma, den) == sigma
                assert Rat(conversion.last_r, den) == last
                assert Rat(conversion.floor, den) == sigma - cut
                assert Rat(conversion.zfloor, den) == sigma + last - cut
                for a in stored:
                    b = rng.choice(stored)
                    qa, qb = Rat(a.xexp, den), Rat(b.xexp, den)
                    assert Rat(a.xexp + b.xexp, den) == qa + qb
                    assert (a.xexp < b.xexp, a.xexp == b.xexp) == (qa < qb, qa == qb)
                    floor = sigma - cut + (0 if a.z is None else last)
                    assert conversion._below_cut(a.xexp, a.z) == (qa > floor)
            assert min(held) < 0 < max(held)

    @pytest.mark.parametrize("rule", ["halving", "constant(1,3,1)"])
    def test_deep_conversion_keeps_one_deviation_list(self, rule):
        # the cut empties every deviation list but the newest, and an empty
        # list is not kept
        d = desc([], tail={"kind": "rule", "rule": rule})
        conversion = _Conversion(d, resolve_gammas(d), 256)
        conversion.run()
        assert len(conversion.entries) == 256
        assert len(conversion.devs) == 1

    def test_exponent_faults_are_errors(self, halving):
        # checks that python -O keeps: an entry exponent that does not
        # increase or is not below 1, and a z-record not below sigma
        conversion = _Conversion(halving, resolve_gammas(halving), 3)
        conversion.run()
        for r in (conversion.last_r, conversion.last_r - 1):
            with pytest.raises(ConversionInternalError, match="does not increase"):
                conversion._emit(r, Rat(1))
        with pytest.raises(ConversionInternalError, match="is not below 1"):
            conversion._emit(conversion.den, Rat(1))
        assert len(conversion.entries) == 3
        conversion.C = [_Record(Rat(1), conversion.sigma, (), 1)]
        with pytest.raises(ConversionInternalError, match="not below sigma"):
            conversion._heads()

    def test_outcomes_are_pinned(self):
        # conversions of 300 seeded valid descriptors, pinned by digest at
        # the Fraction-exponent conversion this one replaced
        batch = outcome_batch(3304, 300)
        kinds = {}
        for _, outcome in batch:
            kinds[outcome_kind(outcome)] = kinds.get(outcome_kind(outcome), 0) + 1
        assert kinds == {
            "entries": 103, "empty": 17, "terminal": 14, "NotExtendable": 32,
            "BudgetExceeded": 3, "NoRationalRoot": 11, "SignChoiceRequired": 49,
            "SignChoiceForbidden": 71,
        }
        assert {d.tail is None for d, _ in batch} == {True, False}
        assert any(d.step(1).m < 0 and outcome_kind(o) == "entries" for d, o in batch)
        outcomes = [outcome for _, outcome in batch]
        digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
        assert digest == "beccac8a357349a118d4a920f4a86e63c062d79ff45ce573712f380b982c5df3"


class TestRecordCut:
    def test_geometric_rule_keeps_few_records(self, constant131):
        # records at or above r* = 1/2 are dropped; kept, they grow 3x per
        # depth, to 35045 at depth 9
        conversion = _Conversion(constant131, resolve_gammas(constant131), 9)
        conversion.run()
        live = len(conversion.C) + sum(len(recs) for recs in conversion.devs.values())
        assert live <= 2

    def test_record_just_below_the_cut_is_kept(self):
        # r* = -1/8; a remainder record at level h_3 = -1/4 ties with v(w_2)
        # and makes the third gamma -7/8, where dropping it would give 1/8
        d = desc([(-1, 2, "1/4"), (1, 8, 1)], tail={"kind": "rule", "rule": "halving"})
        assert level_limit(d) == Rat(-1, 8)
        z = omega_to_z(d, resolve_gammas(d), 4)
        assert z.explicit_entries[2] == (Rat(-1, 4), Rat(-7, 8))

    def test_cut_changes_no_outcome(self, monkeypatch):
        rng = random.Random(20261018)
        compared = cut_below_one = 0
        while compared < 360:
            try:
                d = random_rule_descriptor(rng)
                if validate(d):
                    continue
            except WeylvalError:
                continue
            for sign in (None, 1, -1):
                depth = rng.randint(1, 6)
                outcome = conversion_outcome(d, sign, depth)
                with monkeypatch.context() as patch:
                    patch.setattr(extension, "level_limit", lambda desc: None)
                    assert conversion_outcome(d, sign, depth) == outcome
                compared += 1
                if isinstance(outcome, dict) and level_limit(d) < 1:
                    cut_below_one += 1
        assert cut_below_one >= 20


class TestRoundtrip:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_worked_roundtrip(self, worked, rng, sign):
        res = resolve_gammas(worked, sign_choice=sign)
        samples = [sample_element(rng, max_degree=5) for _ in range(15)]
        report = roundtrip_check(worked, res, samples, depth=8)
        assert report.ok
        assert report.trials == 15

    @pytest.mark.parametrize("sign", [1, -1])
    def test_single_terminal_roundtrip(self, single_terminal, rng, sign):
        res = resolve_gammas(single_terminal, sign_choice=sign)
        samples = [sample_element(rng, max_degree=5) for _ in range(15)]
        report = roundtrip_check(single_terminal, res, samples, depth=8)
        assert report.ok

    def test_report_json_shape(self):
        report = RoundtripReport(3, ("y: 1 vs 2",))
        assert not report.ok
        assert report.to_json() == {
            "trials": 3,
            "mismatches": ["y: 1 vs 2"],
            "ok": False,
        }
