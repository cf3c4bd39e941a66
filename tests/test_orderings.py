"""Compatible-ordering enumeration, the exact sign oracle, and ordering
extension to the Ore ring."""

import pytest

from weylval import (
    DeclarationInconsistent,
    NonzeroRequired,
    NotExtendable,
    OmegaDescriptor,
    OrderingDescriptor,
    Rat,
    WeylElement,
    WeylFraction,
    compatibility_check,
    enumerate_orderings,
    extend_ordering,
    omega_element,
    resolve_gammas,
    sample_element,
    sign,
)


X = WeylElement.x()
Y = WeylElement.y()


def bad_even_step():
    return OmegaDescriptor.from_json({"steps": [{"m": 1, "n": 2, "beta": "-1"}]})


class TestOrderingDescriptor:
    def test_defaults_are_trivial_character(self):
        o = OrderingDescriptor()
        assert o.character(1, 1) == 1

    def test_character_multiplies_active_slots(self):
        o = OrderingDescriptor(omega_index=1, terminal=True, omega_sign=-1, terminal_sign=-1)
        assert o.character(1, 0) == -1
        assert o.character(0, 1) == -1
        assert o.character(1, 1) == 1
        assert o.character(2, 0) == 1
        assert o.character(2, 3) == -1

    def test_rejects_non_unit_signs(self):
        with pytest.raises(DeclarationInconsistent):
            OrderingDescriptor(omega_index=0, omega_sign=2)

    def test_rejects_signs_without_slots(self):
        with pytest.raises(DeclarationInconsistent):
            OrderingDescriptor(omega_index=None, omega_sign=-1)
        with pytest.raises(DeclarationInconsistent):
            OrderingDescriptor(terminal=False, terminal_sign=-1)

    def test_json_shape(self):
        o = OrderingDescriptor(omega_index=1, terminal=True, omega_sign=1, terminal_sign=-1)
        assert o.to_json() == {
            "basis": {"omega_index": 1, "terminal": True},
            "signs": [1, -1],
        }


class TestEnumerate:
    def test_two_divisible_rule_has_one_ordering(self, halving):
        orderings = enumerate_orderings(halving)
        assert len(orderings) == 1
        assert orderings[0] == OrderingDescriptor()

    def test_finite_descriptor_has_two(self, single24):
        orderings = enumerate_orderings(single24)
        assert len(orderings) == 2
        assert {o.omega_sign for o in orderings} == {1, -1}
        assert all(o.omega_index == 0 and not o.terminal for o in orderings)

    def test_odd_rule_basis_is_x_itself(self, constant131):
        orderings = enumerate_orderings(constant131)
        assert len(orderings) == 2
        assert all(o.omega_index == -1 for o in orderings)

    def test_rank_two_descriptor_has_four(self, worked):
        orderings = enumerate_orderings(worked)
        assert len(orderings) == 4
        assert {(o.omega_sign, o.terminal_sign) for o in orderings} == {
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        }
        assert all(o.omega_index == 1 and o.terminal for o in orderings)

    def test_single_terminal_has_four(self, single_terminal):
        assert len(enumerate_orderings(single_terminal)) == 4


class TestSign:
    def test_squares_are_positive_everywhere(self, worked, single24, halving, rng):
        for d in (worked, single24, halving):
            for o in enumerate_orderings(d):
                for _ in range(5):
                    g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=4)
                    assert sign(d, o, g.mul(g)) == 1

    def test_minus_one_is_negative(self, halving):
        o = enumerate_orderings(halving)[0]
        assert sign(halving, o, WeylElement.scalar(Rat(-1))) == -1

    def test_zero_has_no_sign(self, halving):
        o = enumerate_orderings(halving)[0]
        with pytest.raises(NonzeroRequired):
            sign(halving, o, WeylElement.zero())

    def test_generators_positive_in_halving_ordering(self, halving):
        o = enumerate_orderings(halving)[0]
        assert sign(halving, o, X) == 1
        assert sign(halving, o, Y) == 1

    def test_basis_generator_tracks_omega_sign(self, single24):
        for o in enumerate_orderings(single24):
            assert sign(single24, o, Y) == o.omega_sign

    def test_even_parity_elements_ignore_the_character(self, single24):
        signs = {sign(single24, o, X) for o in enumerate_orderings(single24)}
        assert signs == {1}

    def test_terminal_generator_tracks_terminal_sign(self, worked):
        top = omega_element(worked, 2)
        for o in enumerate_orderings(worked):
            assert sign(worked, o, top) == o.terminal_sign

    def test_multiplicativity_spot(self, worked, rng):
        o = enumerate_orderings(worked)[3]
        for _ in range(10):
            f = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=4)
            g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=4)
            assert sign(worked, o, f.mul(g)) == sign(worked, o, f) * sign(worked, o, g)

    def test_fraction_sign_is_part_product(self, worked, rng):
        o = enumerate_orderings(worked)[1]
        for _ in range(6):
            f = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=4)
            g = sample_element(rng, max_degree=4, max_terms=3, coeff_bound=4)
            frac = WeylFraction(f, g)
            assert sign(worked, o, frac) == sign(worked, o, f) * sign(worked, o, g)
        same = WeylFraction(f, f)
        assert sign(worked, o, same) == 1


class TestCompatibility:
    def test_worked_orderings_pass(self, worked):
        for o in enumerate_orderings(worked):
            report = compatibility_check(worked, o, trials=25, seed=11)
            assert report.ok, report.violations

    def test_rule_and_finite_orderings_pass(self, halving, single24):
        for d in (halving, single24):
            for o in enumerate_orderings(d):
                report = compatibility_check(d, o, trials=25, seed=7)
                assert report.ok, report.violations

    def test_report_counts_trials(self, halving):
        o = enumerate_orderings(halving)[0]
        report = compatibility_check(halving, o, trials=5, seed=1)
        assert report.trials == 5
        assert report.to_json() == {"trials": 5, "violations": []}


class TestExtendOrdering:
    def test_halving_unique_extension(self, halving):
        result = extend_ordering(halving, enumerate_orderings(halving)[0])
        assert result.sign_choice is None
        assert result.ordering == OrderingDescriptor()
        assert result.ordering.to_json() == {"basis": {}, "signs": []}

    def test_finite_orderings_biject_with_root_signs(self, single24):
        seen = {}
        for o in enumerate_orderings(single24):
            result = extend_ordering(single24, o)
            assert result.sign_choice in (1, -1)
            seen[result.sign_choice] = o
            # the chosen sign feeds straight into root resolution
            res = resolve_gammas(single24, sign_choice=result.sign_choice)
            assert res.gamma(1) == result.sign_choice * Rat(2)
            assert result.ordering == OrderingDescriptor()
        assert set(seen) == {1, -1}

    def test_rank_two_orderings_biject_with_extension_data(self, worked):
        images = set()
        for o in enumerate_orderings(worked):
            result = extend_ordering(worked, o)
            assert result.sign_choice == o.omega_sign
            assert result.ordering.terminal
            assert result.ordering.omega_index is None
            assert result.ordering.terminal_sign == o.terminal_sign
            images.add((result.sign_choice, result.ordering.terminal_sign))
        assert images == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_odd_rule_extends_only_where_x_is_positive(self, constant131):
        positive, negative = enumerate_orderings(constant131)
        assert positive.omega_sign == 1 and negative.omega_sign == -1
        result = extend_ordering(constant131, positive)
        assert result.sign_choice is None
        with pytest.raises(NotExtendable):
            extend_ordering(constant131, negative)

    def test_unextendable_valuation_blocks_every_ordering(self):
        bad = bad_even_step()
        for o in enumerate_orderings(bad):
            with pytest.raises(NotExtendable):
                extend_ordering(bad, o)
