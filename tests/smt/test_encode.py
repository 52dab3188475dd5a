"""Property tests for the enum bit-blaster's domain constraints."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    SAT,
    EnumConst,
    EnumSort,
    EnumVar,
    Ite,
    Ne,
    Not,
    Solver,
    free_vars,
)
from repro.smt.encode import EnumLowering, bit_name


class TestDomainConstraints:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_models_never_decode_out_of_range(self, size, data):
        """For non-power-of-two sorts, unused binary codes must be
        excluded: every model decodes to a declared value."""
        sort = EnumSort(f"D{size}", tuple(range(size)))
        x = EnumVar(f"dx{size}", sort)
        # Exclude a random subset of values; the model must pick one of
        # the remaining declared values, never a phantom code.
        excluded = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                unique=True,
                max_size=size - 1,
            ),
            label="excluded",
        )
        s = Solver()
        for v in excluded:
            s.add(Ne(x, EnumConst(sort, v)))
        assert s.check() == SAT
        value = s.model()[x]
        assert value in sort.values
        assert value not in excluded

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=2, max_value=6))
    def test_pigeonhole_over_enum(self, size):
        """size+1 mutually distinct variables cannot fit the sort —
        only provable if phantom codes are excluded."""
        from repro.smt import Distinct

        sort = EnumSort(f"P{size}", tuple(range(size)))
        xs = [EnumVar(f"p{size}_{i}", sort) for i in range(size + 1)]
        s = Solver()
        s.add(Distinct(*xs))
        assert s.check() == "unsat"

    def test_exactly_size_distinct_fits(self):
        from repro.smt import Distinct

        sort = EnumSort("F5", tuple(range(5)))
        xs = [EnumVar(f"f5_{i}", sort) for i in range(5)]
        s = Solver()
        s.add(Distinct(*xs))
        assert s.check() == SAT
        values = {s.model()[x] for x in xs}
        assert values == set(sort.values)


class TestBitVectors:
    """``EnumLowering.bits_of`` — the surface the CNF converter reads."""

    def test_ite_bits_keep_the_models_own_condition(self):
        sort = EnumSort("B4", ("a", "b", "c", "d"))
        x, y = EnumVar("bx", sort), EnumVar("by", sort)
        cond = Ne(y, EnumConst(sort, "a"))  # contains an enum equality
        lowering = EnumLowering()
        # "b" = 01, "c" = 10: the two constants differ in both bits.
        bits = lowering.bits_of(Ite(cond, EnumConst(sort, "b"), EnumConst(sort, "c")))
        assert bits == (cond, Not(cond))
        # Only x's bits appear beside the condition; y stays inside it.
        mixed = lowering.bits_of(Ite(cond, x, EnumConst(sort, "a")))
        assert {v.payload for v in free_vars(*mixed) if v.is_bool} == {
            bit_name("bx", 0), bit_name("bx", 1)
        }

    def test_domain_condition_once_per_variable_and_only_when_needed(self):
        lowering = EnumLowering()
        five = EnumVar("d5", EnumSort("S5", tuple(range(5))))
        four = EnumVar("d4", EnumSort("S4", tuple(range(4))))
        lowering.bits_of(five)
        lowering.bits_of(four)
        assert len(lowering.drain_side_conditions()) == 1
        lowering.bits_of(five)
        assert lowering.drain_side_conditions() == []
