"""Tests for the logical->physical AddressSpace translation layer."""

import random
from array import array

import pytest

from repro.dram.mapping import (
    AddressSpaceSpec,
    BitFieldDecoder,
    IdentityAddressSpace,
    PermutedAddressSpace,
    StridedAddressSpace,
    _bank_permutation,
    _permutation_tables,
    make_address_space,
)
from repro.params import DramGeometry

GEOMETRY = DramGeometry()


def spaces():
    return [
        IdentityAddressSpace(),
        StridedAddressSpace(GEOMETRY, stride=3, row_offset=17,
                            bank_offset=5),
        PermutedAddressSpace(GEOMETRY, seed=7),
    ]


def sample_coords():
    """Edge and interior coordinates of the default geometry."""
    rows = GEOMETRY.rows_per_bank
    banks = GEOMETRY.banks_per_subchannel
    return [(0, 0, 0), (1, banks - 1, rows - 1), (0, 7, 12345),
            (1, 0, rows // 2), (0, banks // 2, 1)]


class TestTranslateContracts:
    @pytest.mark.parametrize("space", spaces(),
                             ids=lambda s: type(s).__name__)
    def test_stays_inside_geometry(self, space):
        for subch, bank, row in sample_coords():
            s, b, r = space.translate(subch, bank, row)
            assert 0 <= s < GEOMETRY.subchannels
            assert 0 <= b < GEOMETRY.banks_per_subchannel
            assert 0 <= r < GEOMETRY.rows_per_bank

    @pytest.mark.parametrize("space", spaces()[1:],
                             ids=lambda s: type(s).__name__)
    def test_row_translation_is_injective(self, space):
        rows = range(0, GEOMETRY.rows_per_bank, 997)
        images = {space.translate(0, 0, row) for row in rows}
        assert len(images) == len(list(rows))

    def test_identity_is_identity(self):
        space = IdentityAddressSpace()
        for coords in sample_coords():
            assert space.translate(*coords) == coords

    def test_permutation_is_seed_deterministic(self):
        one = PermutedAddressSpace(GEOMETRY, seed=3)
        two = PermutedAddressSpace(GEOMETRY, seed=3)
        other = PermutedAddressSpace(GEOMETRY, seed=4)
        coords = sample_coords()
        assert [one.translate(*c) for c in coords] \
            == [two.translate(*c) for c in coords]
        assert [one.translate(*c) for c in coords] \
            != [other.translate(*c) for c in coords]

    @pytest.mark.parametrize("seed, pinned", [
        (1, [(0, 9, 53448), (1, 24, 109774), (0, 30, 89656)]),
        (2, [(0, 30, 87336), (1, 5, 51), (0, 26, 511)]),
    ])
    def test_permutation_matches_a_fresh_shuffle(self, seed, pinned):
        rng = random.Random(0x5EED_AD0 ^ (seed * 0x9E37_79B1))
        rows = list(range(GEOMETRY.rows_per_bank))
        rng.shuffle(rows)
        banks = list(range(GEOMETRY.banks_per_subchannel))
        rng.shuffle(banks)
        space = PermutedAddressSpace(GEOMETRY, seed=seed)
        assert [space.translate(0, 0, row)[2]
                for row in range(GEOMETRY.rows_per_bank)] == rows
        assert [space.translate(1, bank, 0)[1]
                for bank in range(GEOMETRY.banks_per_subchannel)] == banks
        assert [space.translate(*c) for c in sample_coords()[:3]] == pinned
        # A flat array of raw values: at most 4 bytes per row.
        assert space._row_table.itemsize <= 4

    @pytest.mark.parametrize("rows, banks", [(1000, 6), (4099, 3),
                                             (2, 1), (1, 5)])
    @pytest.mark.parametrize("seed", (0, 5, 11, 2 ** 31 + 1))
    def test_inline_shuffle_matches_random_shuffle(self, rows, banks,
                                                   seed):
        # The tables draw their Fisher-Yates swaps inline.  Sizes off a
        # power of two cross every bit-width band part-way, and the
        # bank table only matches if the row shuffle consumed the rng
        # exactly as random.shuffle does.
        rng = random.Random(0x5EED_AD0 ^ (seed * 0x9E37_79B1))
        row_table = list(range(rows))
        rng.shuffle(row_table)
        bank_table = list(range(banks))
        rng.shuffle(bank_table)
        built_rows, built_banks = _permutation_tables(rows, banks, seed)
        assert (list(built_rows), list(built_banks)) \
            == (row_table, bank_table)

    @pytest.mark.parametrize("rows, banks", [(1000, 6), (4099, 3),
                                             (2, 1), (1, 5)])
    @pytest.mark.parametrize("seed", (0, 5, 11, 2 ** 31 + 1))
    def test_bank_only_draw_matches_the_full_build(self, rows, banks,
                                                   seed):
        # The bank table is drawn after the row shuffle's draws; a
        # draws-only pass must leave the rng exactly where the swaps do.
        assert _bank_permutation(rows, banks, seed) \
            == _permutation_tables(rows, banks, seed)[1]

    @pytest.mark.parametrize("seed", (1, 2))
    def test_bank_only_draw_at_the_default_geometry(self, seed):
        rows = GEOMETRY.rows_per_bank
        banks = GEOMETRY.banks_per_subchannel
        assert _bank_permutation(rows, banks, seed) \
            == _permutation_tables(rows, banks, seed)[1]

    @pytest.mark.parametrize("spec", [
        AddressSpaceSpec(),
        AddressSpaceSpec(kind="strided", stride=3, bank_offset=5),
        AddressSpaceSpec(kind="permuted", seed=1),
        AddressSpaceSpec(kind="permuted", seed=2)],
        ids=lambda spec: f"{spec.kind}-{spec.seed}")
    def test_translate_bank_follows_the_built_space(self, spec):
        space = spec.build(GEOMETRY)
        for subch, bank, _ in sample_coords():
            assert spec.translate_bank(subch, bank, GEOMETRY) \
                == space.translate(subch, bank, 0)[:2]

    def test_same_seed_shares_one_table(self):
        one = PermutedAddressSpace(GEOMETRY, seed=1)
        two = AddressSpaceSpec(kind="permuted", seed=1).build(GEOMETRY)
        other = PermutedAddressSpace(GEOMETRY, seed=2)
        assert one._row_table is two._row_table
        assert one._bank_table is two._bank_table
        assert isinstance(one._row_table, array)
        assert one._row_table != other._row_table
        small = DramGeometry(rows_per_bank=4096, rows_per_subarray=1024)
        assert len(PermutedAddressSpace(small, seed=1)._row_table) == 4096

    def test_even_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            StridedAddressSpace(GEOMETRY, stride=2)


class TestSpecFactory:
    @pytest.mark.parametrize("kind, cls", [
        ("identity", IdentityAddressSpace),
        ("strided", StridedAddressSpace),
        ("permuted", PermutedAddressSpace),
    ])
    def test_build_dispatches_on_kind(self, kind, cls):
        spec = AddressSpaceSpec(kind=kind)
        assert isinstance(spec.build(GEOMETRY), cls)

    def test_unknown_kind_lists_choices(self):
        with pytest.raises(ValueError, match="identity"):
            make_address_space(AddressSpaceSpec(kind="bogus"),
                               GEOMETRY)

    def test_spec_is_hashable_job_material(self):
        assert hash(AddressSpaceSpec(kind="permuted", seed=9)) == \
            hash(AddressSpaceSpec(kind="permuted", seed=9))


class TestBitFieldDecoder:
    def test_encode_decode_round_trip(self):
        decoder = BitFieldDecoder.for_geometry(GEOMETRY)
        fields = dict(column=9, subchannel=1, bank=17, row=12345)
        address = decoder.encode_bus(**fields)
        decoded = decoder.decode(address)
        for name, value in fields.items():
            assert decoded[name] == value

    def test_rejects_overflowing_field(self):
        decoder = BitFieldDecoder.for_geometry(GEOMETRY)
        with pytest.raises(ValueError):
            decoder.encode_bus(row=GEOMETRY.rows_per_bank, bank=0,
                               subchannel=0, column=0)
