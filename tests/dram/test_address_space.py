"""Tests for the logical->physical AddressSpace translation layer."""

import pytest

from repro.dram.mapping import (
    AddressSpaceSpec,
    BitFieldDecoder,
    IdentityAddressSpace,
    PermutedAddressSpace,
    StridedAddressSpace,
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
