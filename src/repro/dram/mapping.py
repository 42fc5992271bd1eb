"""Address mappings: row-to-subarray placement and address spaces.

Two distinct mappings live here:

1. :class:`RowToSubarrayMapping` -- how the DRAM device places *logical*
   row numbers into physical subarray positions (Section IV-D).  This is
   what decides whether coarse-grained filtering sees workload locality
   concentrated (Sequential) or spread out (Strided).

2. :class:`AddressSpace` -- how a workload source's *logical* trace
   coordinates land on the shared physical ``(subchannel, bank, row)``
   geometry.  Every tenant in a multi-tenant scenario gets its own
   address space, so co-located attacker and victim streams hit the
   same banks through different row mappings (the inter-VM setting).
   :class:`BitFieldDecoder` is the companion litex
   ``DRAMAddressConverter``-style codec used by trace ingestion to
   split raw byte addresses into those coordinates.

The reproduction works in terms of a bank-local **physical row index**
``p`` in ``[0, rows_per_bank)``: ``p // rows_per_subarray`` is the
subarray, ``p % rows_per_subarray`` the position inside it.  Rowhammer
adjacency (who hammers whom) is adjacency in ``p``, *not* in the logical
row number.
"""

from __future__ import annotations

import functools
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.params import DramGeometry


class RowToSubarrayMapping:
    """Base class: maps logical row numbers to physical row indices."""

    def __init__(self, geometry: DramGeometry = DramGeometry()) -> None:
        self.geometry = geometry

    def physical_index(self, row: int) -> int:
        """Bank-local physical row index of logical row ``row``."""
        raise NotImplementedError

    def physical_indices(self, rows: Sequence[int]) -> List[int]:
        """Physical indices of a batch of logical rows.

        Bulk twin of :meth:`physical_index` for the deferred-ACT paths;
        subclasses override it with hoisted geometry lookups.
        """
        return [self.physical_index(r) for r in rows]

    def logical_row(self, physical: int) -> int:
        """Inverse of :meth:`physical_index`."""
        raise NotImplementedError

    def logical_rows(self, start: int, end: int) -> List[int]:
        """Logical rows of the physical index range ``[start, end)``.

        The refresh scheduler sweeps contiguous physical ranges every
        tREFI; subclasses override this with closed-form bulk
        construction so the sweep does not pay a Python call per row.
        """
        return [self.logical_row(p) for p in range(start, end)]

    def subarray_of(self, row: int) -> int:
        """Subarray that logical row ``row`` physically lives in."""
        return self.physical_index(row) // self.geometry.rows_per_subarray

    def physical_neighbors(self, row: int, blast_radius: int = 2) -> List[int]:
        """Logical rows physically adjacent to ``row`` (the RH victims).

        Neighbours never cross a subarray boundary: subarrays are
        electrically isolated, so the blast radius is clamped at the
        subarray edge.
        """
        p = self.physical_index(row)
        sa = p // self.geometry.rows_per_subarray
        lo = sa * self.geometry.rows_per_subarray
        hi = lo + self.geometry.rows_per_subarray - 1
        neighbors = []
        for d in range(1, blast_radius + 1):
            if p - d >= lo:
                neighbors.append(self.logical_row(p - d))
            if p + d <= hi:
                neighbors.append(self.logical_row(p + d))
        return neighbors


class SequentialR2SA(RowToSubarrayMapping):
    """Consecutive logical rows fill a subarray before moving to the next.

    The identity mapping: logical row ``r`` sits at physical index ``r``.
    Workload locality over consecutive pages therefore lands in a handful
    of subarrays, defeating coarse-grained filtering (Table VI).
    """

    def physical_index(self, row: int) -> int:
        return row

    def physical_indices(self, rows: Sequence[int]) -> List[int]:
        return list(rows)

    def logical_row(self, physical: int) -> int:
        return physical

    def logical_rows(self, start: int, end: int) -> List[int]:
        return list(range(start, end))


class StridedR2SA(RowToSubarrayMapping):
    """Consecutive logical rows go to consecutive subarrays.

    Logical row ``r`` maps to subarray ``r % num_subarrays`` at position
    ``r // num_subarrays``: every ``num_subarrays``-th row shares a
    subarray.  Locality over consecutive pages is spread across all
    subarrays, which is what makes CGF effective (Table VI).

    The subarray count and size are bound once per mapping:
    :meth:`physical_index` runs on every ACT of a strided tracker.
    """

    def __init__(self, geometry: DramGeometry = DramGeometry()) -> None:
        super().__init__(geometry)
        self._num_sa = geometry.subarrays_per_bank
        self._rows_per_sa = geometry.rows_per_subarray

    def physical_index(self, row: int) -> int:
        num_sa = self._num_sa
        return (row % num_sa) * self._rows_per_sa + row // num_sa

    def physical_indices(self, rows: Sequence[int]) -> List[int]:
        num_sa = self._num_sa
        rows_per_sa = self._rows_per_sa
        return [(r % num_sa) * rows_per_sa + r // num_sa for r in rows]

    def logical_row(self, physical: int) -> int:
        rows_per_sa = self._rows_per_sa
        return (physical % rows_per_sa) * self._num_sa \
            + physical // rows_per_sa

    def logical_rows(self, start: int, end: int) -> List[int]:
        # Within one subarray the physical range is contiguous in
        # `position`, so the logical rows form an arithmetic sequence
        # with stride `subarrays_per_bank` -- build each segment with a
        # C-speed range() instead of per-row divmod arithmetic.
        rows_per_sa = self._rows_per_sa
        num_sa = self._num_sa
        out: List[int] = []
        p = start
        while p < end:
            subarray, position = divmod(p, rows_per_sa)
            seg_end = min(end, (subarray + 1) * rows_per_sa)
            first = position * num_sa + subarray
            out.extend(range(first, first + (seg_end - p) * num_sa,
                             num_sa))
            p = seg_end
        return out


_R2SA_KINDS = {"sequential": SequentialR2SA, "strided": StridedR2SA}


def mapping_for(kind: str, geometry: DramGeometry = DramGeometry()
                ) -> RowToSubarrayMapping:
    """The row-to-subarray mapping named ``kind`` (``"sequential"`` or
    ``"strided"``, as setups, filters and fuzz cells spell it) over
    ``geometry``; ``ValueError`` for any other name."""
    try:
        return _R2SA_KINDS[kind](geometry)
    except KeyError:
        raise ValueError(
            f"unknown row-to-subarray mapping {kind!r}; "
            f"expected one of {sorted(_R2SA_KINDS)}") from None


class AddressSpace:
    """Per-tenant translation of logical trace coordinates to geometry.

    Workload sources emit *logical* ``(subchannel, bank, row)`` tuples;
    an address space decides where those land physically.  Identity is
    the classic single-tenant case.  Non-identity spaces model distinct
    guest physical maps sharing one device: the translation is a
    bijection per coordinate (rows within a bank, banks within a
    subchannel), so two tenants never alias unless their spaces do.
    Rows and banks outside the geometry are reduced modulo the geometry
    first.
    """

    name = "identity"

    def __init__(self, geometry: DramGeometry = DramGeometry()) -> None:
        self.geometry = geometry

    def translate(self, subchannel: int, bank: int, row: int
                  ) -> Tuple[int, int, int]:
        """Physical ``(subchannel, bank, row)`` of one logical tuple."""
        raise NotImplementedError


class IdentityAddressSpace(AddressSpace):
    """Logical coordinates *are* physical coordinates (single tenant)."""

    name = "identity"

    def translate(self, subchannel: int, bank: int, row: int
                  ) -> Tuple[int, int, int]:
        return (subchannel, bank, row)


class StridedAddressSpace(AddressSpace):
    """Modular-affine row remap with an optional bank rotation.

    Logical row ``r`` lands at ``(r * stride + row_offset) % rows`` and
    logical bank ``b`` at ``(b + bank_offset) % banks``.  ``stride``
    must be odd: row counts are powers of two, so odd strides (and only
    odd strides) make the affine map a bijection.  A stride of 1 with a
    nonzero offset models a simple base-offset guest mapping; larger
    strides interleave a tenant's consecutive rows across the bank.
    """

    name = "strided"

    def __init__(self, geometry: DramGeometry = DramGeometry(),
                 stride: int = 1, row_offset: int = 0,
                 bank_offset: int = 0) -> None:
        super().__init__(geometry)
        if stride % 2 == 0:
            raise ValueError(
                f"stride must be odd for a bijective row map over a "
                f"power-of-two bank, got {stride}")
        self.stride = stride
        self.row_offset = row_offset
        self.bank_offset = bank_offset

    def translate(self, subchannel: int, bank: int, row: int
                  ) -> Tuple[int, int, int]:
        g = self.geometry
        return (subchannel,
                (bank + self.bank_offset) % g.banks_per_subchannel,
                (row * self.stride + self.row_offset) % g.rows_per_bank)


def _permutation_rng(seed: int) -> random.Random:
    # Mix the seed so spaces don't correlate with other consumers
    # of small integer seeds; int seeding is hash-stable across
    # processes (str/tuple seeding is not).
    return random.Random(0x5EED_AD0 ^ (seed * 0x9E37_79B1))


@functools.lru_cache(maxsize=4)
def _permutation_tables(rows_per_bank: int, banks_per_subchannel: int,
                        seed: int) -> Tuple[array, array]:
    """A permuted space's (row table, bank table), shuffled once per
    process: every tenant job of a scenario reuses a handful of seeds,
    and a row shuffle of a full bank costs far more than the job's
    other set-up.  Flat 4-byte arrays, so a full-bank row table holds
    0.5 MB; the spaces that share them only read them.  Four entries
    cover every scenario here (two seeds each) and bound what the
    process keeps."""
    rng = _permutation_rng(seed)
    row_table = _shuffled_range(rows_per_bank, rng)
    return row_table, _shuffled_range(banks_per_subchannel, rng)


@functools.lru_cache(maxsize=4)
def _bank_permutation(rows_per_bank: int, banks_per_subchannel: int,
                      seed: int) -> array:
    """The bank table of :func:`_permutation_tables` without its row
    table.  The bank shuffle draws right after the row shuffle, so
    making the row shuffle's draws and skipping its swaps leaves the
    rng where the bank shuffle expects it, in under a third of the
    time and with nothing kept per row.  Cached per process like the
    full tables."""
    rng = _permutation_rng(seed)
    getrandbits = rng.getrandbits
    for bits, bounds in _fisher_yates_bands(rows_per_bank):
        for i in bounds:
            while getrandbits(bits) > i:
                pass
    return _shuffled_range(banks_per_subchannel, rng)


def _fisher_yates_bands(n: int) -> Iterator[Tuple[int, range]]:
    """``(bits, descending i)`` per power-of-two band of a Fisher-Yates
    shuffle of ``n`` items: the bit width of the bound ``i + 1`` is
    constant over each band, so ``_randbelow(i + 1)`` draws
    ``getrandbits(bits)`` until the draw is at most ``i``."""
    top = n - 1
    for bits in range(n.bit_length(), 1, -1):
        low = (1 << (bits - 1)) - 1  # the smallest i with i+1 of this width
        yield bits, range(top, low - 1, -1)
        top = low - 1


def _shuffled_range(n: int, rng: random.Random) -> array:
    """``range(n)`` after ``rng.shuffle``, as a 4-byte array filled in
    place: the same Fisher-Yates swaps and the same ``getrandbits``
    draws (``_randbelow``'s rejection sampling), consuming ``rng``
    identically, but with the draws inline -- ``shuffle`` pays two
    Python calls per element."""
    table = array("I", range(n))
    getrandbits = rng.getrandbits
    for bits, bounds in _fisher_yates_bands(n):
        for i in bounds:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            table[i], table[j] = table[j], table[i]
    return table


class PermutedAddressSpace(AddressSpace):
    """Seeded pseudo-random bijection of rows and banks.

    A precomputed permutation table (one shuffle of ``rows_per_bank``
    entries, shared by all banks, plus a bank shuffle) models a guest
    whose physical frames were allocated with no structure at all --
    the adversarial placement for locality-based arguments.  The same
    seed always yields the same table, so results are reproducible and
    cacheable; distinct seeds give tenants disjoint-looking layouts.
    Spaces with the same geometry and seed share one table per process
    (:func:`_permutation_tables`); a caller that needs only the bank
    translation asks :meth:`AddressSpaceSpec.translate_bank`, which
    builds no row table.
    """

    name = "permuted"

    def __init__(self, geometry: DramGeometry = DramGeometry(),
                 seed: int = 0) -> None:
        super().__init__(geometry)
        self.seed = seed
        self._row_table, self._bank_table = _permutation_tables(
            geometry.rows_per_bank, geometry.banks_per_subchannel, seed)

    def translate(self, subchannel: int, bank: int, row: int
                  ) -> Tuple[int, int, int]:
        g = self.geometry
        return (subchannel,
                self._bank_table[bank % g.banks_per_subchannel],
                self._row_table[row % g.rows_per_bank])


@dataclass(frozen=True)
class AddressSpaceSpec:
    """Describable recipe for an :class:`AddressSpace`.

    Session jobs must be describable (plain comparable fields, no
    bound tables), so tenants and trace-replay jobs carry this spec
    and :meth:`build` the concrete space -- permutation tables and all
    -- at execution time.
    """

    kind: str = "identity"
    stride: int = 1
    row_offset: int = 0
    bank_offset: int = 0
    seed: int = 0

    def build(self, geometry: DramGeometry = DramGeometry()
              ) -> AddressSpace:
        """Instantiate the described space over ``geometry``."""
        return make_address_space(self, geometry)

    def translate_bank(self, subchannel: int, bank: int,
                       geometry: DramGeometry = DramGeometry()
                       ) -> Tuple[int, int]:
        """Physical ``(subchannel, bank)`` of a logical bank, as
        :meth:`build`'s ``translate`` gives it for any row; a permuted
        space's bank table is drawn without its row table."""
        if self.kind == "permuted":
            banks = geometry.banks_per_subchannel
            table = _bank_permutation(geometry.rows_per_bank, banks,
                                      self.seed)
            return subchannel, table[bank % banks]
        return self.build(geometry).translate(subchannel, bank, 0)[:2]


def make_address_space(spec: AddressSpaceSpec,
                       geometry: DramGeometry = DramGeometry()
                       ) -> AddressSpace:
    """Concrete address space for ``spec`` over ``geometry``."""
    if spec.kind == "identity":
        return IdentityAddressSpace(geometry)
    if spec.kind == "strided":
        return StridedAddressSpace(geometry, stride=spec.stride,
                                   row_offset=spec.row_offset,
                                   bank_offset=spec.bank_offset)
    if spec.kind == "permuted":
        return PermutedAddressSpace(geometry, seed=spec.seed)
    raise ValueError(
        f"unknown address-space kind {spec.kind!r}; expected one of "
        f"'identity', 'strided', 'permuted'")


class BitFieldDecoder:
    """litex ``DRAMAddressConverter``-style bit-field address codec.

    Splits a byte-granularity address into named DRAM coordinate
    fields laid out LSB-to-MSB after a fixed line-offset shift.  Trace
    ingestion uses it to turn DRAMSim3-style command addresses into
    native ``(subchannel, bank, row)`` tuples; :meth:`encode_bus` is
    the inverse, mirroring litex's ``converter.encode_bus(bank=...,
    row=..., col=...)`` idiom, and is what the test fixtures are built
    with.
    """

    def __init__(self, fields: Sequence[Tuple[str, int]],
                 line_bytes: int = 64) -> None:
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        for name, bits in fields:
            if bits <= 0:
                raise ValueError(
                    f"field {name!r} must span at least one bit")
        self.fields = tuple((str(name), int(bits))
                            for name, bits in fields)
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1

    @classmethod
    def for_geometry(cls, geometry: DramGeometry = DramGeometry(),
                     line_bytes: int = 64) -> "BitFieldDecoder":
        """The natural ``[column][subchannel][bank][row]`` layout.

        Column bits cover one row's cache lines, subchannel and bank
        bits sit above them, and row bits occupy the top -- the layout
        the repo's trace fixtures are encoded with.
        """
        lines_per_row = geometry.row_bytes // line_bytes
        return cls(
            fields=(
                ("column", (lines_per_row - 1).bit_length()),
                ("subchannel", (geometry.subchannels - 1).bit_length()),
                ("bank",
                 (geometry.banks_per_subchannel - 1).bit_length()),
                ("row", (geometry.rows_per_bank - 1).bit_length()),
            ),
            line_bytes=line_bytes)

    @property
    def width(self) -> int:
        """Total significant byte-address bits (fields + line offset)."""
        return sum(bits for _, bits in self.fields) + self._line_shift

    def decode(self, address: int) -> Dict[str, int]:
        """Field values of one byte address, keyed by field name."""
        value = address >> self._line_shift
        decoded: Dict[str, int] = {}
        for name, bits in self.fields:
            decoded[name] = value & ((1 << bits) - 1)
            value >>= bits
        return decoded

    def encode_bus(self, **field_values: int) -> int:
        """Byte address with the named fields set (inverse of decode).

        Unknown field names are rejected; omitted fields default to 0.
        """
        unknown = set(field_values) - {n for n, _ in self.fields}
        if unknown:
            raise ValueError(
                f"unknown field(s) {sorted(unknown)}; decoder has "
                f"{[n for n, _ in self.fields]}")
        value = 0
        for name, bits in reversed(self.fields):
            field = field_values.get(name, 0)
            if field >> bits:
                raise ValueError(
                    f"field {name!r} value {field} does not fit in "
                    f"{bits} bits")
            value = (value << bits) | field
        return value << self._line_shift
