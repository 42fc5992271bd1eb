"""Address mappings: MOP4 decoding, row-to-subarray, address spaces.

Three distinct mappings live here:

1. :class:`AddressMapping` -- how the memory controller splits a physical
   address into (subchannel, bank, row, column).  We implement the
   *Minimalist Open Page* (MOP) policy with 4 lines per row group, the
   best-performing policy for the paper's setup (Table III).

2. :class:`RowToSubarrayMapping` -- how the DRAM device places *logical*
   row numbers into physical subarray positions (Section IV-D).  This is
   what decides whether coarse-grained filtering sees workload locality
   concentrated (Sequential) or spread out (Strided).

3. :class:`AddressSpace` -- how a workload source's *logical* trace
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
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.params import DramGeometry


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address decoded into DRAM coordinates."""

    subchannel: int
    bank: int
    row: int
    column: int

    @property
    def global_bank(self) -> int:
        """Bank id unique across subchannels."""
        return self.subchannel * 1_000_000 + self.bank  # pragma: no cover


class AddressMapping:
    """MOP-style physical address to DRAM coordinate mapping.

    Bit layout from the least-significant line-address bit upward::

        [mop_lines bits: column low] [1 bit: subchannel] [bank bits]
        [column high bits] [row bits]

    Mapping ``mop_lines`` consecutive cache lines to the same row exploits
    short-range spatial locality, while striping groups across banks and
    subchannels recovers bank-level parallelism (MOP4 in the paper).
    """

    def __init__(self, geometry: DramGeometry = DramGeometry(),
                 line_bytes: int = 64, mop_lines: int = 4) -> None:
        if mop_lines & (mop_lines - 1):
            raise ValueError("mop_lines must be a power of two")
        self.geometry = geometry
        self.line_bytes = line_bytes
        self.mop_lines = mop_lines
        self._lines_per_row = geometry.row_bytes // line_bytes
        self._col_low_bits = mop_lines.bit_length() - 1
        self._subch_bits = (geometry.subchannels - 1).bit_length()
        self._bank_bits = (geometry.banks_per_subchannel - 1).bit_length()
        high_cols = self._lines_per_row // mop_lines
        self._col_high_bits = (high_cols - 1).bit_length()

    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte-granularity physical address."""
        line = address // self.line_bytes
        col_low = line & (self.mop_lines - 1)
        line >>= self._col_low_bits
        subch = line & ((1 << self._subch_bits) - 1)
        line >>= self._subch_bits
        bank = line & ((1 << self._bank_bits) - 1)
        line >>= self._bank_bits
        col_high = line & ((1 << self._col_high_bits) - 1)
        line >>= self._col_high_bits
        row = line % self.geometry.rows_per_bank
        column = (col_high << self._col_low_bits) | col_low
        return DecodedAddress(subchannel=subch, bank=bank, row=row,
                              column=column)

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (used by tests and attack kernels)."""
        col_low = decoded.column & (self.mop_lines - 1)
        col_high = decoded.column >> self._col_low_bits
        line = decoded.row
        line = (line << self._col_high_bits) | col_high
        line = (line << self._bank_bits) | decoded.bank
        line = (line << self._subch_bits) | decoded.subchannel
        line = (line << self._col_low_bits) | col_low
        return line * self.line_bytes


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

    def aggressors_of(self, victim_row: int, blast_radius: int = 2
                      ) -> List[int]:
        """Logical rows whose activation disturbs ``victim_row``.

        Physical adjacency is symmetric, so this equals
        :meth:`physical_neighbors`.
        """
        return self.physical_neighbors(victim_row, blast_radius)


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
    """

    def physical_index(self, row: int) -> int:
        g = self.geometry
        subarray = row % g.subarrays_per_bank
        position = row // g.subarrays_per_bank
        return subarray * g.rows_per_subarray + position

    def physical_indices(self, rows: Sequence[int]) -> List[int]:
        g = self.geometry
        num_sa = g.subarrays_per_bank
        rows_per_sa = g.rows_per_subarray
        return [(r % num_sa) * rows_per_sa + r // num_sa for r in rows]

    def logical_row(self, physical: int) -> int:
        g = self.geometry
        subarray = physical // g.rows_per_subarray
        position = physical % g.rows_per_subarray
        return position * g.subarrays_per_bank + subarray

    def logical_rows(self, start: int, end: int) -> List[int]:
        # Within one subarray the physical range is contiguous in
        # `position`, so the logical rows form an arithmetic sequence
        # with stride `subarrays_per_bank` -- build each segment with a
        # C-speed range() instead of per-row divmod arithmetic.
        g = self.geometry
        rows_per_sa = g.rows_per_subarray
        num_sa = g.subarrays_per_bank
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


@functools.lru_cache(maxsize=4)
def _permutation_tables(rows_per_bank: int, banks_per_subchannel: int,
                        seed: int) -> Tuple[Tuple[int, ...],
                                            Tuple[int, ...]]:
    """A permuted space's (row table, bank table), shuffled once per
    process: every tenant job of a scenario reuses a handful of seeds,
    and a row shuffle of a full bank costs far more than the job's
    other set-up.  Immutable tuples, so sharing them is safe.  Four
    entries cover every scenario here (two seeds each) and bound what
    the process keeps: a full-bank row table holds ~5 MB."""
    # Mix the seed so spaces don't correlate with other consumers
    # of small integer seeds; int seeding is hash-stable across
    # processes (str/tuple seeding is not).
    rng = random.Random(0x5EED_AD0 ^ (seed * 0x9E37_79B1))
    row_table = list(range(rows_per_bank))
    rng.shuffle(row_table)
    bank_table = list(range(banks_per_subchannel))
    rng.shuffle(bank_table)
    return tuple(row_table), tuple(bank_table)


class PermutedAddressSpace(AddressSpace):
    """Seeded pseudo-random bijection of rows and banks.

    A precomputed permutation table (one shuffle of ``rows_per_bank``
    entries, shared by all banks, plus a bank shuffle) models a guest
    whose physical frames were allocated with no structure at all --
    the adversarial placement for locality-based arguments.  The same
    seed always yields the same table, so results are reproducible and
    cacheable; distinct seeds give tenants disjoint-looking layouts.
    Spaces with the same geometry and seed share one table per process.
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
