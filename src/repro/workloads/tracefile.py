"""Trace ingestion: bring-your-own-trace support for real DRAM traces.

Users with real miss traces (from a cache simulator, a pintool, or
DRAMSim-style front ends) can run them through the full system instead
of the synthetic generators.  The *native* format is deliberately
trivial -- one whitespace-separated record per line::

    <compute_ps> <instructions> <subchannel> <bank> <row>

with ``#`` comments and blank lines ignored.  Round-trips exactly.
Leading ``# key: value`` comment lines carry optional metadata (for
example ``# workload: tc``, the Table IV spec a converted trace claims
to represent); :func:`trace_metadata` reads them back.

Two external formats convert into the native one (streaming, via
:func:`convert_trace` or the ``repro trace convert`` CLI verb):

* **dramsim3** -- DRAMSim3-style command traces, one
  ``<address> <READ|WRITE|...> <cycle>`` record per line; addresses
  are split into coordinates by a litex-style
  :class:`~repro.dram.mapping.BitFieldDecoder` and inter-command cycle
  deltas become compute gaps.
* **litex-rows** -- litex rowhammer-tester payload row lists, one row
  number per line, replayed as back-to-back activations to one bank.

All readers and writers accept ``.gz`` paths transparently, and parse
errors name the source path so multi-file sweeps stay debuggable.
"""

from __future__ import annotations

import gzip
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, \
    Tuple, Union

from repro.cpu.trace import ChunkSource, TraceEntry, chunk_entries
from repro.dram.mapping import BitFieldDecoder
from repro.params import DramGeometry, SystemConfig

_FIELDS = 5

#: Formats ``convert_trace`` understands (plus ``"auto"`` detection).
TRACE_FORMATS = ("native", "dramsim3", "litex-rows")

#: Default DRAM command clock period for dramsim3 cycle stamps
#: (DDR5-like ~1.2 GHz command clock).
DEFAULT_CYCLE_PS = 833


def _display_name(source: Union[str, TextIO]) -> str:
    """Human-readable source name for error messages."""
    if isinstance(source, str):
        return source
    return getattr(source, "name", None) or "<stream>"


def _open_text(source: Union[str, TextIO], mode: str
               ) -> Tuple[TextIO, bool]:
    """Open a path (gzip-aware) or pass a handle through.

    Returns ``(handle, owned)``; only owned handles are closed by the
    caller.  Compression is keyed purely on the ``.gz`` suffix, so
    compressed traces need no flag anywhere in the stack.
    """
    if not isinstance(source, str):
        return source, False
    if source.endswith(".gz"):
        return gzip.open(source, mode + "t"), True
    return open(source, mode), True


def write_trace(entries: Iterable[TraceEntry],
                target: Union[str, TextIO],
                metadata: Optional[Dict[str, str]] = None) -> int:
    """Write entries to a path (``.gz``-aware) or file object.

    ``metadata`` key/value pairs are emitted as leading ``# key: value``
    comment lines that :func:`trace_metadata` reads back.  Returns the
    entry count.
    """
    handle, own = _open_text(target, "w")
    count = 0
    try:
        handle.write("# compute_ps instructions subchannel bank row\n")
        for key, value in (metadata or {}).items():
            handle.write(f"# {key}: {value}\n")
        for entry in entries:
            handle.write(f"{entry.compute_ps} {entry.instructions} "
                         f"{entry.subchannel} {entry.bank} "
                         f"{entry.row}\n")
            count += 1
    finally:
        if own:
            handle.close()
    return count


def read_trace(source: Union[str, TextIO]) -> Iterator[TraceEntry]:
    """Lazily parse a native trace from a path (``.gz``-aware) or
    file object."""
    name = _display_name(source)
    handle, own = _open_text(source, "r")
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != _FIELDS:
                raise ValueError(
                    f"{name}: line {lineno}: expected {_FIELDS} "
                    f"fields, got {len(parts)}: {line!r}")
            try:
                values = [int(p) for p in parts]
            except ValueError:
                raise ValueError(
                    f"{name}: line {lineno}: non-integer field in "
                    f"{line!r}") from None
            compute, instructions, subch, bank, row = values
            if compute < 0 or instructions < 0 or subch < 0 \
                    or bank < 0 or row < 0:
                raise ValueError(
                    f"{name}: line {lineno}: negative field in "
                    f"{line!r}")
            yield TraceEntry(compute_ps=compute,
                             instructions=instructions,
                             subchannel=subch, bank=bank, row=row)
    finally:
        if own:
            handle.close()


def trace_metadata(source: Union[str, TextIO]) -> Dict[str, str]:
    """``# key: value`` metadata from a native trace's comment header.

    Stops at the first non-comment line, so the whole file is never
    read.  Comment lines without a colon (like the column-name banner)
    are skipped.
    """
    handle, own = _open_text(source, "r")
    meta: Dict[str, str] = {}
    try:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                break
            body = line.lstrip("#").strip()
            if ":" not in body:
                continue
            key, _, value = body.partition(":")
            meta[key.strip()] = value.strip()
    finally:
        if own:
            handle.close()
    return meta


def load_trace(source: Union[str, TextIO]) -> List[TraceEntry]:
    """Materialise a whole native trace file."""
    return list(read_trace(source))


def read_dramsim3_trace(source: Union[str, TextIO],
                        decoder: Optional[BitFieldDecoder] = None,
                        geometry: DramGeometry = DramGeometry(),
                        cycle_ps: int = DEFAULT_CYCLE_PS,
                        instructions: int = 1
                        ) -> Iterator[TraceEntry]:
    """Lazily ingest a DRAMSim3-style command trace.

    Each record is ``<address> <command> <cycle>`` -- a hex (or
    decimal) byte address, an opcode such as ``READ``/``WRITE`` (kept
    only as documentation; every record becomes one memory request),
    and a non-decreasing issue cycle.  Inter-record cycle deltas times
    ``cycle_ps`` become the native ``compute_ps`` gaps, and every
    record retires ``instructions`` instructions, which is how a
    converted trace encodes the MPKI it claims.
    """
    name = _display_name(source)
    if decoder is None:
        decoder = BitFieldDecoder.for_geometry(geometry)
    handle, own = _open_text(source, "r")
    last_cycle: Optional[int] = None
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{name}: line {lineno}: expected 3 fields "
                    f"(address command cycle), got {len(parts)}: "
                    f"{line!r}")
            try:
                address = int(parts[0], 0)
                cycle = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"{name}: line {lineno}: non-integer address or "
                    f"cycle in {line!r}") from None
            if address < 0 or cycle < 0:
                raise ValueError(
                    f"{name}: line {lineno}: negative field in "
                    f"{line!r}")
            if last_cycle is not None and cycle < last_cycle:
                raise ValueError(
                    f"{name}: line {lineno}: cycle {cycle} goes "
                    f"backwards (previous {last_cycle})")
            delta = cycle - (last_cycle
                             if last_cycle is not None else cycle)
            last_cycle = cycle
            coords = decoder.decode(address)
            yield TraceEntry(compute_ps=delta * cycle_ps,
                             instructions=instructions,
                             subchannel=coords.get("subchannel", 0),
                             bank=coords.get("bank", 0),
                             row=coords.get("row", 0))
    finally:
        if own:
            handle.close()


def read_litex_rows(source: Union[str, TextIO],
                    bank: int = 0, subchannel: int = 0,
                    compute_ps: int = 0, instructions: int = 1
                    ) -> Iterator[TraceEntry]:
    """Lazily ingest a litex rowhammer-tester payload row list.

    One decimal (or hex) row number per line -- the row lists fed to
    ``generate_payload_from_row_list`` -- replayed as back-to-back
    activations against a single ``(subchannel, bank)``, the hammering
    access pattern the payload executes.
    """
    name = _display_name(source)
    handle, own = _open_text(source, "r")
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = int(line.split()[0], 0)
            except ValueError:
                raise ValueError(
                    f"{name}: line {lineno}: non-integer row in "
                    f"{line!r}") from None
            if row < 0:
                raise ValueError(
                    f"{name}: line {lineno}: negative row in {line!r}")
            yield TraceEntry(compute_ps=compute_ps,
                             instructions=instructions,
                             subchannel=subchannel, bank=bank, row=row)
    finally:
        if own:
            handle.close()


def detect_format(path: str) -> str:
    """Guess the trace format of ``path`` from its suffix.

    ``.trace`` means native, ``.ds3``/``.dramsim3`` mean dramsim3,
    ``.rows``/``.litex`` mean litex-rows; anything else defaults to
    native (the round-trippable format).  A trailing ``.gz`` is
    ignored.
    """
    name = path[:-3] if path.endswith(".gz") else path
    if name.endswith((".ds3", ".dramsim3")):
        return "dramsim3"
    if name.endswith((".rows", ".litex")):
        return "litex-rows"
    return "native"


def open_ingest(source: Union[str, TextIO], fmt: str = "auto",
                decoder: Optional[BitFieldDecoder] = None,
                geometry: DramGeometry = DramGeometry(),
                cycle_ps: int = DEFAULT_CYCLE_PS,
                instructions: int = 1, bank: int = 0,
                subchannel: int = 0) -> Iterator[TraceEntry]:
    """Streaming reader for any supported trace format.

    ``fmt="auto"`` detects from the path suffix (handles must name a
    concrete format).  The per-format keyword arguments are ignored by
    formats that don't use them.
    """
    if fmt == "auto":
        if not isinstance(source, str):
            raise ValueError(
                "fmt='auto' needs a path to sniff; pass an explicit "
                "format for file objects")
        fmt = detect_format(source)
    if fmt == "native":
        return read_trace(source)
    if fmt == "dramsim3":
        return read_dramsim3_trace(source, decoder=decoder,
                                   geometry=geometry,
                                   cycle_ps=cycle_ps,
                                   instructions=instructions)
    if fmt == "litex-rows":
        return read_litex_rows(source, bank=bank,
                               subchannel=subchannel,
                               instructions=instructions)
    raise ValueError(
        f"unknown trace format {fmt!r}; expected one of "
        f"{TRACE_FORMATS + ('auto',)}")


def convert_trace(source: Union[str, TextIO],
                  target: Union[str, TextIO], fmt: str = "auto",
                  workload: Optional[str] = None,
                  decoder: Optional[BitFieldDecoder] = None,
                  geometry: DramGeometry = DramGeometry(),
                  cycle_ps: int = DEFAULT_CYCLE_PS,
                  instructions: int = 1, bank: int = 0,
                  subchannel: int = 0) -> int:
    """Convert an external trace into the native format, streaming.

    Entries are piped reader-to-writer one at a time, so arbitrarily
    large traces convert in constant memory.  ``workload`` (the Table
    IV spec name the trace claims to represent) is recorded as
    ``# workload:`` metadata for the calibration check to find.
    Returns the converted entry count.
    """
    entries = open_ingest(source, fmt=fmt, decoder=decoder,
                          geometry=geometry, cycle_ps=cycle_ps,
                          instructions=instructions, bank=bank,
                          subchannel=subchannel)
    metadata: Dict[str, str] = {}
    if workload:
        metadata["workload"] = workload
    if isinstance(source, str):
        metadata["source"] = source
    return write_trace(entries, target, metadata=metadata)


def calibration_report(result, spec, rel_tol: float = 0.5
                       ) -> List[Tuple[str, float, float, bool]]:
    """Measured-vs-spec calibration rows for a replayed trace.

    ``result`` is a :class:`~repro.cpu.system.SimResult` from replaying
    the trace; ``spec`` is the :class:`~repro.workloads.WorkloadSpec`
    the trace claims to represent.  Returns ``(label, measured, paper,
    ok)`` rows for MPKI and ACT-PKI, ``ok`` meaning within ``rel_tol``
    of the Table IV value -- the same tolerance the experiment
    framework's ``Check`` uses.
    """
    kilo = sum(result.instructions) / 1000.0
    kilo = kilo if kilo > 0 else 1.0
    rows = [
        ("MPKI", result.total_requests / kilo, spec.l3_mpki),
        ("ACT-PKI", result.total_activations / kilo, spec.act_pki),
    ]
    return [(label, measured, paper,
             abs(measured - paper) <= rel_tol * abs(paper))
            for label, measured, paper in rows]


class TraceFileWorkload:
    """A recorded trace as a :class:`repro.workloads.WorkloadSource`.

    Wraps a trace file (or pre-loaded entries) so real miss traces plug
    into :func:`repro.cpu.system.MultiCoreSystem` -- and any code
    written against the :class:`~repro.workloads.WorkloadSource` seam
    -- exactly like the synthetic generators do.  Each of
    ``shard_cores`` cores replays its own contiguous slice of the trace
    once, which preserves each slice's row-burst structure and so keeps
    a converted trace's ACT-PKI honest under multi-core replay.
    """

    def __init__(self, source: Union[str, TextIO, List[TraceEntry]],
                 mlp: int = 8,
                 shard_cores: Optional[int] = None) -> None:
        self.entries = source if isinstance(source, list) \
            else load_trace(source)
        self.mlp = mlp
        self._shard_cores = shard_cores or SystemConfig().num_cores

    def shard(self, num_cores: int, core_id: int) -> List[TraceEntry]:
        """Core ``core_id``'s contiguous shard of the trace."""
        n = len(self.entries)
        lo = n * core_id // num_cores
        hi = n * (core_id + 1) // num_cores
        return self.entries[lo:hi]

    def chunk_source(self, core_id: int) -> ChunkSource:
        """One core's shard, chunked for :class:`repro.cpu.core.Core`."""
        return chunk_entries(self.shard(self._shard_cores, core_id))
