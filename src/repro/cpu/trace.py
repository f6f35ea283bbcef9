"""Trace events: the execution substrate's instruction stream.

Workloads are streams of trace events; the engine interprets them.
Three event kinds:

* :class:`MemAccess` -- one memory instruction, optionally preceded by
  ``work`` non-memory instructions (so line-granular trace generation
  can account for the arithmetic it elides).
* :class:`Work` -- a block of non-memory instructions.
* :class:`XMemOp` -- one XMemLib call, executed against the bound
  library *at its position in the stream*, so atom mappings and
  activations take effect exactly when the program would issue them.
  The call is stored by name + arguments, keeping traces serializable.

Traces run to millions of events, and two representations coexist:

* The **object stream** -- any iterable of the three event classes.
  This is the debugging/compatibility form: events are inspectable,
  comparable, and trivially composed with generator tooling.
* The **packed columnar form** -- :class:`PackedTrace`.  The dense
  ``MemAccess``/``Work`` stream lives in two parallel ``array('q')``
  columns (``vaddr`` and a flag word, see :data:`META` below) with the
  rare ``XMemOp`` events in a sparse side-table of ``(index, op)``
  pairs.  No event objects exist at all: the engine decodes the
  columns directly (:mod:`repro.cpu.vector_engine`), serialization is
  ``tobytes()``/``frombytes()`` (a memcpy instead of per-event object
  construction), and pickling to worker processes is equally cheap.
  :class:`TraceBuilder` is the append-side of the format -- the
  polybench generators pack their streams directly into it.

Line-granular streams are appended as **segments**: one row
``(start, end, work_per_elem, write)`` per contiguous byte range
``[start, end)``, held in the builder's pending segment table and
expanded by numpy into one access per :data:`LINE`-byte line the range
touches.  A line's address is ``max(line, start)`` and its work is
``work_per_elem`` per :data:`ELEM`-byte element of the range inside it,
so a partial first or last line carries only its own elements.  The
table is expanded, in slices of at most :data:`FLUSH_LINES` lines,
before every other dense append (``access``, ``work``), when a column
is read (``vaddr``/``meta``, ``len``, ``build``), and whenever it
holds more than :data:`FLUSH_LINES` lines -- so the stream order is
that of appending each line as it comes.  An XMem op (``op``) expands
nothing: the table counts its lines exactly, so the op's position is
the expanded length plus the pending lines.

Flag-word encoding (``meta`` column, one 64-bit word per dense event)::

    bit 0      is_write   (MemAccess only)
    bit 1      kind       (0 = MemAccess, 1 = Work)
    bits 2..   work count (MemAccess: elided ALU work;
                           Work: instruction count)

``PackedTrace.events()`` reconstructs the object stream on demand, so
every object-path consumer keeps working on a packed trace.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import ConfigurationError


class MemAccess:
    """One memory reference (plus optional preceding ALU work)."""

    __slots__ = ("vaddr", "is_write", "work")

    def __init__(self, vaddr: int, is_write: bool = False,
                 work: int = 0) -> None:
        self.vaddr = vaddr
        self.is_write = is_write
        self.work = work

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"MemAccess({kind} {self.vaddr:#x}, work={self.work})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, MemAccess)
                and (self.vaddr, self.is_write, self.work)
                == (other.vaddr, other.is_write, other.work))

    def __hash__(self) -> int:
        return hash((MemAccess, self.vaddr, self.is_write, self.work))


class Work:
    """``count`` non-memory instructions."""

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        self.count = count

    def __repr__(self) -> str:
        return f"Work({self.count})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Work) and self.count == other.count

    def __hash__(self) -> int:
        return hash((Work, self.count))


class XMemOp:
    """One XMemLib call embedded in the instruction stream.

    ``method`` names an :class:`repro.core.xmemlib.XMemLib` method
    (e.g., ``"atom_map"``); ``args`` are its positional arguments.
    Engines without a bound XMemLib skip these events entirely -- the
    baseline system running an XMem-instrumented binary.
    """

    __slots__ = ("method", "args")

    def __init__(self, method: str, *args) -> None:
        self.method = method
        self.args = args

    def __repr__(self) -> str:
        return f"XMemOp({self.method}{self.args})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, XMemOp)
                and (self.method, self.args) == (other.method, other.args))

    def __hash__(self) -> int:
        return hash((XMemOp, self.method, self.args))


TraceEvent = Union[MemAccess, Work, XMemOp]
Trace = Iterable[TraceEvent]


#: Flag-word layout of the packed ``meta`` column.
META_WRITE_BIT = 0x1   # MemAccess: is_write
META_WORK_BIT = 0x2    # event kind: set = Work, clear = MemAccess
META_COUNT_SHIFT = 2   # work / count field

#: Segment expansion granularity: segments split at ``LINE``-byte
#: boundaries, and work counts ``ELEM``-byte elements.
LINE = 64
ELEM = 8
#: Pending lines past which the segment table is expanded, and the
#: most lines one expansion slice materializes (a longer segment is a
#: slice of its own).  Bounds the numpy temporaries of an expansion.
FLUSH_LINES = 16384


class PackedTrace:
    """A trace in packed columnar form.

    ``vaddr`` and ``meta`` are parallel ``array('q')`` columns holding
    the dense :class:`MemAccess`/:class:`Work` stream (``vaddr`` is 0
    for Work events); ``xmem`` is a sparse, index-sorted tuple of
    ``(position, XMemOp)`` pairs where ``position`` is the dense index
    *before* which the op executes (``len(vaddr)`` for trailing ops).

    The columns are the engine's zero-object fast path; the class is
    also iterable as an object stream via :meth:`events`, so it is a
    drop-in trace for every object-path consumer.
    """

    __slots__ = ("vaddr", "meta", "xmem")

    def __init__(self, vaddr: Optional[array] = None,
                 meta: Optional[array] = None,
                 xmem: Tuple[Tuple[int, XMemOp], ...] = ()) -> None:
        self.vaddr = vaddr if vaddr is not None else array("q")
        self.meta = meta if meta is not None else array("q")
        self.xmem = tuple(xmem)

    @classmethod
    def from_events(cls, events: Trace) -> "PackedTrace":
        """Pack an object stream (compat path; see TraceBuilder)."""
        builder = TraceBuilder()
        builder.extend(events)
        return builder.build()

    def __len__(self) -> int:
        """Dense (MemAccess + Work) event count."""
        return len(self.vaddr)

    @property
    def num_events(self) -> int:
        """Total event count, XMem side-table included."""
        return len(self.vaddr) + len(self.xmem)

    def events(self) -> Iterator[TraceEvent]:
        """Reconstruct the object stream (the compatibility path)."""
        vbuf = self.vaddr
        mbuf = self.meta
        pos = 0
        for idx, op in self.xmem:
            while pos < idx:
                m = mbuf[pos]
                if m & META_WORK_BIT:
                    yield Work(m >> META_COUNT_SHIFT)
                else:
                    yield MemAccess(vbuf[pos], bool(m & META_WRITE_BIT),
                                    m >> META_COUNT_SHIFT)
                pos += 1
            yield op
        end = len(vbuf)
        while pos < end:
            m = mbuf[pos]
            if m & META_WORK_BIT:
                yield Work(m >> META_COUNT_SHIFT)
            else:
                yield MemAccess(vbuf[pos], bool(m & META_WRITE_BIT),
                                m >> META_COUNT_SHIFT)
            pos += 1

    __iter__ = events

    def without_xmem(self) -> "PackedTrace":
        """This trace with the side-table dropped (the baseline view).

        Shares the column buffers -- stripping a packed trace is O(1),
        no copy, because the dense stream *is* the baseline program.
        """
        if not self.xmem:
            return self
        return PackedTrace(self.vaddr, self.meta, ())

    def truncated(self, n: int) -> "PackedTrace":
        """The first ``n`` dense events (side-table ops at positions
        <= ``n`` kept, so head-of-trace atom setup survives).

        Lets a long recorded stream (e.g. a compiled scenario) serve
        as a fixed-length co-run tenant without recompiling.
        """
        if n >= len(self.vaddr):
            return self
        return PackedTrace(self.vaddr[:n], self.meta[:n],
                           tuple((i, op) for i, op in self.xmem
                                 if i <= n))

    def counts(self) -> Tuple[int, int, int]:
        """(memory, work-instr, xmem-op) counts, column-scan only."""
        mem = work = 0
        for m in self.meta:
            if m & META_WORK_BIT:
                work += m >> META_COUNT_SHIFT
            else:
                mem += 1
                work += m >> META_COUNT_SHIFT
        return mem, work, len(self.xmem)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PackedTrace)
                and self.vaddr == other.vaddr
                and self.meta == other.meta
                and self.xmem == other.xmem)

    def __repr__(self) -> str:
        return (f"PackedTrace({len(self.vaddr)} dense events, "
                f"{len(self.xmem)} xmem ops)")


class TraceBuilder:
    """Append-side of the packed format.

    Generators call :meth:`access`/:meth:`work`/:meth:`op` (or feed
    whole object streams through :meth:`extend`), and append
    line-granular ranges through :meth:`segment`/:meth:`segments`;
    :meth:`build` returns the finished :class:`PackedTrace`.  Reading
    the ``vaddr``/``meta`` columns expands pending segments first, so
    code that appends to the columns directly keeps the stream order.
    """

    __slots__ = ("_vaddr", "_meta", "xmem", "_seg", "_seg_lines")

    def __init__(self) -> None:
        self._vaddr = array("q")
        self._meta = array("q")
        self.xmem: List[Tuple[int, XMemOp]] = []
        #: Pending segment table: flat (start, end, work_per_elem,
        #: write bit) rows, and the lines they expand to.
        self._seg = array("q")
        self._seg_lines = 0

    @property
    def vaddr(self) -> array:
        """The address column (pending segments expanded first)."""
        if self._seg:
            self.flush()
        return self._vaddr

    @property
    def meta(self) -> array:
        """The flag-word column (pending segments expanded first)."""
        if self._seg:
            self.flush()
        return self._meta

    def access(self, vaddr: int, is_write: bool = False,
               work: int = 0) -> None:
        """Append one memory access (a negative address is refused)."""
        if vaddr < 0:
            raise ConfigurationError(f"negative address {vaddr:#x}")
        if self._seg:
            self.flush()
        self._vaddr.append(vaddr)
        self._meta.append((work << META_COUNT_SHIFT)
                          | (META_WRITE_BIT if is_write else 0))

    def work(self, count: int) -> None:
        """Append a block of non-memory instructions."""
        if self._seg:
            self.flush()
        self._vaddr.append(0)
        self._meta.append((count << META_COUNT_SHIFT) | META_WORK_BIT)

    def op(self, xmem_op: XMemOp) -> None:
        """Append one XMemLib call at the current stream position:
        after the expanded columns and the lines still pending in the
        segment table (an exact count, so nothing is expanded here)."""
        self.xmem.append((len(self._vaddr) + self._seg_lines, xmem_op))

    def segment(self, start: int, end: int, work_per_elem: int,
                write: bool = False) -> None:
        """Append the bytes ``[start, end)`` as one access per line
        they touch (see the module docstring; ``start <= end``)."""
        self._seg.fromlist([start, end, work_per_elem,
                            META_WRITE_BIT if write else 0])
        # _line_counts, inlined on the per-row hot path.
        self._seg_lines += (end - (start & -LINE) + LINE - 1) // LINE
        if self._seg_lines > FLUSH_LINES:
            self.flush()

    def segments(self, table: np.ndarray) -> None:
        """Append a ``(k, 4)`` int64 table of :meth:`segment` rows
        ``(start, end, work_per_elem, write bit)``, in stream order."""
        self._seg.frombytes(
            np.ascontiguousarray(table, dtype=np.int64).view(np.uint8))
        self._seg_lines += int(_line_counts(table[:, 0],
                                            table[:, 1]).sum())
        if self._seg_lines > FLUSH_LINES:
            self.flush()

    def flush(self) -> None:
        """Expand the pending segment table into the columns, in
        slices of at most :data:`FLUSH_LINES` lines."""
        if not self._seg:
            return
        table = np.frombuffer(self._seg, dtype=np.int64).reshape(-1, 4)
        self._seg = array("q")
        self._seg_lines = 0
        lines = _line_counts(table[:, 0], table[:, 1])
        upto = np.cumsum(lines)
        lo = 0
        while lo < len(table):
            base = upto[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(
                upto, base + FLUSH_LINES, side="right")))
            self._expand(table[lo:hi], lines[lo:hi])
            lo = hi

    def _expand(self, table: np.ndarray, lines: np.ndarray) -> None:
        """Append the accesses of one slice of segments."""
        total = int(lines.sum())
        if not total:
            return
        start, end, wpe, wbit = table.T
        # Line address: the segment's first line, plus LINE per line
        # already emitted for it.
        first = (start & -LINE) - LINE * (np.cumsum(lines) - lines)
        line = np.repeat(first, lines) + LINE * np.arange(total)
        lo = np.maximum(line, np.repeat(start, lines))
        hi = np.minimum(line + LINE, np.repeat(end, lines))
        meta = ((((hi - lo) // ELEM) * np.repeat(wpe, lines))
                << META_COUNT_SHIFT) | np.repeat(wbit, lines)
        self._vaddr.frombytes(lo.view(np.uint8))
        self._meta.frombytes(meta.view(np.uint8))

    def add(self, ev: TraceEvent) -> None:
        """Append one object event (compat path)."""
        kind = type(ev)
        if kind is MemAccess:
            self.access(ev.vaddr, ev.is_write, ev.work)
        elif kind is Work:
            self.work(ev.count)
        elif kind is XMemOp:
            self.op(ev)
        else:
            raise TypeError(f"not a trace event: {ev!r}")

    def extend(self, events: Trace) -> None:
        """Append a whole object stream (compat path)."""
        for ev in events:
            self.add(ev)

    def __len__(self) -> int:
        return len(self.vaddr) + len(self.xmem)

    def build(self) -> PackedTrace:
        """Finish: the packed trace (builder may keep being appended)."""
        return PackedTrace(self.vaddr, self.meta, tuple(self.xmem))


def _line_counts(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Lines each segment ``[start, end)`` expands to."""
    return (end - (start & -LINE) + LINE - 1) // LINE


def count_events(trace: Trace) -> Tuple[int, int, int]:
    """(memory, work-instr, xmem-op) counts -- consumes the trace."""
    if isinstance(trace, PackedTrace):
        return trace.counts()
    mem = work = xmem = 0
    for ev in trace:
        if isinstance(ev, MemAccess):
            mem += 1
            work += ev.work
        elif isinstance(ev, Work):
            work += ev.count
        elif isinstance(ev, XMemOp):
            xmem += 1
        else:
            raise TypeError(f"not a trace event: {ev!r}")
    return mem, work, xmem


def strip_xmem(trace: Trace):
    """Drop XMem operations from a trace (build a plain baseline run).

    Because XMem is hint-only, the remaining stream is exactly the
    program the baseline system executes.  On a :class:`PackedTrace`
    this is O(1): the side-table is dropped and the shared columns
    returned as a new packed trace; object streams filter lazily.
    """
    if isinstance(trace, PackedTrace):
        return trace.without_xmem()
    return (ev for ev in trace if not isinstance(ev, XMemOp))
