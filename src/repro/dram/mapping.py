"""Physical-address -> DRAM coordinate mapping schemes.

DRAMSim2 ships seven address-mapping schemes (field-order permutations
of channel/rank/bank/row/column); the paper strengthens its baseline by
picking the best performer among those seven plus the two
permutation-based schemes of Zhang et al. [106] and the minimalist
open-page mapping [107] (Section 6.3).  This module implements all
nine, plus ``xmem_interleaved`` -- this reproduction's channel-
interleaved, bank-pure scheme for page-granular placement.

An address is decomposed low-to-high into a sequence of bit fields; a
scheme is the order of those fields.  The column field is split into
``col_low`` (the 64 B line offset within a burst group, always lowest,
so consecutive lines stream within a row) and ``col_high``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core.errors import ConfigurationError


def _log2(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, "
                                 f"got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class DramGeometry:
    """Physical organization of the DRAM system (Table 3 defaults)."""

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_bytes: int = 8192
    capacity_bytes: int = 1 << 30
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for field_name in ("channels", "ranks_per_channel", "banks_per_rank",
                           "row_bytes", "capacity_bytes", "line_bytes"):
            _log2(getattr(self, field_name), field_name)
        if self.row_bytes % self.line_bytes:
            raise ConfigurationError("row must hold whole lines")

    @property
    def total_banks(self) -> int:
        """Banks across all channels and ranks."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def rows_per_bank(self) -> int:
        """Rows each bank holds, derived from total capacity."""
        return self.capacity_bytes // (self.total_banks * self.row_bytes)

    @property
    def lines_per_row(self) -> int:
        """64 B lines per row (the column space)."""
        return self.row_bytes // self.line_bytes


class DramAddress(NamedTuple):
    """One decomposed physical address; orders as (bank key, row, col)."""

    channel: int
    rank: int
    bank: int
    row: int
    col: int

    @property
    def bank_key(self) -> Tuple[int, int, int]:
        """Globally unique (channel, rank, bank) triple."""
        return self[:3]


class AddressMapping:
    """Base: map a physical line address to DRAM coordinates."""

    name = "abstract"

    def __init__(self, geometry: DramGeometry) -> None:
        self.geometry = geometry

    def decompose(self, paddr: int) -> DramAddress:
        raise NotImplementedError


class FieldOrderMapping(AddressMapping):
    """A scheme defined purely by the low-to-high order of bit fields.

    ``order`` lists fields from least-significant upward; ``offset``
    (the 64 B line offset) is implicitly lowest and ignored.
    Recognized fields: ``col_low``, ``col_high``, ``channel``, ``rank``,
    ``bank``, ``row``.  ``col_low`` must appear below ``col_high``.

    The order is compiled once, here, into per-field shift/mask
    constants, and ``decompose`` is a straight-line function of them.
    The fields together span exactly ``capacity_bytes``, so an address
    beyond capacity aliases onto ``paddr % capacity_bytes``.
    """

    #: Lines kept consecutive within col_low before other fields rotate.
    COL_LOW_LINES = 8

    #: XOR the bank index with the low bits of the row index.
    PERMUTE_BANK = False

    def __init__(self, geometry: DramGeometry, name: str,
                 order: Sequence[str]) -> None:
        super().__init__(geometry)
        self.name = name
        self.order = list(order)
        required = {"col_low", "col_high", "channel", "rank", "bank", "row"}
        if set(self.order) != required:
            raise ConfigurationError(
                f"{name}: order must contain exactly {sorted(required)}"
            )
        if self.order.index("col_low") > self.order.index("col_high"):
            raise ConfigurationError(f"{name}: col_low must be below col_high")
        g = geometry
        col_bits = _log2(g.lines_per_row, "lines_per_row")
        col_low_bits = min(col_bits, _log2(self.COL_LOW_LINES, "col_low"))
        widths = {
            "col_low": col_low_bits,
            "col_high": col_bits - col_low_bits,
            "channel": _log2(g.channels, "channels"),
            "rank": _log2(g.ranks_per_channel, "ranks"),
            "bank": _log2(g.banks_per_rank, "banks"),
            "row": _log2(g.rows_per_bank, "rows"),
        }
        shift, pos = {}, 0
        for field_name in self.order:
            shift[field_name] = pos
            pos += widths[field_name]
        line_shift = _log2(g.line_bytes, "line_bytes")
        ch_s, ch_m = shift["channel"], g.channels - 1
        rk_s, rk_m = shift["rank"], g.ranks_per_channel - 1
        bk_s, bk_m = shift["bank"], g.banks_per_rank - 1
        rw_s, rw_m = shift["row"], g.rows_per_bank - 1
        lo_s, lo_m = shift["col_low"], (1 << col_low_bits) - 1
        hi_s, hi_m = shift["col_high"], (1 << widths["col_high"]) - 1
        bank_xor = bk_m if self.PERMUTE_BANK else 0
        new = tuple.__new__

        def decompose(paddr: int) -> DramAddress:
            line = paddr >> line_shift
            row = (line >> rw_s) & rw_m
            return new(DramAddress, (
                (line >> ch_s) & ch_m,
                (line >> rk_s) & rk_m,
                ((line >> bk_s) & bk_m) ^ (row & bank_xor),
                row,
                ((line >> hi_s) & hi_m) << col_low_bits
                | (line >> lo_s) & lo_m,
            ))

        self.decompose = decompose

    def __reduce__(self):
        # ``decompose`` is a closure; pickle the recipe instead.
        return type(self), (self.geometry, self.name, self.order)


class PermutationMapping(FieldOrderMapping):
    """Permutation-based page interleaving (Zhang et al. [106]).

    A field-order scheme whose bank index is XORed with the low bits
    of the row index, spreading row-conflicting addresses across banks.
    """

    PERMUTE_BANK = True


def make_mapping(name: str, geometry: DramGeometry) -> AddressMapping:
    """Instantiate one of the named schemes (see ALL_SCHEMES)."""
    orders = _SCHEME_ORDERS
    if name in orders:
        return FieldOrderMapping(geometry, name, orders[name])
    if name == "permutation":
        return PermutationMapping(geometry, name, orders["scheme2"])
    if name == "minimalist_open":
        # Minimalist open-page [107]: a small number of consecutive
        # lines per row per stream, then rotate channel/bank -- modelled
        # as the col_low-then-bank ordering with permutation.
        return PermutationMapping(geometry, name, orders["scheme7"])
    raise ConfigurationError(
        f"unknown mapping scheme {name!r}; choices: {sorted(ALL_SCHEMES)}"
    )


#: The seven DRAMSim2 field orders (low bits first).
_SCHEME_ORDERS: Dict[str, List[str]] = {
    # scheme1: chan:rank:row:col:bank  (bank lowest above the line)
    "scheme1": ["col_low", "bank", "col_high", "row", "rank", "channel"],
    # scheme2: chan:rank:row:bank:col  (row-interleaved, RBL-friendly)
    "scheme2": ["col_low", "col_high", "bank", "row", "rank", "channel"],
    # scheme3: chan:rank:bank:col:row  (row bits low -- conflict heavy)
    "scheme3": ["col_low", "row", "col_high", "bank", "rank", "channel"],
    # scheme4: chan:rank:bank:row:col
    "scheme4": ["col_low", "col_high", "row", "bank", "rank", "channel"],
    # scheme5: row:col:rank:bank:chan  (channel lowest: line interleave)
    "scheme5": ["col_low", "channel", "bank", "rank", "col_high", "row"],
    # scheme6: row:col:bank:rank:chan
    "scheme6": ["col_low", "channel", "rank", "bank", "col_high", "row"],
    # scheme7: row:bank:rank:col:chan
    "scheme7": ["col_low", "channel", "col_high", "rank", "bank", "row"],
    # xmem_interleaved: channels rotate every 512 B (full stream
    # bandwidth) while the bank bits sit above the page offset, so a
    # 4 KB page maps to exactly one bank index (the same bank on every
    # channel).  This is the mapping the XMem OS uses: it keeps the
    # channel parallelism of scheme5/6 *and* gives page-granular
    # placement a well-defined isolation unit (the cross-channel bank
    # group).
    "xmem_interleaved": ["col_low", "channel", "col_high", "bank",
                         "rank", "row"],
}

#: Every mapping name accepted by :func:`make_mapping`.
ALL_SCHEMES = tuple(sorted(_SCHEME_ORDERS)) + (
    "permutation", "minimalist_open",
)
