"""Use Case 2 glue: from program atoms to OS page placement.

The heavy lifting lives in :mod:`repro.xos.placement` (the algorithm)
and :mod:`repro.xos.allocator` (the bank-targeting allocator); this
module reports on the three-step mechanism of Section 6.2:

1. the OS obtains atom attributes when loading the program (the atom
   segment -> GAT);
2. it plans the bank/channel mapping for every atom;
3. it steers the virtual-to-physical mapping so each data structure's
   pages land in its assigned banks.

:func:`placement_report` is a human-readable summary of a decision,
used by the examples and experiment logs; :func:`bank_occupancy`
counts a process's pages per bank.
"""

from __future__ import annotations

from typing import Dict, List

from repro.xos.loader import OperatingSystem, Process


def placement_report(proc: Process) -> str:
    """Readable dump of a process's placement decision."""
    decision = proc.placement
    if decision is None:
        return "no placement decision (baseline allocator)"
    lines: List[str] = []
    for atom_id, banks in sorted(decision.isolated.items()):
        atom = proc.xmem.atoms.get(atom_id)
        name = atom.name if atom else f"atom{atom_id}"
        bank_list = ", ".join(f"ch{c}/rk{r}/bk{b}" for c, r, b in banks)
        lines.append(f"isolated  {name:<16} -> {bank_list}")
    spread = ", ".join(f"ch{c}/rk{r}/bk{b}"
                       for c, r, b in proc.placement.spread_banks)
    lines.append(f"spread    <everything else> -> {spread}")
    return "\n".join(lines)


def bank_occupancy(proc: Process, osys: OperatingSystem
                   ) -> Dict[tuple, int]:
    """Pages per bank for a process (placement diagnostics)."""
    counts: Dict[tuple, int] = {}
    for _, frame in proc.page_table.items():
        for bank in osys.pool.frame_banks(frame):
            counts[bank] = counts.get(bank, 0) + 1
    return counts
