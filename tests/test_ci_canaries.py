"""The CI workflow's mutation canaries aim at code that exists.

Each ``canary <file> '<from>' '<to>' ...`` call in
``.github/workflows/ci.yml`` plants a bug by replacing ``<from>`` in
``<file>`` and requires a fuzz lane to catch it.  A refactor that
deletes or rewrites ``<from>`` leaves the canary nothing to plant, and
CI fails at its grep; this test fails first, locally.
"""

import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def canary_calls():
    """Every canary call of the workflow, as ``(file, from)``: its
    continued lines joined and its words split as the shell does."""
    calls = []
    command = ""
    for line in WORKFLOW.read_text().splitlines():
        command += line.strip()
        if command.endswith("\\"):
            command = command[:-1] + " "
            continue
        if command.startswith("canary "):
            words = shlex.split(command)
            calls.append((words[1], words[2]))
        command = ""
    return calls


def test_every_canary_target_exists():
    calls = canary_calls()
    # The tier-smoke and corun-smoke jobs' canaries.
    assert len(calls) >= 10
    missing = [(path, target) for path, target in calls
               if target not in (ROOT / path).read_text()]
    assert missing == []
