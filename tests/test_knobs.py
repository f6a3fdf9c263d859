"""The Knobs table in docs/ROBUSTNESS.md is the inventory of every setting.

Every ``"REPRO_*"`` string literal under ``src/`` must have a row there,
every environment row must be read somewhere in ``src/``, and the
``Scheduler(...=)`` rows must name exactly the parameters of
``Scheduler.__init__``.  Adding a knob without documenting it, or
retiring one without deleting its row, fails this test.
"""

import inspect
import re
from pathlib import Path

from repro.service import Scheduler

ROOT = Path(__file__).resolve().parents[1]
ENV_LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")


def knob_cells():
    """First cell of every row of the Knobs table."""
    text = (ROOT / "docs" / "ROBUSTNESS.md").read_text(encoding="utf-8")
    section = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    return [
        line.split("|")[1]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|---")
    ]


def env_literals_in_src():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(ENV_LITERAL.findall(path.read_text(encoding="utf-8")))
    return names


def test_every_env_var_read_in_src_is_documented_and_vice_versa():
    documented = {
        name for cell in knob_cells() for name in re.findall(r"`(REPRO_[A-Z0-9_]+)", cell)
    }
    assert documented == env_literals_in_src()


def test_scheduler_rows_match_its_signature():
    documented = {
        name for cell in knob_cells() for name in re.findall(r"`Scheduler\((\w+)=\)`", cell)
    }
    parameters = set(inspect.signature(Scheduler.__init__).parameters) - {"self"}
    assert documented == parameters
