"""The README's examples run against the current API.

The ``python`` quick-start block is executed as written, and every
descriptor in the two ``jsonc`` blocks (models, then arrivals) is read
by ``from_descriptor`` or ``arrivals_from_descriptor``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from mqms import arrivals_from_descriptor, from_descriptor

_SPACE = re.compile(r"\s*")
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _descriptors(block: str) -> list:
    """Every JSON value in a block of values separated by whitespace."""
    decoder, out = json.JSONDecoder(), []
    i = _SPACE.match(block).end()
    while i < len(block):
        value, i = decoder.raw_decode(block, i)
        out.append(value)
        i = _SPACE.match(block, i).end()
    return out


def test_the_quick_start_runs():
    (block,) = _blocks("python")
    scope = {}
    exec(compile(block, "README.md quick start", "exec"), scope)
    assert scope["delta"] > 0 and scope["fair"].converged


def test_every_readme_descriptor_loads():
    models, arrivals = (_descriptors(block) for block in _blocks("jsonc"))
    assert [from_descriptor(d).kind for d in models] == ["bernoulli", "factored", "explicit_joint", "continuous"]
    (arrival,) = arrivals
    assert [q.kind for q in arrivals_from_descriptor(arrival).queues] == [
        "deterministic", "bernoulli_batch", "bounded_pmf"]
