"""The metric catalog against its documentation and the trace view.

Two drifts are guarded here.  DESIGN.md §17 lists every instrument of
:mod:`repro.observe.catalog` (name, type, labels); a family added
without a row, or a row left behind by a deleted family, fails.  And
:data:`~repro.observe.catalog.TRACE_COUNTERS` — the table behind
``Tracer.counters()`` — must name catalog counters with the right
label arity, under the dotted name the family's own name spells.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.observe import catalog
from repro.observe.metrics import Counter, Gauge, Histogram

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"

_ROW = re.compile(r"^\| `(repro_[a-z_]+)` \| (\w+) \| ([^|]+) \| [^|]+ \|$")


def _inventory():
    """DESIGN.md §17's table rows: name -> (type, label names)."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("\n## 17.", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = _ROW.match(line.strip())
        if match:
            name, kind, labels = match.groups()
            rows[name] = (kind, tuple(re.findall(r"`(\w+)`", labels)))
    return rows


def _catalog_families():
    return {
        family.name: family
        for family in vars(catalog).values()
        if isinstance(family, (Counter, Gauge, Histogram))
    }


def test_every_catalog_family_has_a_design_row():
    rows = _inventory()
    families = _catalog_families()
    assert sorted(rows) == sorted(families)
    for name, family in families.items():
        assert rows[name] == (family.kind, family.labelnames), name


def test_trace_counters_name_catalog_counters():
    families = _catalog_families()
    for dotted, (family, values) in catalog.TRACE_COUNTERS.items():
        assert isinstance(family, Counter), dotted
        assert families.get(family.name) is family, dotted
        assert len(values) == len(family.labelnames), dotted
        stem = family.name[len("repro_"):-len("_total")]
        assert dotted.replace(".", "_") == "_".join((stem,) + values), dotted
