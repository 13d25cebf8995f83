"""Synthesis substrate: timing-driven mapping under slew/load windows.

The synthesizer stands in for the commercial tool of the paper's flow.
Its contract matches what the experiments need:

* bind every netlist instance to a drive-strength variant of its cell
  family, among the variants the windows leave usable
  (:class:`~repro.synth.mapping.VariantTables`);
* meet a clock constraint (minus the 300 ps guard band) by upsizing
  cells on violating paths and splitting heavy fanouts with inverter
  pairs;
* honor per-output-pin slew/load windows from library tuning
  (:class:`~repro.core.restriction.SlewLoadWindow`) as hard legality
  constraints — the mechanism by which tuning changes cell selection;
* recover area where slack allows.
"""

from repro.synth.constraints import SynthesisConstraints
from repro.synth.mapping import VariantTables, initial_mapping
from repro.synth.synthesizer import SynthesisResult, Synthesizer, synthesize

__all__ = [
    "SynthesisConstraints",
    "VariantTables",
    "initial_mapping",
    "SynthesisResult",
    "Synthesizer",
    "synthesize",
]
