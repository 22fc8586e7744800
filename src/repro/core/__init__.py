"""Tabula's core: the paper's primary contribution.

- :mod:`repro.core.loss` — user-defined accuracy loss functions
  (Section II), including the declarative ``CREATE AGGREGATE`` compiler;
- :mod:`repro.core.sampling` — accuracy-loss-aware greedy sampling
  (Algorithm 1) with lazy-forward acceleration;
- :mod:`repro.core.global_sample` — Serfling-bound global sample sizing;
- :mod:`repro.core.lattice`, :mod:`repro.core.dryrun`,
  :mod:`repro.core.realrun` — two-stage sampling-cube initialization
  (Section III);
- :mod:`repro.core.samgraph`, :mod:`repro.core.selection` —
  representative sample selection (Section IV);
- :mod:`repro.core.cube_store` — the physical cube/sample tables
  (Figure 4);
- :mod:`repro.core.tabula` — the middleware facade.
"""

from repro.core.tabula import Tabula, TabulaConfig

__all__ = ["Tabula", "TabulaConfig"]
