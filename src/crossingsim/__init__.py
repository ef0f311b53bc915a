"""Crossing-interaction models and paired strategy evaluation.

The package fits box-truncated Gaussian mixtures to vehicle-pedestrian
passing observations, simulates unsignalized-crossing episodes against
reactive pedestrians, and scores automated passing strategies against a
mixture-derived human-driver baseline.

Importing the package binds nothing: each public name is imported from
the one module that defines it, and each layer loads only the layers
below it.

* Leaves, which import no numpy and no other module of the package:
  :mod:`crossingsim.checks` (what counts as a number),
  :mod:`crossingsim.normal` (scalar normal math),
  :mod:`crossingsim.scenario` (passing geometry and model space) and
  :mod:`crossingsim.seeds` (seed derivation).
* Interaction model: :mod:`crossingsim.mixture` (the box-truncated
  Gaussian mixture: fitting, selection, conditioning, mode search).
* Simulation: :mod:`crossingsim.agents` (arrivals, walk speeds, driving
  strategies) and :mod:`crossingsim.sim` (episodes and paired runs).
* Evaluation: :mod:`crossingsim.metrics` (the evaluation report).
* Pipeline: :mod:`crossingsim.ingest` (observation files and the
  synthetic generator), :mod:`crossingsim.config` (the run configuration)
  and :mod:`crossingsim.cli` (the command-line stages).
"""
