"""The paper's JSON-tree data model (Section 3).

* :mod:`repro.model.tree` -- :class:`~repro.model.tree.JSONTree` and
  :class:`~repro.model.tree.Kind`, the deterministic, edge-labelled
  tree structure;
* :mod:`repro.model.navigation` -- :class:`~repro.model.navigation.Navigator`
  and the JSON navigation instructions (``navigate``, ``try_navigate``,
  ``fetch``);
* :mod:`repro.model.equality` -- subtree-value comparisons, canonical
  hashes, distinct children;
* :mod:`repro.model.builder` -- event-driven construction
  (:class:`~repro.model.builder.TreeBuilder`);
* :mod:`repro.model.pointer` -- the JSON Pointer helpers used by ``$ref``.
"""

from repro.model.navigation import Navigator
from repro.model.tree import JSONTree

__all__ = ["JSONTree", "Navigator"]
