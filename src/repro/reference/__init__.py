"""Reference machinery: the paper's test oracles and experiment drivers.

Nothing here runs in the product.  The tests compare the product
against these modules, and the ``benchmarks/`` scripts reproduce the
paper's results with them.  They may import product code; no module
outside this package imports them (``tests/test_reference_boundary.py``
holds that line, statically and at run time).

* :mod:`~repro.reference.jnl_evaluator` -- the Section 4.2 denotational
  JNL semantics, the oracle for :mod:`repro.jnl.efficient`;
* :mod:`~repro.reference.jsl_evaluator` -- Proposition 6 JSL evaluation;
* :mod:`~repro.reference.unfold` -- the Section 5.3 unfolding semantics
  of recursive JSL;
* :mod:`~repro.reference.schema_validator` -- direct JSON Schema
  validation (arXiv 1701.02221), the independent oracle for
  :mod:`repro.validate`;
* :mod:`~repro.reference.from_jsl` and :mod:`~repro.reference.jsl_to_jnl`
  -- the reverse translations of Theorems 1 and 2;
* :mod:`~repro.reference.mongo_oracles` -- the Mongo filter
  interpreter, naive aggregation and the naive update interpreter, the
  oracles for :mod:`repro.mongo`;
* :mod:`~repro.reference.rebuild_update` -- remove+reinsert update
  maintenance, the oracle and benchmark baseline of the delta path;
* :mod:`~repro.reference.jautomata` -- J-automata (Proposition 10);
* :mod:`~repro.reference.reductions` -- the hardness reductions of
  Propositions 2, 4, 7 and 9;
* :mod:`~repro.reference.workloads` -- document and formula generators;
* :mod:`~repro.reference.harness` -- the benchmark harness.
"""
