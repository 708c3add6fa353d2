"""Compatibility alias for the removed tuple-at-a-time executor.

:class:`~repro.executor.vectorized.VectorizedExecutor` is the one physical
engine.  ``PhysicalExecutor`` stays importable from this module path
because tools outside the package (the benchmark tracer in
``perfbench/tracing.py``) patch ``PhysicalExecutor.prepare`` and
``PhysicalExecutor.run_prepared`` by it.
"""

from .vectorized import VectorizedExecutor

PhysicalExecutor = VectorizedExecutor

__all__ = ["PhysicalExecutor"]
