"""Execution: the vectorized batch engine, which runs every physical plan,
and the naive logical interpreter, which stays as the reference oracle."""

from .naive import NaiveInterpreter, like_match
from .vectorized import Batch, VectorizedExecutor

__all__ = ["Batch", "NaiveInterpreter", "VectorizedExecutor", "like_match"]
