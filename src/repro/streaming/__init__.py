"""Streaming tokenizer and deterministic-JSL validator (Section 6)."""

from repro.streaming.events import tokenize
from repro.streaming.validator import StreamingJSLValidator

__all__ = ["tokenize", "StreamingJSLValidator"]
