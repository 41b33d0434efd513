"""Cheap token estimation used for length filtering and usage fallback."""

from __future__ import annotations

DEFAULT_TOKENS_PER_WORD = 1.3


def estimate_tokens(text: str) -> float:
    """Estimate tokens as a multiple of the whitespace-separated word count."""
    return DEFAULT_TOKENS_PER_WORD * len(text.split())
