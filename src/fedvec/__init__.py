"""Federated vector search with a learned per-shard relevance router."""

__version__ = "0.1.0"
