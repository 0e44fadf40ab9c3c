"""Phishing-URL detection toolkit: feature extraction, classifiers,
explanations, MCP-style serving, and a robustness harness."""

__version__ = "0.1.0"
