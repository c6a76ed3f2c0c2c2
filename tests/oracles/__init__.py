"""Frozen pre-optimization implementations the property tests compare against.

An oracle exists to be compared with, so it lives where the comparison
runs: nothing under ``src/repro`` may import this package
(``tests/unit/test_layering.py``), and nothing here is ever optimized.
"""
