"""Benchmark of the FRODO reproduction: see README.md in this directory."""
