"""Benchmark of the qcausal CLI; see README.md in this directory."""
