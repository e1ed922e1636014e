"""Benchmark for the TreeVQA reproduction; see README.md beside this file."""
