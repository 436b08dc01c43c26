"""Benchmark of the proxycam edge -> wire -> cloud pipeline and its privacy audit."""
