"""End-to-end and per-layer benchmark of the ATC reproduction (see README.md)."""
