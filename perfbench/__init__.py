"""End-to-end and per-layer benchmark of the simulator (see README.md)."""
