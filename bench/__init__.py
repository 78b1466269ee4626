"""End-to-end and per-layer benchmark of the cfrac CLI (see README.md)."""
