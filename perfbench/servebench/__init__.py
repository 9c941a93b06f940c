"""Served-path benchmark of the ILAN scheduling service (see ../README.md)."""
