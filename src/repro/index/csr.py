"""Re-export of :mod:`repro.arrays` under its original import path."""

from repro.arrays import csr_from_chunks, expand_slices, isin_sorted

__all__ = ["expand_slices", "csr_from_chunks", "isin_sorted"]
