"""Shared low-level plumbing: bit packing, deterministic RNG streams and
the worker pool (:mod:`repro.util.parallel`)."""

from repro.util.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    int_to_bits,
    pad_bits,
)
from repro.util.rng import derive_rng

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "int_to_bits",
    "pad_bits",
    "derive_rng",
]
