"""ABLATION — byte interleaving under burst noise.

Viterbi decoding emits *bursts* of byte errors; without the interleaver
a single burst concentrates in one Reed-Solomon block and kills the
frame.  This ablation injects audio-domain noise bursts (clicks — the
FM threshold artefact) and compares frame survival.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_table
from repro.modem.frame import FecConfig, FrameCodec, FrameDecodeError
from repro.util.rng import derive_rng


def run(n_trials: int) -> dict[str, float]:
    rng = derive_rng(6, "ablation-il")
    outcomes = {}
    for label, interleave in (("with interleaver", True), ("without", False)):
        codec = FrameCodec(
            FecConfig(
                payload_size=300,
                rs_nsym=8,
                rs_max_block=80,
                conv="none",  # isolate the RS + interleaver interaction
                interleave=interleave,
            )
        )
        survived = 0
        for trial in range(n_trials):
            payload = bytes(rng.integers(0, 256, 300, dtype=np.uint8))
            soft = 1.0 - 2.0 * codec.encode(payload).astype(np.float64)
            # One contiguous 64-bit burst per frame (an FM click).
            start = int(rng.integers(0, soft.size - 64))
            soft[start : start + 64] *= -1
            try:
                if codec.decode(soft) == payload:
                    survived += 1
            except FrameDecodeError:
                pass
        outcomes[label] = 100.0 * survived / n_trials
    return outcomes


def test_ablation_interleaver_bursts():
    outcomes = run(40)
    print_table(
        "Interleaver ablation: frames surviving a 64-bit click burst",
        ["configuration", "survival %"],
        [[k, f"{v:.0f}"] for k, v in outcomes.items()],
    )
    assert outcomes["with interleaver"] >= 95.0
    assert outcomes["without"] <= outcomes["with interleaver"] - 30.0
