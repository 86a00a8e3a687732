"""Workload inputs, generated from the workload seed.

The MIMO channels start from fixed Philox-generated complex Gaussian base
channels, one per antenna count.  The workload seed draws a Haar-random
unitary change of basis at the licensed and at the cognitive receiver and
applies it to the rows of every channel matrix.  A receive-side change of
basis leaves every log-det rate, and hence the whole capacity region and the
solver's objective as a function of its parameters, unchanged in exact
arithmetic: the seed changes the input bytes the program parses, while the
optimum and the amount of solver work stay put.  Drawing new channels (or a
transmit-side change of basis) per seed moved a two-antenna region-plus-bound
pass between 1.7 s and 5.9 s over eight seeds, a spread no run length can
average away, so runs with different seeds could not be compared.

``paper_repro`` reads the channel bundled with the program, so its inputs do
not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: Key of the Philox streams behind the fixed base channels.
BASE_KEY = 711_4792
POWER = 5.0


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _philox(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def mimo_channel(n: int, seed: int) -> dict:
    """Channel spec (as a JSON-ready dict) with ``n`` antennas per terminal."""
    base = _philox(BASE_KEY, n)
    h = {k: _complex_normal(base, (n, n)) for k in ("h_pp", "h_pc", "h_cp", "h_cc")}
    rot = _philox(seed, BASE_KEY, n)
    u_pr = _haar_unitary(rot, n)  # licensed receiver: rows of h_pp, h_cp
    u_cr = _haar_unitary(rot, n)  # cognitive receiver: rows of h_pc, h_cc
    rotated = {
        "h_pp": u_pr @ h["h_pp"],
        "h_cp": u_pr @ h["h_cp"],
        "h_pc": u_cr @ h["h_pc"],
        "h_cc": u_cr @ h["h_cc"],
    }
    spec = {
        k: [[[float(v.real), float(v.imag)] for v in row] for row in m]
        for k, m in rotated.items()
    }
    spec.update(p_p=POWER, p_c=POWER, real_mode=False)
    return spec


#: Antenna counts of the MIMO channels each workload reads.
CHANNELS = {
    "paper_repro": (),
    "mimo_region": (2, 3),
    "mimo_tightness": (2,),
}


def generate(workload: str, seed: int, directory: str) -> dict[int, str]:
    """Write the workload's channel files; returns {antennas: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for n in CHANNELS[workload]:
        path = os.path.join(directory, f"channel_n{n}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(mimo_channel(n, seed), handle, sort_keys=True)
        paths[n] = path
    return paths
