"""Small-signal AC analysis of an MNA :class:`Circuit`, for tests.

The standard PDN characterisation: inject a 1 A AC current into a node
(voltage sources shorted), solve the complex MNA system at each
frequency, and read back the node voltage - its magnitude is the
impedance.  The peak of the curve marks the bump-L / decap-C
anti-resonance that workload current edges excite.  No product path
runs it; ``test_ac_analysis.py`` and ``test_guardband.py`` use it to
check the PDN model and the guardband's L/(RC) law.
"""

from typing import Optional, Sequence

import numpy as np

from repro.harness.errors import SolverError
from repro.pdn.builder import TILE_NODES, DomainPdnBuilder
from repro.pdn.circuit import GROUND, Circuit


def _stamp(a: np.ndarray, i: Optional[int], j: Optional[int], y) -> None:
    """Stamp a two-terminal admittance into a dense (complex) matrix."""
    if i is not None:
        a[i, i] += y
    if j is not None:
        a[j, j] += y
    if i is not None and j is not None:
        a[i, j] -= y
        a[j, i] -= y


def ac_impedance(
    circuit: Circuit, node: str, frequencies_hz: Sequence[float]
) -> np.ndarray:
    """Small-signal input impedance ``|Z(f)|`` seen at ``node``, in ohms,
    one value per frequency (each > 0).

    Raises:
        ValueError: ``node`` is ground, or a frequency is not positive.
        KeyError: ``node`` is not in the circuit.
        SolverError: The AC system is singular (``stage="ac"``).
    """
    if node in (GROUND, "0"):
        raise ValueError("cannot probe the ground node")
    if node not in circuit._nodes:
        raise KeyError(f"unknown node {node!r}")
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    if freqs.size == 0 or np.any(freqs <= 0):
        raise ValueError("frequencies must be positive")

    idx = circuit._idx
    n = len(circuit._nodes)
    n_l = len(circuit._inductors)
    size = n + n_l + len(circuit._vsources)
    probe = circuit._nodes[node]
    out = np.empty(freqs.size)
    for i, f in enumerate(freqs):
        omega = 2.0 * np.pi * f
        a = np.zeros((size, size), dtype=complex)
        for r in circuit._resistors:
            _stamp(a, idx(r.a), idx(r.b), 1.0 / r.ohms)
        for c in circuit._capacitors:
            _stamp(a, idx(c.a), idx(c.b), 1j * omega * c.farads)
        branches = [(l.a, l.b) for l in circuit._inductors]
        branches += [(v.pos, v.neg) for v in circuit._vsources]
        for k, (pos, neg) in enumerate(branches):
            row = n + k
            p, q = idx(pos), idx(neg)
            if p is not None:
                a[p, row] += 1.0
                a[row, p] += 1.0
            if q is not None:
                a[q, row] -= 1.0
                a[row, q] -= 1.0
            if k < n_l:
                a[row, row] -= 1j * omega * circuit._inductors[k].henries
            # AC small-signal: DC sources are shorts (RHS row = 0).
        rhs = np.zeros(size, dtype=complex)
        rhs[probe] = 1.0  # 1 A injected into the probed node
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular AC system matrix",
                node=node,
                frequency_hz=float(f),
                stage="ac",
            ) from exc
        out[i] = abs(x[probe])
    return out


def impedance_profile(
    builder: DomainPdnBuilder, frequencies_hz, tile_index: int = 0
) -> np.ndarray:
    """``|Z(f)|`` at one tile's supply rail of the domain PDN, built with
    no workload (AC analysis is load independent).  The curve peaks at
    the bump-inductance/decap anti-resonance of
    :meth:`DomainPdnBuilder.resonance_hz`."""
    circuit = builder.build(1.0, [0.0] * len(TILE_NODES))
    return ac_impedance(circuit, TILE_NODES[tile_index], frequencies_hz)
