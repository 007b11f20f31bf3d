"""Partitions and projection energy.

The energy of a tuple (f_1, ..., f_k) with respect to a partition P of a
carrier S is sum_i ||(f_i)_P||^2 where (f_i)_P averages f_i over its part and
the norm is E_{x in S} |.|^2.  Energy is monotone under refinement and obeys
the exact Pythagoras law E(Q) - E(P) = sum_i ||(f_i)_Q - (f_i)_P||^2, which
the regularization loops lean on for their increment assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import Subspace, null_space
from .fourier import FLOAT_TOL, regularity_norm, transform
from .space import Space


@dataclass(frozen=True)
class Partition:
    """A partition of a carrier set of points, as dense part labels.

    labels has one entry per point of the space; points outside the carrier
    hold -1.  Labels are renumbered to 0..num_parts-1, keeping their order.
    """

    space: Space
    labels: np.ndarray
    num_parts: int = field(init=False)

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.shape != (self.space.size,):
            raise ValueError("label table has wrong length")
        carrier = lab >= 0
        if not carrier.any():
            raise ValueError("partition carrier is empty")
        dense = np.full(self.space.size, -1, dtype=np.int64)
        uniq, inv = np.unique(lab[carrier], return_inverse=True)
        dense[carrier] = inv
        dense.setflags(write=False)
        object.__setattr__(self, "labels", dense)
        object.__setattr__(self, "num_parts", int(uniq.size))

    @classmethod
    def from_cosets(cls, space: Space, sub: Subspace, carrier: np.ndarray | None = None) -> "Partition":
        """Cosets of sub, restricted to the carrier (default: all of V)."""
        labels = space.coset_ids(sub)
        if carrier is not None:
            mask = np.zeros(space.size, dtype=bool)
            mask[np.asarray(carrier, dtype=np.int64)] = True
            labels = np.where(mask, labels, -1)
        return cls(space, labels)


def project(partition: Partition, values: np.ndarray) -> np.ndarray:
    """Average values over each part; zero outside the carrier."""
    v = np.asarray(values, dtype=np.float64)
    lab = partition.labels
    on = lab >= 0
    sums = np.bincount(lab[on], weights=v[on], minlength=partition.num_parts)
    counts = np.bincount(lab[on], minlength=partition.num_parts)
    out = np.zeros(partition.space.size, dtype=np.float64)
    out[on] = (sums / counts)[lab[on]]
    return out


def project_energy(partition: Partition, fs: Sequence[np.ndarray]) -> tuple[list[np.ndarray], float]:
    """Projections of each f and the total energy sum_i E_{x in S}[proj^2]."""
    projections = []
    energy = 0.0
    carrier_size = int(np.count_nonzero(partition.labels >= 0))
    for f in fs:
        pr = project(partition, f)
        projections.append(pr)
        energy += float((pr * pr).sum()) / carrier_size
    return projections, energy


def increment_subspace(g: np.ndarray, space: Space, eps: float) -> tuple[int, Subspace] | None:
    """Degree-lowering step for one irregular coset restriction.

    g is f restricted to a coset of V_1, expressed on F_p^d in the canonical
    basis coordinates.  When some nontrivial coefficient strictly exceeds eps,
    returns the witness frequency z and the coordinate subspace {t : t.z = 0};
    splitting the coset along it realizes an energy gain of
    sum_{a != 0} |ghat(a z)|^2 >= norm^2 > eps^2, which is asserted here (with
    the shared tolerance absorbing float fuzz only).
    """
    norm, z = regularity_norm(g, space)
    if z is None or norm <= eps:
        return None
    zvec = space.decode(z)
    cut = Subspace.from_rows(space.p, space.n, null_space(zvec.reshape(1, -1), space.p))
    hat = transform(g, space)
    gain = 0.0
    for a in range(1, space.p):
        gain += float(abs(hat[space.encode(a * zvec)]) ** 2)
    assert gain > eps**2 - FLOAT_TOL, f"increment gain {gain} below eps^2 = {eps**2}"
    return z, cut
