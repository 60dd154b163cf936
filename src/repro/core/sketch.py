"""Fast sketching (Algorithm 3 / Definition 4.5).

A sketch summarizes, for one query ``SPG(u, v)``, the cheapest ways of
routing between ``u`` and ``v`` *through landmarks*:

* ``d_top`` — the minimum length of any landmark-passing ``u -> v``
  path (Eq. 3); an upper bound on ``d_G(u, v)`` (Corollary 4.6);
* per-side sketch edges ``(r, δ)`` — which landmarks start/end those
  minimal routes and at what distance;
* the minimizing landmark pairs, whose meta-graph shortest path
  structure the recover search later expands;
* the per-side search budgets ``d*_u`` and ``d*_v`` (Eq. 4) that steer
  the bidirectional search.

Thanks to the dense uint8 label matrix the whole computation is one
numpy broadcast over the ``|R| x |R|`` distance matrix — the "constant
time" sketch of §5.2. It is computed per query and reads ``u``'s
distances *to* the landmarks and ``v``'s distances *from* them (one
matrix on a symmetric graph), so one function serves ``qbs`` and
``qbs-directed``. ``d_top`` is only an upper bound: the guided search
confirms or beats it, and no batch path answers from it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .labelling import PathLabelling
from .metagraph import MetaGraph

__all__ = ["Sketch", "compute_sketch"]


@dataclass
class Sketch:
    """Sketch for one query (Definition 4.5), in landmark positions.

    ``side_u`` / ``side_v`` map landmark position -> σ_S(r, t), the
    label distance of the endpoint to that landmark on a minimal
    landmark route. ``meta_pairs`` holds the minimizing ``(r, r')``
    position pairs of Eq. 3. ``d_top`` is ``None`` when no
    landmark-passing path exists (possible only on disconnected
    graphs).
    """

    u: int
    v: int
    d_top: Optional[int]
    side_u: Dict[int, int] = field(default_factory=dict)
    side_v: Dict[int, int] = field(default_factory=dict)
    meta_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def budget_u(self) -> int:
        """d*_u of Eq. 4: search depth hint for the ``u`` side."""
        return max(self.side_u.values()) - 1 if self.side_u else 0

    @property
    def budget_v(self) -> int:
        """d*_v of Eq. 4: search depth hint for the ``v`` side."""
        return max(self.side_v.values()) - 1 if self.side_v else 0

    def num_edges(self) -> int:
        """Sketch edge count: endpoint edges plus meta-path edges."""
        return len(self.side_u) + len(self.side_v) + len(self.meta_pairs)


def compute_sketch(labelling: PathLabelling, meta: MetaGraph,
                   u: int, v: int) -> Sketch:
    """Algorithm 3: build the sketch for ``SPG(u, v)``.

    Both endpoints must be non-landmarks (landmark endpoints are
    handled by the caller's fallback; see
    :class:`~repro.core.qbs.QbSIndex`).
    """
    delta_u = labelling.label_rows_float([u])[0]
    delta_v = labelling.label_rows_float([v], reverse=True)[0]

    # Lines 2-6: pi[r, r'] = delta_u[r] + d_M[r, r'] + delta_v[r'],
    # the route u -> r -> r' -> v, minimized over all landmark pairs
    # as one broadcast.
    pi = delta_u[:, None] + meta.dist + delta_v[None, :]
    d_top_value = float(pi.min()) if pi.size else np.inf
    if not np.isfinite(d_top_value):
        return Sketch(u=u, v=v, d_top=None)
    d_top = int(d_top_value)

    sketch = Sketch(u=u, v=v, d_top=d_top)
    rows, cols = np.nonzero(pi == d_top_value)
    for r, r_prime in zip(rows.tolist(), cols.tolist()):
        # Lines 8-9: endpoint sketch edges carry the label distances.
        sketch.side_u[r] = int(delta_u[r])
        sketch.side_v[r_prime] = int(delta_v[r_prime])
        sketch.meta_pairs.append((r, r_prime))
    return sketch
