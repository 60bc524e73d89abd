"""Reference flow event rule: the original list-based solver, kept as an oracle.

``slittori.flow`` finds the next event with one precomputed rule per ray
(``flow._event_rule``).  The code below is the earlier generic version,
which builds a candidate list per call and divides to get the slit
parameter t.  ``tests/test_flow.py`` checks the two against each other.
"""

from __future__ import annotations

from fractions import Fraction

from slittori.exact import ExactScalar
from slittori.flow import SingularOrbitError

_HALF = Fraction(1, 2)


def _sign(v) -> int:
    if isinstance(v, ExactScalar):
        return v.sign()
    return (v > 0) - (v < 0)


def _slit_crossing(model_zx, model_zy, x, y, dx, dy):
    """Earliest s > 0 where (x,y) + s (dx,dy) meets {t z : -1 < t < 1}.

    Returns (s, t) or None; raises SingularOrbitError for a ray running
    along the slit line or through an endpoint (t = +-1).
    """
    det = dx * model_zy - dy * model_zx
    if _sign(det) == 0:
        on_line = _sign(x * model_zy - y * model_zx) == 0
        if on_line:
            raise SingularOrbitError("orbit runs along the slit line")
        return None
    t = (dx * y - dy * x) / det
    s = (model_zx * y - model_zy * x) / det
    if _sign(s) <= 0:
        return None
    if not (-1 <= t <= 1):
        return None
    if t == 1 or t == -1:
        raise SingularOrbitError("orbit hits a cone point")
    return (s, t)


def _next_event(model, state, dx, dy):
    """(s, kind) of the next event with s > 0."""
    candidates = []
    if _sign(dx) > 0:
        candidates.append(((_HALF - state.x) / dx, "right_edge"))
    if _sign(dy) > 0:
        candidates.append(((_HALF - state.y) / dy, "top_edge"))
    hit = _slit_crossing(model.zx, model.zy, state.x, state.y, dx, dy)
    if hit is not None:
        candidates.append((hit[0], "slit"))
    if not candidates:
        raise SingularOrbitError("zero direction")
    s_min = min(c[0] for c in candidates)
    kinds = [kind for s, kind in candidates if s == s_min]
    if "slit" in kinds and len(kinds) > 1:
        raise SingularOrbitError("slit crossing coincides with an edge event")
    kind = "corner" if ("right_edge" in kinds and "top_edge" in kinds) else kinds[0]
    return s_min, kind
