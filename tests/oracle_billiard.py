"""An exact billiard table, kept as an oracle for ``slittori.flow.simulate``.

The table is the strip 0 <= y <= 1/2 with a barrier {n} x [0, lam) at every
integer n.  ``simulate`` runs the unfolded flow on the two-sheeted slit
torus with a deck index; this module runs the billiard itself, with no
unfolding: a point moves in a straight line, a wall (y = 0 or y = 1/2)
flips vy, and the line x = n flips vx where the height is below lam.  A
barrier tip (n, lam) is a singular point, where the billiard stops.

The time is the flow parameter of ``simulate``, so |vx| = 1 and |vy| is
the slope.  The billiard also records the times at which it enters the
barrier period [-1/2, 1/2] across one of its half-integer ends, which
``simulate`` counts as ``deck_zero_returns``.

Only ``math.floor``, comparisons and field operations touch the numbers,
so the table runs on ``Fraction`` or on ``ExactScalar``.
"""

from __future__ import annotations

import math


class TipHit(Exception):
    """The billiard reaches a barrier tip at time ``t``."""

    def __init__(self, t):
        super().__init__(f"barrier tip at time {t}")
        self.t = t


class Billiard:
    def __init__(self, lam, x, y, vx, vy):
        if abs(vx) != 1:
            raise ValueError("the time is the x-extent: |vx| must be 1")
        self.lam, self.x, self.y, self.vx, self.vy = lam, x, y, vx, vy
        self.t = 0 * lam
        self.half = (self.t + 1) / 2
        self.vx_in, self.vy_in = vx, vy
        self.entries = []  # times of entering the period [-1/2, 1/2]

    def _move(self, s) -> None:
        self.t += s
        self.x += s * self.vx
        self.y += s * self.vy

    def run_to(self, t_end) -> None:
        """Flow to time ``t_end``, applying every reflection and entry up to
        and at ``t_end``; ``vx_in`` and ``vy_in`` keep the velocity of the
        arrival there.  A barrier tip on the way raises TipHit."""
        half = self.half
        while True:
            # the next line x = k/2 ahead: a barrier line for even k
            k = math.floor(2 * self.x) + 1 if self.vx > 0 else -math.floor(-2 * self.x) - 1
            s_line = (k * half - self.x) / self.vx
            if self.vy > 0:
                s_wall = (half - self.y) / self.vy
            elif self.vy < 0:
                s_wall = -self.y / self.vy
            else:
                s_wall = None
            s = s_line if s_wall is None or s_line < s_wall else s_wall
            rest = t_end - self.t
            self.vx_in, self.vy_in = self.vx, self.vy
            if rest < s:
                self._move(rest)
                return
            self._move(s)
            if s == s_wall:
                self.vy = -self.vy
            if s == s_line:
                if k % 2:
                    if k == -self.vx:  # x = -1/2 moving right or x = 1/2 moving left
                        self.entries.append(self.t)
                elif self.y < self.lam:
                    self.vx = -self.vx
                elif self.y == self.lam:
                    raise TipHit(self.t)
            if rest == s:
                return
