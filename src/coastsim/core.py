"""Shared simulation primitives: rotations, the clamp, seeded random streams
(with block-drawn standard normals), the RK4 step on six floats, the fault
base, frozen-value successors.

Simulation time has no type of its own: runner.Simulation keeps an int step
count and takes t = step_count * dt, which does not drift as a sum of dt
does (the runner docstring says what else it keeps, and why).

Conventions used throughout the package:
  - navigation frame: x east, y north, z down (for the underwater vehicle),
    heading psi measured counterclockwise from +x
  - angles in radians, wrapped to (-pi, pi]
  - SI units unless a field comment says otherwise
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

TWO_PI = 2.0 * math.pi


class SimulationFault(Exception):
    """A numerical fault that ends a run: the runner logs it as an abort,
    writes the partial log and the CLI exits 2. Each concrete fault also
    keeps its ValueError or RuntimeError base."""


class NonFiniteInput(SimulationFault, ValueError):
    """A force model of the loop was handed a non-finite state."""


class IntegrationFault(SimulationFault, RuntimeError):
    """Raised when a derivative or state stops being finite."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6f} s")
        self.t = t


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]; -pi maps to +pi."""
    if not math.isfinite(theta):
        raise ValueError(f"cannot wrap non-finite angle {theta!r}")
    w = theta % TWO_PI  # [0, 2*pi)
    if w > math.pi:
        w -= TWO_PI
    return w


def clamp(x: float, lo: float, hi: float) -> float:
    """min(max(x, lo), hi) as two conditionals, argument for argument, without
    the builtins' calls: the same result for every float, NaN, signed zeros
    and lo > hi included."""
    x = lo if lo > x else x
    return hi if hi < x else x


def cos_sin(theta: float) -> tuple[float, float]:
    """(cos, sin) of an angle as Python floats.

    An infinite angle gives (nan, nan), as np.cos / np.sin do, where
    math.cos and math.sin raise ValueError; a diverging state then reaches
    its finite check instead of ending in a domain error.
    """
    if math.isinf(theta):
        return math.nan, math.nan
    return math.cos(theta), math.sin(theta)


def rotate_body_to_nav(vec, psi: float) -> tuple[float, float]:
    """Rotate a body-frame 2-vector into the navigation frame."""
    a, b = float(vec[0]), float(vec[1])
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(psi)):
        raise ValueError("rotate_body_to_nav requires finite inputs")
    c, s = math.cos(psi), math.sin(psi)
    return c * a - s * b, s * a + c * b


def rotate_nav_to_body(vec, psi: float) -> tuple[float, float]:
    """Inverse of rotate_body_to_nav."""
    return rotate_body_to_nav(vec, -psi)


def successor(value, **changes):
    """A copy of the frozen dataclass instance `value` with `changes` set.

    The field values `dataclasses.replace(value, **changes)` gives, without
    the generated __init__, its object.__setattr__ per field or
    __post_init__: the new instance's __dict__ is filled directly. Nothing
    is validated, so it is only for changes __post_init__ does not check --
    a controller's integral and previous error -- on a value that passed
    its checks when it was first built. Unknown field names are not caught.
    """
    new = object.__new__(type(value))
    fields = new.__dict__
    fields.update(value.__dict__)
    fields.update(changes)
    return new


# standard normals drawn per block by SeededRng.normal: 4 kB of floats
_NORMAL_BLOCK = 128


class SeededRng:
    """Per-consumer random streams derived from one master seed.

    Each consumer owns an integer stream id; the underlying generator is
    counter-based (Philox keyed on (seed, stream id)), so identical
    (seed, stream, draw index) always yields the identical value and adding
    a new consumer never perturbs existing streams.

    A consumer that takes one standard normal at a time reads it through
    `normal(stream_id)`: the stream's values are drawn _NORMAL_BLOCK at a
    time, on first use, with `standard_normal(n).tolist()`, which gives the
    floats that n scalar `standard_normal()` calls give, bit for bit. The
    block runs ahead of the generator's own position, so a stream read
    through normal() is never also drawn through stream().
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[int, np.random.Generator] = {}
        self._normals: dict[int, Iterator[float]] = {}  # the normal() blocks

    def stream(self, stream_id: int) -> np.random.Generator:
        sid = int(stream_id)
        if sid not in self._streams:
            key = np.array([self.seed, sid], dtype=np.uint64)
            self._streams[sid] = np.random.Generator(np.random.Philox(key=key))
        return self._streams[sid]

    def normal(self, stream_id: int) -> float:
        """The stream's next standard normal, as a Python float."""
        try:
            return next(self._normals[stream_id])
        except (KeyError, StopIteration):
            sid = int(stream_id)
            block = iter(self.stream(sid).standard_normal(_NORMAL_BLOCK)
                         .tolist())
            self._normals[sid] = block
            return next(block)


def rk4_stages(f: Callable[..., tuple], state, dt: float,
               *args) -> tuple[list, tuple]:
    """One classical RK4 step of xdot = f(x, *args) on six Python floats.

    `state` is a 6-sequence of floats and f returns a 6-tuple of them. Each
    component is computed in the order the array form
    `x + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)` evaluates it, so the result is
    bit-identical to it. Returns (next state, stage states): the four states
    the stage derivatives were taken at; the first is `state` itself.
    """
    h = 0.5 * dt
    a0, a1, a2, a3, a4, a5 = state
    p0, p1, p2, p3, p4, p5 = f(state, *args)
    x2 = [a0 + h * p0, a1 + h * p1, a2 + h * p2,
          a3 + h * p3, a4 + h * p4, a5 + h * p5]
    q0, q1, q2, q3, q4, q5 = f(x2, *args)
    x3 = [a0 + h * q0, a1 + h * q1, a2 + h * q2,
          a3 + h * q3, a4 + h * q4, a5 + h * q5]
    w0, w1, w2, w3, w4, w5 = f(x3, *args)
    x4 = [a0 + dt * w0, a1 + dt * w1, a2 + dt * w2,
          a3 + dt * w3, a4 + dt * w4, a5 + dt * w5]
    z0, z1, z2, z3, z4, z5 = f(x4, *args)
    c = dt / 6.0
    x_next = [a0 + c * (p0 + 2.0 * q0 + 2.0 * w0 + z0),
              a1 + c * (p1 + 2.0 * q1 + 2.0 * w1 + z1),
              a2 + c * (p2 + 2.0 * q2 + 2.0 * w2 + z2),
              a3 + c * (p3 + 2.0 * q3 + 2.0 * w3 + z3),
              a4 + c * (p4 + 2.0 * q4 + 2.0 * w4 + z4),
              a5 + c * (p5 + 2.0 * q5 + 2.0 * w5 + z5)]
    return x_next, (state, x2, x3, x4)
