"""Desk-scale test problems with controllable gradient noise.

Every problem carries an analytic loss and true gradient plus an unbiased
noisy sampler (additive Gaussian noise for the synthetic surfaces,
uniform-with-replacement mini-batches for the data problems).  Problems are
specified by a small string DSL so parameters fit through one CLI flag:

    quad[:dim=10,noise=1.0,cond=1]        0.5 * theta' A theta, A diagonal
    rosenbrock[:dim=2,noise=0]            classic banana function
    logreg[:n=2000,d=50,seed=7,batch=64]  synthetic logistic regression
    mlp[:n=256,d=8,hidden=10,seed=7,batch=32]
                                          2-layer tanh regression network
                                          with closed-form backprop

A noisy gradient is built in the buffer of its normal draw (see
``_sampler``); ``quad`` with ``cond=1`` stores no diagonal, and with
``cond > 1`` adds ``diag * theta`` into that buffer one block at a time, so
at large dim a ``quad`` gradient sample allocates one dim-sized array:
itself.  The mini-batch problems gather their rows with ``take``.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _BLOCK
from .errors import ConfigError
from .rng import Stream, make_rng, normal

__all__ = ["Problem", "make_problem"]


@dataclass
class Problem:
    """A test problem: its loss, true gradient and noisy gradient sampler.

    ``sample_grad(theta, rng)`` takes a ``np.random.Generator`` or, under
    ``harness.run``, a ``rng.Stream`` over the run's generator.  A stream
    offers the ``Generator`` methods but is no ``Generator``; code that
    needs a real one (an ``isinstance`` check, ``np.random.default_rng``,
    a library's ``random_state``) takes ``np.random.Generator(rng.bit_generator)``,
    which shares the stream's bit generator: reading ``bit_generator``
    first puts it where per-step draws would have left it.  The gradient it
    returns must not alias ``theta``: ``harness.run`` scales theta in place
    for weight decay after the sample and before the step.

    ``theta0`` is the read-only starting point: every built-in problem's
    refuses writes, and ``quad``'s is ``np.broadcast_to(1.0, dim)``, a
    stride-0 view that holds one element whatever the dim.  ``harness.run``
    copies it once, with ``np.array(theta0, dtype=np.float64)``, and that
    copy is the run's theta; so a large-dim run holds its state, theta, one
    gradient and, for ``quad`` with ``cond > 1``, the diagonal.  Code that
    steps from ``theta0`` itself takes a copy too.  A custom problem may
    give any array.
    """

    name: str
    dim: int
    theta0: np.ndarray
    loss: Callable[[np.ndarray], float]
    true_grad: Callable[[np.ndarray], np.ndarray]
    sample_grad: Callable[[np.ndarray, np.random.Generator | Stream], np.ndarray]


def make_problem(spec: str) -> Problem:
    """Build a Problem from its DSL string (see module docstring).

    Each parameter takes its type from the factory's default, so an int
    parameter needs an integral, finite value.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown problem {name!r}; expected one of {sorted(_FACTORIES)}"
        ) from None
    defaults = {p.name: p.default for p in inspect.signature(factory).parameters.values()}
    params: dict[str, float | int] = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"malformed problem parameter {item!r} in {spec!r}")
        if key not in defaults:
            raise ConfigError(f"problem {name!r} has no parameter {key!r}; "
                              f"expected one of {sorted(defaults)}")
        try:
            parsed = float(value)
        except ValueError:
            raise ConfigError(
                f"problem parameter {key!r} must be numeric, got {value!r}"
            ) from None
        if isinstance(defaults[key], int):
            if not parsed.is_integer():  # also false for nan and inf
                raise ConfigError(
                    f"problem parameter {key!r} must be an integer, got {value!r}"
                )
            parsed = int(parsed)
        params[key] = parsed
    return factory(**params)


def _make_quad(dim: int = 10, noise: float = 0.0, cond: float = 1.0) -> Problem:
    if dim < 1:
        raise ConfigError(f"quad needs dim >= 1, got {dim}")
    if not 1.0 <= cond < np.inf:  # NaN fails too
        raise ConfigError(f"quad condition number must be finite and >= 1, got {cond}")
    if not noise >= 0.0:
        raise ConfigError(f"quad noise must be >= 0, got {noise}")
    if cond == 1.0:  # A = I: no diagonal is stored

        def loss(theta: np.ndarray) -> float:
            return 0.5 * float(np.dot(theta, theta))

        def true_grad(theta: np.ndarray) -> np.ndarray:
            return theta.copy()

        def add_mean(z: np.ndarray, theta: np.ndarray) -> None:
            z += theta

    else:
        diag = np.geomspace(1.0, cond, dim)

        def loss(theta: np.ndarray) -> float:
            return 0.5 * float(np.dot(theta, diag * theta))

        def true_grad(theta: np.ndarray) -> np.ndarray:
            return diag * theta

        def add_mean(z: np.ndarray, theta: np.ndarray) -> None:
            prod = np.empty(min(dim, _BLOCK))  # diag*theta, one block at a time
            for lo in range(0, dim, _BLOCK):
                hi = min(lo + _BLOCK, dim)
                p = prod[: hi - lo]
                np.multiply(diag[lo:hi], theta[lo:hi], out=p)
                z[lo:hi] += p

    theta0 = np.broadcast_to(1.0, dim)  # stride 0: one element of memory
    return Problem("quad", dim, theta0, loss, true_grad, _sampler(true_grad, noise, dim, add_mean))


def _sampler(true_grad, noise: float, dim: int, add_mean=None):
    """``sample_grad`` for ``true_grad(theta) + noise * z``, z standard normal.

    The gradient is built in the normal draw's buffer: ``z *= noise`` (not
    for ``noise == 1``), then ``add_mean(z, theta)`` adds the true
    gradient's values into ``z`` in place (default ``z += true_grad(theta)``).
    Float ``+`` and ``*`` commute and ``1.0 * z == z``, so the bits are the
    formula's, and the result is a fresh array that never aliases theta.
    With no noise it is ``true_grad(theta)``.
    """
    if noise == 0.0:
        return lambda theta, rng: true_grad(theta)
    if add_mean is None:

        def add_mean(z: np.ndarray, theta: np.ndarray) -> None:
            z += true_grad(theta)

    def sample_grad(theta: np.ndarray, rng: np.random.Generator | Stream) -> np.ndarray:
        z = normal(rng, dim)
        if noise != 1.0:
            z *= noise
        add_mean(z, theta)
        return z

    return sample_grad


def _make_rosenbrock(dim: int = 2, noise: float = 0.0) -> Problem:
    if dim < 2:
        raise ConfigError(f"rosenbrock needs dim >= 2, got {dim}")
    if not noise >= 0.0:
        raise ConfigError(f"rosenbrock noise must be >= 0, got {noise}")

    def loss(theta: np.ndarray) -> float:
        x, y = theta[:-1], theta[1:]
        return float(np.sum(100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2))

    def true_grad(theta: np.ndarray) -> np.ndarray:
        g = np.zeros_like(theta)
        x, y = theta[:-1], theta[1:]
        g[:-1] += -400.0 * x * (y - x * x) - 2.0 * (1.0 - x)
        g[1:] += 200.0 * (y - x * x)
        return g

    theta0 = np.where(np.arange(dim) % 2 == 0, -1.2, 1.0)
    theta0.setflags(write=False)
    return Problem(
        "rosenbrock", dim, theta0, loss, true_grad, _sampler(true_grad, noise, dim)
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so neither tail
    # overflows; exp(-|z|) is the exp of either branch, with no masking
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _make_logreg(
    n: int = 2000, d: int = 50, seed: int = 7, batch: int = 64
) -> Problem:
    if n < 1 or d < 1 or batch < 1:
        raise ConfigError("logreg needs n, d, batch >= 1")
    data_rng = make_rng(seed)
    X = normal(data_rng, n * d).reshape(n, d)
    w_true = normal(data_rng, d)
    y = (data_rng.random(n) < _sigmoid(X @ w_true)).astype(np.float64)

    def loss(theta: np.ndarray) -> float:
        z = X @ theta
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def true_grad(theta: np.ndarray) -> np.ndarray:
        return X.T @ (_sigmoid(X @ theta) - y) / n

    def sample_grad(theta: np.ndarray, rng: np.random.Generator | Stream) -> np.ndarray:
        idx = rng.integers(0, n, size=batch)
        Xb = X.take(idx, axis=0)
        return Xb.T @ (_sigmoid(Xb @ theta) - y.take(idx)) / batch

    theta0 = np.zeros(d)
    theta0.setflags(write=False)
    return Problem("logreg", d, theta0, loss, true_grad, sample_grad)


def _make_mlp(
    n: int = 256, d: int = 8, hidden: int = 10, seed: int = 7, batch: int = 32
) -> Problem:
    """Regression with a 2-layer tanh network; gradients by hand backprop."""
    if n < 1 or d < 1 or hidden < 1 or batch < 1:
        raise ConfigError("mlp needs n, d, hidden, batch >= 1")
    data_rng = make_rng(seed)
    X = normal(data_rng, n * d).reshape(n, d)
    tW1 = normal(data_rng, hidden * d).reshape(hidden, d) / np.sqrt(d)
    tb1 = 0.5 * normal(data_rng, hidden)
    tW2 = normal(data_rng, hidden).reshape(1, hidden) / np.sqrt(hidden)
    tb2 = 0.5 * normal(data_rng, 1)
    Y = np.tanh(X @ tW1.T + tb1) @ tW2.T + tb2  # (n, 1) teacher targets

    dim = hidden * d + hidden + hidden + 1
    splits = np.cumsum([hidden * d, hidden, hidden])

    def _unpack(theta: np.ndarray):
        w1, b1, w2, b2 = np.split(theta, splits)
        return w1.reshape(hidden, d), b1, w2.reshape(1, hidden), b2

    def _forward(theta, Xs):
        W1, b1, W2, b2 = _unpack(theta)
        hidden_act = np.tanh(Xs @ W1.T + b1)
        return hidden_act, hidden_act @ W2.T + b2

    def _grad_on(theta, Xs, Ys):
        W1, b1, W2, b2 = _unpack(theta)
        A = np.tanh(Xs @ W1.T + b1)
        resid = (A @ W2.T + b2 - Ys) / Xs.shape[0]
        g_w2 = resid.T @ A
        g_b2 = resid.sum(axis=0)
        d_hidden = (resid @ W2) * (1.0 - A * A)
        g_w1 = d_hidden.T @ Xs
        g_b1 = d_hidden.sum(axis=0)
        return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])

    def loss(theta: np.ndarray) -> float:
        _, pred = _forward(theta, X)
        return 0.5 * float(np.sum((pred - Y) ** 2)) / n

    def true_grad(theta: np.ndarray) -> np.ndarray:
        return _grad_on(theta, X, Y)

    def sample_grad(theta: np.ndarray, rng: np.random.Generator | Stream) -> np.ndarray:
        idx = rng.integers(0, n, size=batch)
        return _grad_on(theta, X.take(idx, axis=0), Y.take(idx, axis=0))

    init_rng = make_rng(seed + 1)
    theta0 = 0.5 * normal(init_rng, dim)
    theta0.setflags(write=False)
    return Problem("mlp", dim, theta0, loss, true_grad, sample_grad)


_FACTORIES = {
    "quad": _make_quad,
    "rosenbrock": _make_rosenbrock,
    "logreg": _make_logreg,
    "mlp": _make_mlp,
}
