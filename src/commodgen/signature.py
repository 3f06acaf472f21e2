"""Truncated path signatures of piecewise-linear paths.

The signature of a straight segment with increment v is the tensor
exponential: level k equals v^(tensor k) / k!.  Signatures of consecutive
segments combine via Chen's identity, where the combined level k is the
convolution of the two signatures' levels over all splits i + (k - i) = k.
Iterating segment-by-segment gives the exact signature of the whole
piecewise-linear path: no quadrature, no approximation beyond truncation.

Levels are flattened row-major, so the level-k block has d^k entries and
entry (i1, ..., ik) sits at position i1 * d^(k-1) + ... + ik.  Everything
here is numpy.  `signature_levels_backward` is the hand-written reverse
pass of `signature_levels`, from which `losses` builds the signature of a
tensor as one autodiff op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DataError

MAX_COEFFS = 2_000_000


def level_sizes(dim: int, depth: int) -> list[int]:
    return [dim ** k for k in range(1, depth + 1)]


def sig_length(dim: int, depth: int) -> int:
    """Number of coefficients in levels 1..depth."""
    return sum(level_sizes(dim, depth))


def _check_budget(dim: int, depth: int) -> None:
    if depth < 1:
        raise DataError(f"signature depth must be >= 1, got {depth}")
    if dim < 1:
        raise DataError(f"path dimension must be >= 1, got {dim}")
    total, size = 0, 1
    for _ in range(depth):      # stops at the first level past the budget
        size *= dim
        total += size
        if total > MAX_COEFFS:
            raise DataError(f"signature of dimension {dim} at depth {depth} has more "
                            f"than {MAX_COEFFS} coefficients; refusing")


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattened tensor product of (..., na) and (..., nb) -> (..., na * nb)."""
    out = np.multiply(a[..., :, None], b[..., None, :])
    return out.reshape(out.shape[:-2] + (a.shape[-1] * b.shape[-1],))


def _segment_levels(delta: np.ndarray, depth: int) -> list:
    """Levels of the tensor exponential of increments `delta` (..., d)."""
    segment = [delta]
    for k in range(2, depth + 1):
        level = _outer(segment[-1], delta)
        segment.append(np.divide(level, float(k), out=level))
    return segment


def _chen(a: list, b: list) -> list:
    """Chen's identity: levels of the concatenation of two paths' signatures."""
    out = []
    for k in range(1, len(a) + 1):
        acc = a[k - 1] + b[k - 1]
        for i in range(1, k):
            np.add(acc, _outer(a[i - 1], b[k - i - 1]), out=acc)
        out.append(acc)
    return out


def signature_levels(increments: np.ndarray, depth: int, tape: list | None = None) -> list:
    """Signature levels 1..depth from segment increments of shape (..., m, d).

    Leading batch axes are carried through unchanged, each level coming back
    as (..., d^k).  Given a list as `tape`, appends each segment's (levels
    of the path before it or None, its own levels) for
    `signature_levels_backward`.
    """
    shape = increments.shape
    if len(shape) < 2:
        raise DataError(f"increments must have shape (..., m, d), got {shape}")
    _check_budget(shape[-1], depth)
    if shape[-2] < 1:
        raise DataError("need at least one segment")
    levels = None
    for j in range(shape[-2]):
        segment = _segment_levels(increments[..., j, :], depth)
        if tape is not None:
            tape.append((levels, segment))
        levels = segment if levels is None else _chen(levels, segment)
    return levels


def _contract_right(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of `_outer(a, b)` w.r.t. a, given its gradient g (..., na * nb)."""
    nb = b.shape[-1]
    return np.matmul(g.reshape(g.shape[:-1] + (-1, nb)), b[..., :, None])[..., 0]


def _contract_left(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of `_outer(a, b)` w.r.t. b, given its gradient g (..., na * nb)."""
    na = a.shape[-1]
    return np.matmul(a[..., None, :], g.reshape(g.shape[:-1] + (na, -1)))[..., 0, :]


def signature_levels_backward(increments: np.ndarray, tape: list, grads: list) -> np.ndarray:
    """Gradient w.r.t. `increments` (..., m, d) of the levels that
    `signature_levels(increments, depth, tape)` returned, given their
    gradients `grads` (one per level).

    Walks the segments in reverse.  Each tensor product's two operand
    gradients are matmul contractions of its output gradient with the other
    operand, never a broadcast product summed over an axis.
    """
    depth = len(grads)
    g_inc = np.empty(increments.shape)
    g_levels = list(grads)
    for j in range(increments.shape[-2] - 1, -1, -1):
        prefix, segment = tape[j]
        if prefix is None:
            g_seg = g_levels
        else:   # undo _chen(prefix, segment)
            g_prefix, g_seg = list(g_levels), list(g_levels)
            for k in range(2, depth + 1):
                gk = g_levels[k - 1]
                for i in range(1, k):
                    g_prefix[i - 1] = g_prefix[i - 1] + _contract_right(gk, segment[k - i - 1])
                    g_seg[k - i - 1] = g_seg[k - i - 1] + _contract_left(prefix[i - 1], gk)
            g_levels = g_prefix
        # undo _segment_levels: level k is _outer(level k - 1, delta) / k
        delta = increments[..., j, :]
        g_seg = list(g_seg)
        g_delta = 0.0
        for k in range(depth, 1, -1):
            gk = g_seg[k - 1] / float(k)
            g_seg[k - 2] = g_seg[k - 2] + _contract_right(gk, delta)
            g_delta = g_delta + _contract_left(segment[k - 2], gk)
        g_inc[..., j, :] = g_seg[0] + g_delta
    return g_inc


@dataclass
class SignatureVector:
    """Flattened signature coefficients of one path, levels 1..depth."""

    dim: int
    depth: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        expected = sig_length(self.dim, self.depth)
        if self.coeffs.shape != (expected,):
            raise DataError(f"expected {expected} coefficients for dim {self.dim} "
                            f"depth {self.depth}, got shape {self.coeffs.shape}")

    def level(self, k: int) -> np.ndarray:
        """The level-k block, shape (dim^k,)."""
        if not 1 <= k <= self.depth:
            raise DataError(f"level {k} outside 1..{self.depth}")
        sizes = level_sizes(self.dim, self.depth)
        start = sum(sizes[: k - 1])
        return self.coeffs[start : start + sizes[k - 1]]


def signature(path: np.ndarray, depth: int) -> SignatureVector:
    """Truncated signature of a single path of shape (T, d)."""
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 2 or path.shape[0] < 2:
        raise DataError(f"path must have shape (T >= 2, d), got {path.shape}")
    levels = signature_levels(np.diff(path, axis=0), depth)
    return SignatureVector(dim=path.shape[1], depth=depth,
                           coeffs=np.concatenate(levels))


def chen_product(a: SignatureVector, b: SignatureVector) -> SignatureVector:
    """Signature of the concatenated path from the two pieces' signatures."""
    if a.dim != b.dim or a.depth != b.depth:
        raise DataError("chen_product needs matching dimension and depth")
    return SignatureVector(dim=a.dim, depth=a.depth, coeffs=np.concatenate(
        _chen([a.level(k) for k in range(1, a.depth + 1)],
              [b.level(k) for k in range(1, b.depth + 1)])))
