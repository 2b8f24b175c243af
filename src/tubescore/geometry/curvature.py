"""Extrinsic curvature data at coordinate rows, in deterministic frames."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Manifold


@dataclass(frozen=True, eq=False)
class CurvatureBundle:
    """Second-fundamental-form data of M at n points, one row each.

    ``frames`` are the (n, D, D) frames of ``Manifold.frames_batch``: d
    tangent rows, then the normal rows.  Matrices are expressed in those
    tangent rows; ``second_fundamental[i, a]`` is the shape operator for
    normal row a (for our geometries II is frame-diagonal so shape operator
    and form coefficients coincide).  ``weingarten_mean`` is W_H for the
    mean curvature vector H = sum_a tr(h_a) n_a, ``shape_sum`` is
    sum_a h_a^2, and ``ricci`` is the intrinsic Ricci operator, which must
    satisfy the Gauss identity Ric = W_H - sum_a h_a^2.
    """

    frames: np.ndarray
    second_fundamental: np.ndarray
    weingarten_mean: np.ndarray
    shape_sum: np.ndarray
    ricci: np.ndarray

    @property
    def tangent_frames(self) -> np.ndarray:
        return self.frames[:, :self.ricci.shape[1]]

    def mean_curvature_vector(self) -> np.ndarray:
        coeffs = np.einsum("naii->na", self.second_fundamental)
        return np.einsum("na,naD->nD", coeffs,
                         self.frames[:, self.ricci.shape[1]:])

    def gauss_residual(self) -> np.ndarray:
        """Max-norm defect of Ric - (W_H - S) per row; zero when consistent."""
        defect = self.ricci - (self.weingarten_mean - self.shape_sum)
        return np.abs(defect).max(axis=(1, 2))

    def extrinsic_operator(self) -> np.ndarray:
        """The tangent operator (1/2) W_H - Ric, in the tangent frames."""
        return 0.5 * self.weingarten_mean - self.ricci

    def extrinsic_operator_shape_form(self) -> np.ndarray:
        """Equivalent form S - (1/2) W_H via the Gauss identity."""
        return self.shape_sum - 0.5 * self.weingarten_mean

    def frame_residual(self) -> np.ndarray:
        """Orthonormality defect of each row's frame."""
        gram = self.frames @ self.frames.transpose(0, 2, 1)
        return np.abs(gram - np.eye(gram.shape[1])).max(axis=(1, 2))

    def apply_extrinsic(self, tangent_rows: np.ndarray) -> np.ndarray:
        """Apply (1/2) W_H - Ric to ambient tangent rows, one per point."""
        tf = self.tangent_frames
        coeffs = np.einsum("nkD,nD->nk", tf, tangent_rows)
        out = np.einsum("nij,nj->ni", self.extrinsic_operator(), coeffs)
        return np.einsum("nk,nkD->nD", out, tf)


def build_bundle(manifold: Manifold, coords: np.ndarray) -> CurvatureBundle:
    coords = np.asarray(coords, dtype=float)
    h = manifold.second_fundamental(coords)
    traces = np.einsum("naii->na", h)
    return CurvatureBundle(
        frames=manifold.frames_batch(coords),
        second_fundamental=h,
        weingarten_mean=np.einsum("na,naij->nij", traces, h),
        shape_sum=np.einsum("naik,nakj->nij", h, h),
        ricci=manifold.ricci_matrix(coords),
    )
