"""Shared fixtures and synthetic-data builders."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from vocab_bridge import BilingualDictionary, EmbeddingMatrix, Vocabulary

sys.path.insert(0, str(Path(__file__).parent))


def tok_list(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:04d}" for i in range(n)]


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_semi_orthogonal(rng, d1: int, d2: int) -> np.ndarray:
    """(d1, d2) matrix with orthonormal rows (d1 <= d2) or columns (d1 > d2)."""
    if d1 <= d2:
        q, _ = np.linalg.qr(rng.standard_normal((d2, d1)))
        return np.ascontiguousarray(q.T)
    q, _ = np.linalg.qr(rng.standard_normal((d1, d2)))
    return q


def unit_rows(rng, n: int, d: int) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_emb(tokens, rows) -> EmbeddingMatrix:
    return EmbeddingMatrix(Vocabulary(tokens), rows)


def planted_chain(rng, n: int = 500, d_src: int = 300, d_model: int = 768) -> SimpleNamespace:
    """A synthetic source/English/model triple related by known maps.

    English rows are shared latent unit vectors; source rows are the latents
    rotated by q1^T (so mapping by q1 recovers them); model rows are the
    latents pushed through a row-orthonormal q2.  The dictionary pairs each
    source token with its English twin.
    """
    latent = unit_rows(rng, n, d_src)
    q1 = random_orthogonal(rng, d_src)
    q2 = random_semi_orthogonal(rng, d_src, d_model)
    src_tokens = tok_list("l", n)
    en_tokens = tok_list("en", n)
    return SimpleNamespace(
        latent=latent,
        q1=q1,
        q2=q2,
        src_tokens=src_tokens,
        en_tokens=en_tokens,
        src=make_emb(src_tokens, latent @ q1.T),
        english=make_emb(en_tokens, latent),
        model=make_emb(en_tokens, latent @ q2),
        dictionary=BilingualDictionary(tuple(zip(src_tokens, en_tokens))),
    )
