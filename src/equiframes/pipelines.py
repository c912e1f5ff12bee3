"""Ingredient assembly: triple system + Hadamard sources -> certified objects.

Default conventions (all overridable): Hadamard factors are normalized to
an all-ones first row and column; the block-side simplex removes the LAST
row of its matrix, the point-side simplex removes the FIRST (all-ones) row.
These are exactly the choices under which the parallel-class functional
certificate goes through.  Every pipeline returns (frame, result): the
CertifiedGraph whose count graphs held to its closed form.
"""
from __future__ import annotations

from equiframes.designs import find_parallel_class, make_sts, standard_embedding
from equiframes.frames import (
    FrameMatrix,
    simplex_from_hadamard,
    steiner_etf,
    tremain_etf,
    tremain_params,
)
from equiframes.graphs import (
    CertifiedGraph,
    drackn_cover,
    gs_srg,
    require_prime,
    waldron_srg,
)
from equiframes.hadamard import (
    ButsonMatrix,
    fourier,
    kronecker,
    normalize,
    real_hadamard,
    sylvester,
)
from equiframes.scalar import _refuse_array


def default_hadamard(n: int) -> ButsonMatrix:
    """Normalized real Hadamard matrix when one is constructible, else Fourier."""
    try:
        return normalize(real_hadamard(n))
    except ValueError:
        return fourier(n)


def build_tremain(
    v: int | None = None,
    h: int | None = None,
    h1: ButsonMatrix | None = None,
    h2: ButsonMatrix | None = None,
    row1: int | None = None,
    row2: int | None = None,
    parallel: bool = False,
    real: bool = False,
) -> FrameMatrix:
    """The Tremain frame of exactly one of ``v`` and ``h``.

    With ``real`` every Hadamard input must be real and the default one
    must come from a built-in real construction; otherwise the request is
    refused before anything is built, as is a frame whose Gram phase matrix
    would pass the array limit at one byte per pair.  Past m' = 127 a phase
    takes two, but then the planes (phi(m) >= 40 bytes per entry of M > N/3
    rows) are larger still, and tremain_etf refuses them.
    """
    n = tremain_params(v=v, h=h)[1]  # refuses all but exactly one of v, h
    _refuse_array((n, n), "Gram phase matrix")
    if v is None:
        v = 2 * h - 1
    r_dim = (v - 1) // 2
    if real:
        for which, given in (("first", h1), ("second", h2)):
            if given is not None and not given.is_real():
                raise ValueError(f"the real family needs real Hadamard matrices; the {which} "
                                 f"one has root order {given.root_order}")
        if h1 is None:
            h1 = normalize(real_hadamard(r_dim + 1))
    elif h1 is None:
        h1 = default_hadamard(r_dim + 1)
    if h2 is None:
        h2 = (
            normalize(kronecker(sylvester(1), h1))
            if h1.is_real()
            else default_hadamard(v + 1)
        )
    if h1.order != r_dim + 1:
        raise ValueError(f"first Hadamard matrix must have order {r_dim + 1}")
    if h2.order != v + 1:
        raise ValueError(f"second Hadamard matrix must have order {v + 1}")
    sts = make_sts(v)
    cls = None
    if parallel:
        cls = find_parallel_class(sts)
        if cls is None:
            raise ValueError(f"no parallel class available for V={v}")
    return tremain_etf(
        sts,
        standard_embedding(sts, cls),
        simplex_from_hadamard(h1, h1.order - 1 if row1 is None else row1),
        simplex_from_hadamard(h2, 0 if row2 is None else row2),
    )


def build_steiner(
    v: int,
    h1: ButsonMatrix | None = None,
    row1: int | None = None,
) -> FrameMatrix:
    """The Steiner frame of ``v`` points, refused as build_tremain's is:
    two-byte phases come with planes of phi(m) >= 40 bytes per entry of
    M >= N/6 rows, which steiner_etf refuses."""
    _refuse_array((v * (v + 1) // 2,) * 2, "Gram phase matrix")  # V points, (V + 1)/2 vectors each
    sts = make_sts(v)
    emb = standard_embedding(sts)
    if h1 is None:
        h1 = default_hadamard(sts.replication + 1)
    sim = simplex_from_hadamard(h1, h1.order - 1 if row1 is None else row1)
    return steiner_etf(sts, emb, sim)


def waldron_pipeline(h: int) -> tuple[FrameMatrix, CertifiedGraph]:
    frame = build_tremain(h=h, real=True)
    return frame, waldron_srg(frame)


def gs_pipeline(h: int) -> tuple[FrameMatrix, CertifiedGraph]:
    if h % 3 != 2:
        raise ValueError(f"the flat-functional family needs h = 2 (mod 3), got {h}")
    frame = build_tremain(h=h, parallel=True, real=True)
    return frame, gs_srg(frame)


def drackn_pipeline(
    h: int,
    p: int,
    h1: ButsonMatrix | None = None,
    h2: ButsonMatrix | None = None,
) -> tuple[FrameMatrix, CertifiedGraph]:
    """Cover from a Tremain frame whose Gram entries are p-th roots of unity."""
    require_prime(p)  # before any default input is chosen or any frame is built
    _refuse_array((h * (2 * h + 1) * p,) * 2, "cover adjacency")  # N = h(2h + 1) fibers of p
    if p == 2:
        frame = build_tremain(h=h, h1=h1, h2=h2, real=True)
    else:
        if h1 is None:
            if h != p:
                raise ValueError(f"no built-in H({p},{h}); supply the matrix as a file")
            h1 = fourier(p)
        if h2 is None:
            raise ValueError(f"no built-in H({p},{2 * h}); supply the matrix as a file")
        frame = build_tremain(h=h, h1=h1, h2=h2)
    return frame, drackn_cover(frame, p)
