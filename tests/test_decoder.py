import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from contact_flow.decoder import (
    ENCODE_CLAMP,
    DecoderParams,
    _interp,
    _interp_matrix,
    _upsample_operands,
    decode,
    encode,
)
from contact_flow.voxelcore import (
    BinaryGrid,
    Box,
    Cylinder,
    LatentGrid,
    LBracket,
    SphereCappedBox,
    binarize,
    voxelize_primitive,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def trilinear_oracle(coarse: np.ndarray, point: np.ndarray) -> float:
    """Direct 8-corner interpolation of values at cell centers (i+0.5)/n,
    clamped to the center hull; written independently of the decoder."""
    n = coarse.shape[0]
    u = np.clip(point * n - 0.5, 0.0, n - 1.0)
    if n == 1:
        return float(coarse[0, 0, 0])
    i0 = np.minimum(np.floor(u).astype(int), n - 2)
    f = u - i0
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                wgt = (
                    (f[0] if dx else 1 - f[0])
                    * (f[1] if dy else 1 - f[1])
                    * (f[2] if dz else 1 - f[2])
                )
                total += wgt * coarse[i0[0] + dx, i0[1] + dy, i0[2] + dz]
    return float(total)


def decode_oracle(x: LatentGrid, params: DecoderParams) -> np.ndarray:
    logits = np.tensordot(x.data, params.w, axes=([3], [0]))
    N = 4 * x.n
    out = np.empty((N, N, N))
    for i in range(N):
        for j in range(N):
            for k in range(N):
                p = (np.array([i, j, k]) + 0.5) / N
                out[i, j, k] = sigmoid(params.beta * trilinear_oracle(logits, p))
    return out


def test_zero_latent_decodes_to_half():
    params = DecoderParams.default(4)
    x = LatentGrid(np.zeros((2, 2, 2, 4)))
    s = decode(x, params)
    np.testing.assert_allclose(s.data, 0.5, rtol=0, atol=1e-15)


def test_channel_pattern_along_w_gives_logistic_of_value():
    # constant latent equal to w*L in every cell: the interpolant is constant,
    # so every fine voxel (including those aligned with cell centers) reads s(beta*L)
    params = DecoderParams.default(3, beta=2.0)
    L = 0.7
    x = LatentGrid(np.broadcast_to(L * params.w, (2, 2, 2, 3)).copy())
    s = decode(x, params)
    np.testing.assert_allclose(s.data, sigmoid(2.0 * L), rtol=0, atol=1e-14)


def test_single_cell_pattern_reads_logistic_at_cell_center():
    params = DecoderParams.default(2, beta=3.0)
    L = 1.3
    data = np.zeros((2, 2, 2, 2))
    data[1, 0, 1] = L * params.w
    x = LatentGrid(data)
    logits = np.tensordot(x.data, params.w, axes=([3], [0]))
    center = (np.array([1, 0, 1]) + 0.5) / 2
    assert trilinear_oracle(logits, center) == pytest.approx(L, abs=1e-15)
    assert sigmoid(params.beta * trilinear_oracle(logits, center)) == pytest.approx(
        sigmoid(params.beta * L), abs=1e-15
    )


def test_decode_matches_brute_force_interpolation_oracle():
    rng = np.random.Generator(np.random.PCG64(11))
    params = DecoderParams.default(5, beta=2.5)
    x = LatentGrid(rng.standard_normal((2, 2, 2, 5)))
    s = decode(x, params)
    np.testing.assert_allclose(s.data, decode_oracle(x, params), rtol=0, atol=1e-12)


def test_decode_output_strictly_interior():
    params = DecoderParams.default(1, beta=50.0)
    x = LatentGrid(np.full((2, 2, 2, 1), 100.0))
    s = decode(x, params)
    assert s.data.max() < 1.0
    assert s.data.min() > 0.0


def test_decode_monotone_in_logit_grid():
    rng = np.random.Generator(np.random.PCG64(5))
    params = DecoderParams.default(2)
    base = rng.standard_normal((2, 2, 2, 2))
    s0 = decode(LatentGrid(base), params).data
    bumped = base.copy()
    bumped[1, 1, 0] += 0.5 * params.w  # raise one cell's logit
    s1 = decode(LatentGrid(bumped), params).data
    assert (s1 >= s0 - 1e-15).all()
    assert s1.sum() > s0.sum()


# ---------------------------------------------------------------------------
# the decoder adjoint's reference (oracles.decode_vjp)
#
# The shipped adjoint is the drag-window chain of guidance._energy_gradient;
# tests/test_guidance.py checks it against this reference on the whole grid.
# ---------------------------------------------------------------------------


def test_trilinear_weights_reference_matches_the_eight_corner_formula():
    # the hat-function weights, applied per axis, against the direct 8-corner
    # interpolation, at every fine voxel center
    rng = np.random.Generator(np.random.PCG64(24))
    for n in (1, 2, 3):
        coarse = rng.standard_normal((n, n, n))
        N = 4 * n
        fine = oracles.upsample(coarse, N)
        for idx in np.ndindex(N, N, N):
            want = trilinear_oracle(coarse, (np.array(idx) + 0.5) / N)
            assert fine[idx] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_vjp_of_zero_cotangent_is_zero():
    params = DecoderParams.default(3)
    x = LatentGrid(np.random.default_rng(0).standard_normal((2, 2, 2, 3)))
    g = oracles.decode_vjp(x.data, np.zeros((8, 8, 8)), params)
    assert np.count_nonzero(g) == 0


def test_vjp_matches_central_finite_differences():
    rng = np.random.Generator(np.random.PCG64(21))
    params = DecoderParams(w=np.array([1.0]), beta=1.0)
    x = LatentGrid(rng.standard_normal((2, 2, 2, 1)))
    cot = rng.standard_normal((8, 8, 8))
    analytic = oracles.decode_vjp(x.data, cot, params)
    h = 1e-5
    fd = np.zeros_like(x.data)
    flat = x.data.copy()
    for idx in np.ndindex(*flat.shape):
        xp = flat.copy()
        xm = flat.copy()
        xp[idx] += h
        xm[idx] -= h
        sp = decode(LatentGrid(xp), params).data
        sm = decode(LatentGrid(xm), params).data
        fd[idx] = np.sum(cot * (sp - sm)) / (2 * h)
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert rel < 1e-6


def test_vjp_linearity():
    rng = np.random.Generator(np.random.PCG64(22))
    params = DecoderParams.default(2)
    x = LatentGrid(rng.standard_normal((2, 2, 2, 2)))
    g1 = rng.standard_normal((8, 8, 8))
    g2 = rng.standard_normal((8, 8, 8))
    a, b = 1.7, -0.4
    combined = oracles.decode_vjp(x.data, a * g1 + b * g2, params)
    separate = a * oracles.decode_vjp(x.data, g1, params) + b * oracles.decode_vjp(x.data, g2, params)
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-12)


def test_vjp_inner_product_identity():
    # <J v, u> == <v, J^T u> for random tangent v and cotangent u
    rng = np.random.Generator(np.random.PCG64(23))
    params = DecoderParams.default(3, beta=1.5)
    x = LatentGrid(rng.standard_normal((2, 2, 2, 3)))
    v = rng.standard_normal(x.data.shape)
    u = rng.standard_normal((8, 8, 8))
    h = 1e-6
    sp = decode(LatentGrid(x.data + h * v), params).data
    sm = decode(LatentGrid(x.data - h * v), params).data
    jv_u = np.sum(u * (sp - sm)) / (2 * h)
    v_jtu = np.sum(v * oracles.decode_vjp(x.data, u, params))
    assert jv_u == pytest.approx(v_jtu, rel=1e-6)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_full_cube_saturates_logit():
    params = DecoderParams.default(4, beta=4.0)
    grid = BinaryGrid(np.ones((8, 8, 8), dtype=bool))
    lat = encode(grid, params)
    expected = np.log((1 - 1e-3) / 1e-3) / 4.0
    np.testing.assert_allclose(
        lat.data, np.broadcast_to(expected * params.w, lat.data.shape), rtol=0, atol=1e-12
    )


def test_encode_empty_block_saturates_low():
    params = DecoderParams.default(2, beta=4.0)
    data = np.zeros((8, 8, 8), dtype=bool)
    data[4:, :, :] = True  # upper half occupied, lower blocks empty
    lat = encode(BinaryGrid(data), params)
    lo = np.log(1e-3 / (1 - 1e-3)) / 4.0
    hi = np.log((1 - 1e-3) / 1e-3) / 4.0
    np.testing.assert_allclose(lat.data[0], np.broadcast_to(lo * params.w, lat.data[0].shape), atol=1e-12)
    np.testing.assert_allclose(lat.data[1], np.broadcast_to(hi * params.w, lat.data[1].shape), atol=1e-12)


def test_encode_decode_roundtrip_recovers_half_space_box():
    params = DecoderParams.default(8)
    box = Box(lo=(0, 0, 0), hi=(0.5, 1, 1))
    grid = voxelize_primitive(box, 32)
    rec = binarize(decode(encode(grid, params), params), 0.5)
    mism = np.argwhere(rec.data != grid.data)
    # mismatches may only sit within one fine voxel of a pooled block boundary
    if mism.size:
        N = 32
        dist_to_boundary = np.minimum(mism % 4, 3 - mism % 4)
        assert dist_to_boundary.min(axis=1).max() <= 1


def encode_float_mean_oracle(grid: BinaryGrid, params: DecoderParams) -> np.ndarray:
    """The block mean of the grid as float64, clamped, as a logit over beta,
    times each channel weight."""
    n = grid.resolution // 4
    p = grid.data.astype(np.float64).reshape(n, 4, n, 4, n, 4).mean(axis=(1, 3, 5))
    p = np.clip(p, ENCODE_CLAMP, 1.0 - ENCODE_CLAMP)
    return (np.log(p / (1.0 - p)) / params.beta)[..., None] * params.w


@pytest.mark.parametrize("N", [4, 8, 64])
@pytest.mark.parametrize("kind", ["random", "full", "single"])
def test_encode_is_bit_identical_to_the_float_mean(N, kind):
    rng = np.random.Generator(np.random.PCG64(N))
    n = N // 4
    if kind == "random":
        block_density = rng.random((n, 1, n, 1, n, 1))  # counts from 0 to 64 per block
        data = (rng.random((n, 4, n, 4, n, 4)) < block_density).reshape(N, N, N)
    elif kind == "full":
        data = np.ones((N, N, N), dtype=bool)
    else:
        data = np.zeros((N, N, N), dtype=bool)
        data[tuple(rng.integers(0, N, 3))] = True
    grid = BinaryGrid(data)
    params = DecoderParams.default(4)
    np.testing.assert_array_equal(encode(grid, params).data, encode_float_mean_oracle(grid, params))


def test_encode_rejects_empty_grid():
    params = DecoderParams.default(2)
    with pytest.raises(ValueError):
        encode(BinaryGrid(np.zeros((8, 8, 8), dtype=bool)), params)


@pytest.mark.parametrize(
    "prim",
    [
        Box(lo=(0.125, 0.3125, 0.3125), hi=(0.75, 0.6875, 0.6875)),
        Cylinder(axis=0, center=(0.5, 0.5), radius=0.25, lo=0.125, hi=0.875),
        LBracket(
            Box((0.125, 0.3125, 0.3125), (0.75, 0.6875, 0.6875)),
            Box((0.75, 0.3125, 0.5), (0.9375, 0.6875, 0.875)),
        ),
        SphereCappedBox(Box((0.25, 0.25, 0.125), (0.75, 0.75, 0.5)), cap_axis=2, cap_radius=0.2),
    ],
)
def test_roundtrip_iou_at_production_resolution(prim):
    params = DecoderParams.default(8)
    grid = voxelize_primitive(prim, 64)
    rec = binarize(decode(encode(grid, params), params), 0.5)
    inter = int((rec.data & grid.data).sum())
    union = int((rec.data | grid.data).sum())
    assert inter / union >= 0.9


def test_params_require_unit_norm_and_positive_gain():
    with pytest.raises(ValueError):
        DecoderParams(w=np.array([1.0, 1.0]))
    for beta in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="beta"):
            DecoderParams(w=np.array([1.0]), beta=beta)


@given(st.integers(0, 2**32 - 1))
def test_decode_values_always_in_open_interval(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = DecoderParams.default(2, beta=4.0)
    x = LatentGrid(rng.standard_normal((2, 2, 2, 2)) * 10)
    s = decode(x, params)
    assert 0.0 < s.data.min() and s.data.max() < 1.0


@pytest.mark.parametrize("n", [1, 3])
def test_decode_matches_brute_force_oracle_at_odd_resolutions(n):
    rng = np.random.Generator(np.random.PCG64(40 + n))
    params = DecoderParams.default(3, beta=1.5)
    x = LatentGrid(rng.standard_normal((n, n, n, 3)))
    s = decode(x, params)
    np.testing.assert_allclose(s.data, decode_oracle(x, params), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_upsample_transpose_is_the_adjoint_of_upsample(n):
    # `_interp` with the matrices transposed, as a drag window's adjoint takes
    # them, against the reference's contraction with the trilinear weights
    rng = np.random.Generator(np.random.PCG64(50 + n))
    coarse = rng.standard_normal((n, n, n))
    fine = rng.standard_normal((4 * n, 4 * n, 4 * n))
    A = _interp_matrix(n, 4 * n)
    back = _interp(fine, A.T, A.T, A)
    lhs = float(np.sum(_interp(coarse, *_upsample_operands(n, 4 * n)) * fine))
    rhs = float(np.sum(coarse * back))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    W = oracles.trilinear_weights(n, 4 * n)
    np.testing.assert_allclose(back, np.einsum("ai,bj,ck,abc->ijk", W, W, W, fine), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 4, 16])
def test_decode_is_bit_identical_to_the_out_of_place_logistic_and_clip(n):
    rng = np.random.Generator(np.random.PCG64(n))
    params = DecoderParams.default(3, beta=4.0)
    # a checkerboard of logits, high cells in [170, 177.4] and low cells at
    # -177.4, takes the logistic past both clip bounds (below tiny at
    # u < -177.1) without overflowing exp (at u < -177.44); interpolation
    # between the cells gives the values in between
    low = np.indices((n, n, n)).sum(axis=0) % 2 == 1
    logits = np.where(low, -177.4, rng.uniform(170.0, 177.4, (n, n, n)))
    x = LatentGrid(logits[..., None] * params.w)
    u = _interp(np.tensordot(x.data, params.w, axes=([3], [0])), *_upsample_operands(n, 4 * n))
    # the logistic and clip that decode computed before they were done in place
    expected = np.clip(
        1.0 / (1.0 + np.exp(-(params.beta * u))),
        np.finfo(np.float64).tiny,
        np.nextafter(1.0, 0.0),
    )
    got = decode(x, params).data
    assert got.tobytes() == expected.tobytes()
    assert got.max() == np.nextafter(1.0, 0.0)
    if n > 1:
        assert got.min() == np.finfo(np.float64).tiny


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_decoder_passes_are_bit_identical_to_the_view_operand_expressions(n):
    # decode multiplies by a contiguous copy of A.T and finishes the logistic
    # in the upsampled array; both must leave every byte as the three matmuls
    # with the A.T view, a logistic into a fresh array and the clip give it.
    # The drag windows' adjoint keeps its views of A: test_guidance's
    # window_chain_oracle checks it byte for byte.
    rng = np.random.Generator(np.random.PCG64(70 + n))
    params = DecoderParams.default(3, beta=4.0)
    x = LatentGrid(3.0 * rng.standard_normal((n, n, n, 3)))
    N = 4 * n
    A = _interp_matrix(n, N)
    coarse = np.tensordot(x.data, params.w, axes=([3], [0]))
    first = np.matmul(A, coarse.reshape(n, n * n)).reshape(N, n, n)
    u = np.matmul(np.matmul(A, first), A.T)
    s = 1.0 / (1.0 + np.exp(-(params.beta * u)))
    expected = np.clip(s, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
    assert decode(x, params).data.tobytes() == expected.tobytes()


def test_decode_of_a_far_negative_logit_is_tiny_without_an_overflow_warning():
    # beta * u = -800 overflows exp; the pytest filter turns a leaked
    # RuntimeWarning into an error
    params = DecoderParams.default(2, beta=4.0)
    x = LatentGrid(np.broadcast_to(-200.0 * params.w, (4, 4, 4, 2)).copy())
    s = decode(x, params).data
    assert np.all(s == np.finfo(np.float64).tiny)
