"""Property-based checks of the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgn import corpus as cp
from dgn import graph as gr
from dgn import nn, oracle
from dgn import prototype as pt
from tests.test_prototype import presence_corpus

label_grids = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.integers(min_value=0, max_value=6),
)

dims = st.integers(min_value=1, max_value=9)


@given(label_grids, dims, dims)
def test_nn_resize_presence_never_grows(grid, out_w, out_h):
    m = cp.LabelMap(grid, 7)
    out = cp.nn_resize(m, out_w, out_h)
    assert (out.height, out.width) == (out_h, out_w)
    assert cp.object_presence(out) <= cp.object_presence(m)


@given(label_grids)
def test_nn_resize_same_size_identity(grid):
    m = cp.LabelMap(grid, 7)
    out = cp.nn_resize(m, m.width, m.height)
    np.testing.assert_array_equal(out.labels, m.labels)


nonneg_squares = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=8).map(lambda n: (n, n)),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@given(nonneg_squares)
def test_row_normalize_is_row_stochastic(a0):
    out = gr.row_normalize(a0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12, rtol=0)
    assert (out >= 0).all()


@st.composite
def presence_corpora(draw):
    """Every class holds one to three instances; each instance a non-empty object set."""
    num_classes = draw(st.integers(min_value=1, max_value=5))
    vocab = draw(st.integers(min_value=1, max_value=6))
    objects = st.sets(st.integers(min_value=0, max_value=vocab - 1), min_size=1)
    groups = []
    for scene in range(num_classes):
        for present in draw(st.lists(objects, min_size=1, max_size=3)):
            groups.append((scene, present))
    return presence_corpus(num_classes, vocab, groups)


@given(presence_corpora())
def test_posterior_normalizes_or_flags_no_evidence(corpus):
    counts = pt.count(corpus)
    for mode in pt.CooccurrenceMode:
        post = pt.class_posterior(counts, mode)
        assert (post >= 0).all()
        total = post.sum(axis=0)
        # a pair has evidence when some class holds both objects: in one
        # instance (non-independent) or each in some instance (independent)
        marg = counts.presence > 0
        both = {
            pt.CooccurrenceMode.NON_INDEPENDENT: counts.pair_presence > 0,
            pt.CooccurrenceMode.INDEPENDENT: marg[:, :, None] & marg[:, None, :],
        }
        seen = both[mode].any(axis=0)
        assert np.abs(total[seen] - 1.0).max(initial=0.0) <= 1e-12
        assert (post[:, ~seen] == 0).all()


@given(presence_corpora())
def test_dispersion_non_negative_and_cv_bounded(corpus):
    for mode in pt.CooccurrenceMode:
        raw = {m: pt.build_prototype(corpus, mode, m, False).omega for m in pt.DispersionMetric}
        assert all((omega >= 0.0).all() for omega in raw.values())
        # cv of a probability vector of length C is at most sqrt(C - 1)
        cv = raw[pt.DispersionMetric.COEFF_VAR]
        assert cv.max() <= np.sqrt(corpus.num_classes - 1) + 1e-12


logit_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=6),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)


@given(logit_vectors, st.data())
def test_softmax_ce_non_negative(logits, data):
    target = data.draw(st.integers(min_value=0, max_value=logits.size - 1))
    assert nn.softmax_ce(logits, target) >= 0.0


# dyadic logits and shifts keep the addition exact, so argmax order is preserved
dyadic_logits = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=6),
    elements=st.integers(min_value=-400, max_value=400).map(lambda k: k / 8.0),
)


@given(dyadic_logits, st.integers(min_value=-240, max_value=240))
def test_argmax_invariant_under_constant_shift(logits, shift_eighths):
    shift = shift_eighths / 8.0
    assert np.argmax(logits) == np.argmax(logits + shift)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=(3, 2),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
    hnp.arrays(
        dtype=np.float64,
        shape=(3, 2),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
)
def test_adam_odd_symmetry(params, grads):
    s_plus = nn.AdamState.for_params([params], lr=0.05)
    s_minus = nn.AdamState.for_params([params], lr=0.05)
    plus = nn.adam_step([params.copy()], [grads.copy()], s_plus)
    minus = nn.adam_step([-params.copy()], [-grads.copy()], s_minus)
    np.testing.assert_array_equal(plus[0], -minus[0])


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_propagation_never_expands_max_norm(n, c, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    a /= a.sum(axis=1, keepdims=True)
    v = rng.standard_normal((n, c)) * 10
    out = nn.propagate(a, v)
    assert np.abs(out).max() <= np.abs(v).max() + 1e-12


@settings(max_examples=50)
@given(
    label_grids.filter(lambda g: g.size <= 30),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_label_space_adjoint_identity(grid, c, sparsity, seed):
    # <M V, Y> = <V, M^T Y> for the label-space adjacency, zero-affinity rows included
    rng = np.random.default_rng(seed)
    omega = rng.random((7, 7)) * (rng.random((7, 7)) >= sparsity)
    proto = pt.Prototype(
        7, (omega + omega.T) / 2, pt.CooccurrenceMode.INDEPENDENT, pt.DispersionMetric.COEFF_VAR,
        True, 2,
    )
    h, w = grid.shape
    features = cp.FeatureMap(rng.standard_normal((h, w, c)))
    adjacency = gr.build_graph(features, cp.LabelMap(grid, 7), proto)
    v = features.values.reshape(h * w, c)
    y = rng.standard_normal(v.shape)
    lhs = np.sum(oracle.naive_propagate(np.asarray(adjacency), v) * y)
    rhs = np.sum(v * nn.propagate_adjoint(adjacency, y))
    assert abs(lhs - rhs) <= 1e-12


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=1, max_value=20),
        elements=st.floats(min_value=-700, max_value=700, allow_nan=False),
    )
)
def test_sigmoid_bounded(x):
    s = nn.sigmoid(x)
    assert (s >= 0).all() and (s <= 1).all()
    assert np.isfinite(s).all()
