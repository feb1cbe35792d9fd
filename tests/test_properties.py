"""Property-based checks of the structural invariants."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgn import corpus as cp
from dgn import graph as gr
from dgn import nn, oracle
from dgn import prototype as pt
from tests.helpers import dense_adjacency, eval_only_pooled
from tests.test_oracle import graph_over
from tests.test_prototype import omega_in_blocks_of, presence_corpus

label_grids = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.integers(min_value=0, max_value=6),
)

dims = st.integers(min_value=1, max_value=9)

F32_MAX = float(np.finfo(np.float32).max)
F32_SUBNORMAL = float(np.float32(1e-45))

float32_grids = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@given(float32_grids)
@example(np.array([[[-0.0, 0.0, F32_SUBNORMAL, -F32_SUBNORMAL, F32_MAX, -F32_MAX]]], dtype=np.float32))
@settings(max_examples=50, deadline=None)
def test_feature_map_save_and_load_is_the_identity(values):
    fm = cp.FeatureMap(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.dgnf"
        cp.save_feature_map(fm, path)
        loaded = cp.load_feature_map(path)
    assert loaded.values.dtype == np.float32
    # bit for bit, so -0.0 keeps its sign
    assert loaded.values.shape == values.shape
    assert loaded.values.tobytes() == values.tobytes()


@given(label_grids, dims, dims)
def test_nn_resize_presence_never_grows(grid, out_w, out_h):
    m = cp.LabelMap(grid, 7)
    out = cp.nn_resize(m, out_w, out_h)
    assert (out.height, out.width) == (out_h, out_w)
    # every id present after the resize was present before it
    assert not (cp.presence_mask(out) & ~cp.presence_mask(m)).any()


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
def test_cross_entropy_non_negative_and_its_delta_sums_to_zero(logits, data):
    target = data.draw(st.integers(min_value=0, max_value=logits.size - 1))
    loss, delta = nn.cross_entropy(logits, target)
    assert loss >= 0.0
    # softmax - onehot: every entry but the target's in [0, 1], the target's in [-1, 0]
    assert -1.0 <= delta[target] <= 0.0 and np.all((delta >= 0.0) | (np.arange(delta.size) == target))
    assert abs(delta.sum()) <= 1e-15 * delta.size


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
    # a random symmetric prototype over a random 1 x n map of its 4 ids
    rng = np.random.default_rng(seed)
    omega = rng.random((4, 4))
    labels = rng.integers(0, 4, size=(1, n))
    v, a, _ = graph_over(rng.standard_normal((1, n, c)) * 10, labels, (omega + omega.T) / 2)
    out = nn.propagate(a, np.eye(c))  # the identity weight propagates V itself
    assert np.abs(out).max() <= np.abs(v).max() + 1e-12


@settings(max_examples=50)
@given(
    label_grids.filter(lambda g: g.size <= 30),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_label_space_adjoint_identity(grid, c, sparsity, seed):
    # gap(M V) = (M^T 1/n)^T V: eval-only pooling weighs V by the adjoint of
    # the label-space adjacency, zero-affinity rows included
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
    expected = nn.gap(oracle.naive_propagate(dense_adjacency(grid.reshape(-1), proto), v))
    assert np.abs(eval_only_pooled(adjacency) - expected).max() <= 1e-12


@given(label_grids)
def test_present_ids_from_one_count_are_np_unique(grid):
    # build_graph's present ids, node indices among them and label counts
    ids = grid.reshape(-1)
    for fast, slow in zip(gr._unique_ids(ids), np.unique(ids, return_inverse=True, return_counts=True)):
        assert fast.dtype == slow.dtype
        np.testing.assert_array_equal(fast, slow)
    proto = pt.Prototype(7, np.ones((7, 7)), pt.CooccurrenceMode.INDEPENDENT, pt.DispersionMetric.COEFF_VAR, True, 2)
    a = gr.build_graph(cp.FeatureMap(np.zeros((*grid.shape, 1))), cp.LabelMap(grid, 7), proto)
    np.testing.assert_array_equal(a.inverse, np.unique(ids, return_inverse=True)[1])


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


@st.composite
def block_corpora(draw):
    """1-4 classes over 1-12 objects, 1-4 instances per class, any presence sets."""
    C = draw(st.integers(min_value=1, max_value=4))
    L = draw(st.integers(min_value=1, max_value=12))
    objects = st.sets(st.integers(min_value=0, max_value=L - 1), min_size=1)
    groups = [
        (scene, draw(objects))
        for scene in range(C)
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return presence_corpus(C, L, groups)


@given(block_corpora())
@settings(max_examples=25, deadline=None)
def test_prototype_bytes_do_not_depend_on_the_block_size(corpus):
    for mode in pt.CooccurrenceMode:
        for metric in pt.DispersionMetric:
            for passivated in (True, False):
                one_row = omega_in_blocks_of(1, corpus, mode, metric, passivated)
                whole = omega_in_blocks_of(corpus.vocab_size, corpus, mode, metric, passivated)
                assert one_row.tobytes() == whole.tobytes()


@st.composite
def many_class_corpora(draw):
    """1-12 classes over 1-10 objects, 1-3 instances per class, any presence sets.

    From C = 8 numpy sums a single column pairwise, not class by class.
    """
    C = draw(st.integers(min_value=1, max_value=12))
    L = draw(st.integers(min_value=1, max_value=10))
    objects = st.sets(st.integers(min_value=0, max_value=L - 1), min_size=1)
    groups = [
        (scene, draw(objects))
        for scene in range(C)
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return presence_corpus(C, L, groups)


@given(many_class_corpora(), st.data())
@settings(max_examples=12, deadline=None)
def test_prototype_matches_the_oracle_at_any_block_size_and_scene_order(corpus, data):
    C, L = corpus.num_classes, corpus.vocab_size
    entries = data.draw(st.integers(min_value=1, max_value=C * L * L), label="POSTERIOR_BLOCK_ENTRIES")
    perm = data.draw(st.permutations(range(C)), label="scene ids")
    relabeled = cp.Corpus(
        C, L, tuple(cp.Instance(perm[inst.scene_id], inst.label_map) for inst in corpus.instances)
    )
    for mode in pt.CooccurrenceMode:
        for metric in pt.DispersionMetric:
            for passivated in (True, False):
                whole = pt.build_prototype(corpus, mode, metric, passivated).omega
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(pt, "POSTERIOR_BLOCK_ENTRIES", entries)
                    blocked = pt.build_prototype(corpus, mode, metric, passivated).omega
                assert blocked.tobytes() == whole.tobytes()
                scenes = pt.build_prototype(relabeled, mode, metric, passivated).omega
                assert scenes.tobytes() == whole.tobytes()
                naive = oracle.naive_prototype(corpus, mode, metric, passivated).omega
                assert np.abs(whole - naive).max() <= 1e-12
