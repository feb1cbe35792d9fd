"""A desk train makes no more Python-level calls than it did when its bound was set.

A desk-shaped A/B of training time spreads about 20 % on a small host and
needs ten or more alternating pairs, while cProfile's ``total_calls`` for
one fixed train is the same on every run.  So a per-step cost that a
change adds in Python (a helper call per tile, a wrapper in front of a
numpy method, a scratch array per block) shows here as a count above the
bound, at any speed.  A change that lowers the count lowers the bound with
it.  The counts include numpy's own Python-level calls, so they were
recorded on one build; a mismatch prints the build it ran on.
"""

import cProfile
import pstats

import numpy as np
import pytest

import dgn
from dgn import model as md
from dgn.model import AblationMode
from dgn.prototype import CooccurrenceMode, build_prototype

# the desk's 7 classes, 20 objects, 7 x 7 nodes and 32 channels, at 70
# instances: three batches of 32 in one epoch
DESK = dgn.SyntheticSpec(7, 20, train_per_class=10, test_per_class=1)
CONFIG = md.TrainConfig(epochs=1)

# total_calls of one such train, numpy 2.4.6; the baseline steps its pooled
# batches through the same head loss
CALLS = {AblationMode.BASELINE: 807, AblationMode.TRAIN_EVAL_IODP: 13775, AblationMode.FULL: 15979}


def train_calls(corpus, prototype, mode):
    """cProfile's ``total_calls`` of ``model.train`` on ``corpus`` in ``mode``."""
    profile = cProfile.Profile()
    profile.runcall(md.train, corpus, prototype, CONFIG, mode)
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module")
def desk():
    corpus = dgn.generate_synthetic_corpus(DESK)[0]
    return corpus, build_prototype(corpus, CooccurrenceMode.INDEPENDENT)


@pytest.mark.parametrize("mode", CALLS, ids=lambda mode: mode.value)
def test_a_desk_train_makes_no_more_calls_than_its_bound(desk, mode):
    # a first train in the process may import what later ones find loaded
    md.train(*desk, CONFIG, mode)
    calls = train_calls(*desk, mode)
    assert calls == train_calls(*desk, mode)
    assert calls <= CALLS[mode], f"{calls} calls against {CALLS[mode]} (numpy {np.__version__})"
