import pytest

from pdcg import ExperimentConfig


@pytest.fixture()
def certify_config():
    # instance from the certified-bound regime (scaled loss)
    return ExperimentConfig(loss="hinge", regularizer="squared_l2", n=60, p=12, mu=1.0, seed=11, scale=20.0 / 60,
                            max_iters=300)
