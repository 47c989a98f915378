from .baselines import (
    DfsStack,
    QConfig,
    QTable,
    RandDfsPolicy,
    RandomPolicy,
    q_act,
    q_train,
    q_update,
    random_act,
    randdfs_act,
)
from .policy import (
    CategoricalHead,
    GridAction,
    GridDecoder,
    ValueHead,
)
