from .baselines import (
    DfsStack,
    RandDfsPolicy,
    RandomPolicy,
    random_act,
    randdfs_act,
)
from .policy import (
    CategoricalHead,
    GridAction,
    GridDecoder,
    ValueHead,
)
