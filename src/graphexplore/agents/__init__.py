from .baselines import RandDfsPolicy, RandomPolicy, random_act
from .policy import CategoricalHead, ValueHead
