"""ecinj: exact-arithmetic experiments with injective bivariate maps on
elliptic curves over Q."""

from .curve import Curve
from .injection import InjectionParams, UniquenessFunction
from .reporting import VERSION

__version__ = VERSION
