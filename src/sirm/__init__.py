"""Skim-and-intensive reading text classifier with a from-scratch autodiff core."""

from .model import SIRMConfig, Params, ForwardTrace, sirm_forward, sirm_loss
from .tensor import Tensor, backward

__all__ = ["SIRMConfig", "Params", "ForwardTrace", "sirm_forward",
           "sirm_loss", "Tensor", "backward"]
__version__ = "0.1.0"
