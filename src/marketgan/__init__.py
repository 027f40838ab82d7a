"""marketgan: GAN toolkit for synthetic daily-return series.

Train MLP, convolutional, Wasserstein and attention GAN variants on
windowed log returns, then score the output against the statistical
regularities of real return series.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward, grad, no_grad

__all__ = ["Tensor", "backward", "grad", "no_grad", "__version__"]
