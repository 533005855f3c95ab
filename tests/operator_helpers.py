"""An identity operator for tests that want a fidelity with A = I."""

from sdred.operators import LinearOperator


class IdentityOperator(LinearOperator):
    def __init__(self, shape):
        super().__init__(shape, shape)
        self._norm_cache = 1.0

    def _forward(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()
