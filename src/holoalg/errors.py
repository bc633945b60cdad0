"""Exception hierarchy for holoalg.

Every failure mode of the library raises a subclass of :class:`HoloalgError`,
so callers (and the CLI) can distinguish bad mathematical input from
programming errors.  Validation errors carry the first violated identity and
its indices in the message.
"""


class HoloalgError(Exception):
    """Base class for all holoalg errors."""


class SchemaError(HoloalgError):
    """A file did not parse under its documented JSON schema."""


# --- algebra construction / arithmetic -------------------------------------

class NotCommutative(HoloalgError):
    """A structure tensor violates alpha^i_{jk} = alpha^i_{kj}."""


class NotAssociative(HoloalgError):
    """A structure tensor violates the associativity contraction identity."""


class NoUnit(HoloalgError):
    """The unit-law linear system for the tensor is inconsistent."""


class AlgebraMismatch(HoloalgError):
    """Operands belong to different algebras."""


class NotAUnit(HoloalgError):
    """Element has a singular regular representation; no inverse exists."""


class DecompositionRequired(HoloalgError):
    """The requested operation needs an attached decomposition."""


class NotNilpotent(HoloalgError):
    """Element expected in the nilradical is not nilpotent."""


# --- decomposition ----------------------------------------------------------

class ClusteringAmbiguous(HoloalgError):
    """Eigenvalue clusters of the generic element stayed too close after retries,
    or the idempotents found do not split the dimension into integer traces."""


# --- morphisms --------------------------------------------------------------

class NotMultiplicative(HoloalgError):
    """Candidate morphism matrix breaks multiplicativity on a basis pair."""


class NotUnital(HoloalgError):
    """Candidate morphism does not map the source unit to the target unit."""


class NotDetermined(HoloalgError):
    """Idempotent image is neither ~0 nor ~1; factorization dichotomy fails."""


# --- differential systems ---------------------------------------------------

class SamplerFailure(HoloalgError):
    """A function sampler raised while being evaluated."""


class NonSquare(HoloalgError):
    """Jacobian comparison requires an endomorphism (square Jacobian)."""


class RankDeficient(HoloalgError):
    """Derivative samples do not span the codomain; recovery underdetermined."""


class InvalidRecovered(HoloalgError):
    """Recovered constants fail the defining identities post-hoc."""


class SingularDerivative(HoloalgError):
    """Newton step hit a non-invertible derivative."""


class NoConvergence(HoloalgError):
    """Iteration exhausted its step budget without meeting tolerance."""


# --- a-priori estimates ----------------------------------------------------

class EstimateViolated(HoloalgError):
    """A computed result breaks an estimate it must satisfy: the norm estimate
    of a contour integral, the Cauchy derivative bound of a Taylor coefficient,
    or the norm independence of a series radius."""


# --- series -----------------------------------------------------------------

class OutsideScalarDomain(HoloalgError):
    """Query point's spectral part lies outside the stored scalar domain."""


# --- contours ---------------------------------------------------------------

class NotSmooth(HoloalgError):
    """Sampled path used where a piecewise-C1 flag is required."""


class QuadratureNoConvergence(HoloalgError):
    """Adaptive quadrature exhausted its depth or panel budget."""


class NotAdmissible(HoloalgError):
    """Point lies in the forbidden zone of the cycle."""


class WindingUnresolved(HoloalgError):
    """The point lies on the projected curve, so its winding number is undefined."""


class IndexNotInvertible(HoloalgError):
    """Dividing by the index was requested but some component is zero."""
