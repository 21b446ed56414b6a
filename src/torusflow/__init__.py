"""torusflow: a numerical laboratory for geodesic flows on Riemannian 2-tori.

The package studies how the geometry of a periodic metric on the plane
shapes the behaviour of its geodesics: escape directions and rotation
numbers, intersection patterns of lifted geodesics with their integer
translates, curve-shortening limits, minimal closed geodesics per homotopy
class, and separated-set estimates of topological entropy.
"""

__version__ = "0.1.0"
