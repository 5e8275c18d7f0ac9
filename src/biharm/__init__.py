"""C0 finite elements for the clamped biharmonic problem on polygons.

The fourth-order problem (squared Laplacian with clamped boundary
conditions) is decoupled into standard second-order solves: an optional
Poisson pre-step manufacturing a rotational source, a Stokes solve whose
velocity is the rotated gradient of the unknown, and a Poisson post-step
recovering the scalar unknown from the velocity.  Corner singularities on
non-smooth domains are resolved by grading the triangulation toward the
flagged corners with one contraction factor.
"""

__version__ = "0.1.0"

from .corners import beta0, solve_alpha0

__all__ = ["beta0", "solve_alpha0", "__version__"]
