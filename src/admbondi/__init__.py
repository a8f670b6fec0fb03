"""Energy-momentum charges of spacelike hypersurfaces at spatial and null
infinity, with mass-loss evolution under gravitational radiation."""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError
from .sphere import (SphereGrid, SphereField, build_grid, integrate,
                     project_multipole, direction_functions)
from .geometry import (Metric4Evaluator, Embedding, FrameField,
                       InitialData, ConstraintQuantities, euclidean_frame,
                       hyperboloid_frame, ricci_tensor,
                       pullback_initial_data, constraint_quantities,
                       rigidity_residual)
from .spacetimes import (KerrParameters, minkowski, schwarzschild,
                         kerr, bondi_metric,
                         hyperboloid_embedding, bondi_slice_embedding,
                         t_const_embedding, ricci_residual)
