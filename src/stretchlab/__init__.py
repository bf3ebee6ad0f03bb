"""Computational best-Lipschitz / earthquake duality on genus-2 surfaces.

Submodules:

- lorentz: exact R^{2,1} / so(2,1) linear algebra
- fuchsian: genus-2 words, the octagon representation, lengths, K bounds
- cocycle: twisted 1-cocycles over Ad(sigma)
- lamination: weighted multicurves and Lie-algebra-valued transverse measures
- earthquake: Fenchel-Nielsen twists, length derivatives, duality checks
- mesh: triangulated fundamental octagon, discrete 1-forms
- pharmonic: discrete p-Schatten harmonic map solver and its currents
- cli: the `stretchlab` experiment runner
"""

__version__ = "0.1.0"

from . import lorentz
from . import fuchsian
from . import cocycle
from . import lamination
from . import earthquake
from . import mesh
from . import pharmonic

