"""Physical constants, SI units throughout.

All toolkit-internal quantities are SI (Hz, m, ohm, Np/m); decibels appear
only at presentation boundaries.
"""

from __future__ import annotations

import math

# Speed of light in vacuum [m/s].
C0 = 299_792_458.0

# Vacuum wave impedance eta0 = mu0 * c0 [ohm]; the exact value is used rather
# than the common 377-ohm shorthand so results reproduce to machine precision.
ETA0 = 4e-7 * math.pi * C0
