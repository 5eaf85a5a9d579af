"""Exact classification of weighted blowups of affine space.

Decides eps-log terminal / eps-log canonical status of the weighted blowup
with primitive weights n through emptiness / hollowness of lattice simplices,
runs exhaustive censuses over the index, instantiates the one-parameter
families of hollow 4-simplices, and extracts blowups from sporadic-simplex
records.  All geometry is done in exact rational arithmetic.
"""

__version__ = "0.1.0"
