"""Symbol message passing (SMP) decoding of q-ary regular LDPC codes.

The package covers the full pipeline for the q-ary symmetric channel (QSC):

* ``galois``: arithmetic over GF(2^m) via exp/log tables.
* ``code``: sampling and validation of labeled regular Tanner graphs,
  and writing them as text.
* ``channel``: QSC model, capacity, log-likelihood weights, Shannon limits.
* ``smp``: the symbol message passing decoder.
* ``de``: density evolution, exact and via efficient upper/lower bounds.
* ``analysis``: decoding-threshold search and threshold tables.
* ``montecarlo``: finite-length symbol/frame error rate estimation.
* ``cli``: command-line interface over all of the above.
"""

__version__ = "0.1.0"
