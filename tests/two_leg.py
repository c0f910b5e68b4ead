"""The two-leg closure of a word set, the subcoalgebra it spans: a test oracle.

TwoLegSubcoalgebra(p, B) holds p's words closed under taking either leg of
key_delta, sorted by key_order, and the square structure constants
(j, u, v, c) of Delta(basis[j]) = sum c basis[u] (x) basis[v], all three
indices on that one basis.  It has what subcoalg._DoubledLayout reads of a
coideal (constants, counit_vector, dim, coords) and what gram and fock read
(basis), with L = R = its basis, so doubled_product on two of them is the
convolution power on the whole doubled subcoalgebra: the value the
coideal's smaller layout must equal.  subcoalg.DIM_CAP bounds its words as
it bounds a coideal's.
"""

import numpy as np

import qlevy.subcoalg
from qlevy.errors import DimCapExceeded, InvalidParameter
from qlevy.ncpoly import NcPoly


class TwoLegSubcoalgebra:
    def __init__(self, p, B):
        words, pending = set(), list(p.terms)
        while pending:
            w = pending.pop()
            if w in words:
                continue
            words.add(w)
            if len(words) > qlevy.subcoalg.DIM_CAP:
                raise DimCapExceeded(
                    f"subcoalgebra of a {len(p.terms)}-term element reached "
                    f"{len(words)} words, above cap {qlevy.subcoalg.DIM_CAP}")
            pending.extend(x for legs in B.key_delta(w) for x in legs)
        words = sorted(words, key=B.key_order)
        self.basis = [NcPoly({w: 1.0}) for w in words]
        self._index = {w: i for i, w in enumerate(words)}
        j, u, v, c = [], [], [], []
        for i, w in enumerate(words):
            for (a, b), z in B.key_delta(w).items():
                j.append(i)
                u.append(self._index[a])
                v.append(self._index[b])
                c.append(z)
        self.constants = (np.array(j, dtype=int), np.array(u, dtype=int),
                          np.array(v, dtype=int), np.array(c, dtype=complex))
        self.counit_vector = np.array([B.key_counit(w) for w in words], dtype=complex)

    def dim(self):
        return len(self.basis)

    def coords(self, p):
        x = np.zeros(self.dim(), dtype=complex)
        for w, c in p.terms.items():
            if w not in self._index:
                raise InvalidParameter(f"element outside the subcoalgebra (word {w})")
            x[self._index[w]] = c
        return x


def transfer_matrix(psi, sub):
    """Matrix of T(psi) on the basis of a TwoLegSubcoalgebra, from its
    structure constants: T(psi) b_j = sum c psi(b_v) b_u."""
    j, u, v, c = sub.constants
    vals = np.array([psi(b) for b in sub.basis], dtype=complex)
    m = np.zeros((sub.dim(), sub.dim()), dtype=complex)
    np.add.at(m, (u, j), c * vals[v])
    return m
