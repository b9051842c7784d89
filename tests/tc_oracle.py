"""Row-list Todd-Coxeter enumerator with method-call scans: the coset-table oracle.

This is the library's enumerator before its coset table became one flat
list with the scan and the definition inlined into ``run``: one row list
per coset, a ``_define`` and a ``_scan`` method, a live-coset counter and
an exception at the cap.  Both follow the same HLT order and stop at the
same definition, so the tests require them to return equal tables.
"""

from spherecover.errors import InternalInconsistency, ValidationError
from spherecover.presentations import CosetTable, certify_table, cyclic_reduce


class _Enumerator:
    def __init__(self, pres, cap):
        self.ngens = pres.ngens
        self.cap = cap
        self.relators = [r for r in map(cyclic_reduce, pres.relators) if r]
        squares = {r for r in self.relators if len(r) == 2 and r[0] == r[1]}
        involutions = {abs(r[0]) for r in squares}
        # A squared generator gets one self-inverse column, any other
        # generator g a column for g and the next one for g^-1.
        col, inv = {}, []
        for g in range(1, pres.ngens + 1):
            c = col[g] = len(inv)
            if g in involutions:
                col[-g] = c
                inv.append(c)
            else:
                col[-g] = c + 1
                inv += [c + 1, c]
        self.col, self.inv, self.ncols = col, inv, len(inv)
        # The squares hold by construction of their columns, so only the
        # certificate reads them; each word is scanned forwards in its
        # columns and backwards in their inverses.
        self.words = []
        for rel in self.relators:
            if rel not in squares:
                word = tuple(col[l] for l in rel)
                self.words.append((word, tuple(inv[x] for x in word)))
        self.table = [[-1] * self.ncols]
        self.p = [0]
        self.n_live = 1

    def rep(self, k):
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.p[b] = a
            self.n_live -= 1
            queue.append(b)

    def _coincidence(self, a, b):
        queue = []
        self._merge(a, b, queue)
        table, inv = self.table, self.inv
        while queue:
            gamma = queue.pop()
            row = table[gamma]
            for x, y in enumerate(inv):
                delta = row[x]
                if delta == -1:
                    continue
                table[delta][y] = -1
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][x] != -1:
                    self._merge(nu, table[mu][x], queue)
                elif table[nu][y] != -1:
                    self._merge(mu, table[nu][y], queue)
                else:
                    table[mu][x] = nu
                    table[nu][y] = mu

    def _define(self, alpha, x):
        if self.n_live >= self.cap:
            raise _TableFull
        table = self.table
        beta = len(table)
        table.append([-1] * self.ncols)
        self.p.append(beta)
        self.n_live += 1
        table[alpha][x] = beta
        table[beta][self.inv[x]] = alpha

    def _scan(self, alpha, word, back):
        """Trace ``word`` from alpha both ways, defining cosets until it closes.

        ``back`` holds the inverse column of each letter of ``word``.
        """
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] != -1:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i and table[b][back[j]] != -1:
                b = table[b][back[j]]
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][back[i]] = f
                return
            self._define(f, word[i])

    def run(self):
        """Scan each live coset under every relator, then fill its row's gaps."""
        alpha = 0
        try:
            while alpha < len(self.table):
                if self.p[alpha] == alpha:
                    for word, back in self.words:
                        self._scan(alpha, word, back)
                        if self.p[alpha] != alpha:
                            break
                    else:
                        for x in range(self.ncols):
                            if self.table[alpha][x] == -1:
                                self._define(alpha, x)
                alpha += 1
        except _TableFull:
            return CosetTable(self.cap)
        return self._complete()

    def _complete(self):
        """Renumber the live cosets 0..n-1 in order, then certify the table."""
        live = [i for i in range(len(self.table)) if self.p[i] == i]
        index = {old: new for new, old in enumerate(live)}
        perms = []
        for g in range(1, self.ngens + 1):
            entries = (self.table[old][self.col[g]] for old in live)
            perms.append(tuple(index[self.rep(v)] if v != -1 else -1 for v in entries))
        table = CosetTable(self.cap, len(live), tuple(perms))
        if not certify_table(table, self.relators):
            raise InternalInconsistency("completed coset table fails its certificate")
        return table


class _TableFull(Exception):
    pass


def todd_coxeter(pres, cap):
    """The oracle's enumeration of the cosets of the trivial subgroup."""
    if cap < 1:
        raise ValidationError("coset cap must be >= 1")
    return _Enumerator(pres, cap).run()
