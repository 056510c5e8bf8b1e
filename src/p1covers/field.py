"""Exact arithmetic in prime fields F_p and extension fields F_{p^m}.

An element of F_{p^m} is encoded as an integer code in [0, p^m): the
base-p digits of the code, constant digit first, are the coefficients of
the residue modulo the defining polynomial. That encoding *is* the fixed
element order used everywhere (constant term fastest).

Every field of order up to `TABLE_LIMIT` gets flat q*q lookup tables for
add and mul (entry `a*q + b`) plus neg and inv, built when the field is
made, so that downstream polynomial loops run at table speed; a - b is
a + (-b), and a loop that subtracts a product folds the sign into the
multiplier. F_q^* is cyclic, so the powers of its least primitive
element, the first g of 1, 2, ... with g^((q-1)/r) != 1 for each prime r
dividing q-1, give exp/log tables, and the field keeps them. Each
multiplication row is the exp list read at shifted logs, each addition
row an earlier row translated by p^k (k the lowest nonzero digit). The
build costs about q field products and O(q) Python steps; the q^2
entries are filled by C-level gathers and share one int object per code.
A larger field keeps the read-only stand-ins every field starts with
(`_Computed`, `_ComputedPair`), whose entry at `a*q + b` (at `a` for neg
and inv) is computed when read. So `FieldSpec`'s ops and `poly`'s raw
layer index one way; only this module decides which kind a field has,
and `FieldSpec.tabled` reports it to the callers that choose by it:
root finding, which scans the codes of a tabled field, and `poly`'s
modular powers and traces, which above the limit run on packed residues
(`_PackedResidues`). Computed products are packed-integer products: each
operand's digits packed into one int, one int multiply, and reduction
by the packed rows x^(m+k) mod the modulus. A residue modulo a monic h
of degree k over the field packs its k coefficients the same way, one
after another, so a product in F_q[x]/(h) is one int multiply too,
reduced by packed rows x^t mod h and the same rows mod the modulus.
Every field reads a code in chunks of c base-p digits, c the largest
with p^c <= `TABLE_LIMIT`, from one table of p^c entries holding each
chunk's digits and packing: `decode` joins chunk digits (one lookup in
a field of one chunk), and an operand's packing ORs its chunks'
packings shifted into place.

Text is read by one term reader (`_split_top`, `_sum_terms`), shared by
field elements, `Poly.parse` and `Cover.parse`. Spaces are ignored. A
sum is one or more terms joined by `+` or `-`, the first optionally
signed; a term is `c`, `v`, `c*v`, `v^k` or `c*v^k`, with k a decimal
integer of at most `MAX_EXPONENT` (1024), so no text asks for more room
than that. An element is an integer (reduced mod p) or, in F_{p^m} with
m > 1, a bracketed sum in v = u with integer coefficients and k < m,
such as `[2*u^2 - u + 1]`. A polynomial is a sum in v = x (or X) whose
coefficients are elements. A cover is `g / h`, or `g` for `g / 1`.
Brackets do not nest, and every integer goes through one checked
conversion, so malformed text raises `InputError`.

Text is written by `FieldSpec.element_str`, which every printed element,
polynomial coefficient and divisor point goes through. A field of at
most `TABLE_LIMIT` elements reads it from a list of every code's text,
built on the first call, so making a field costs no formatting; a larger
field formats each code on its first print and keeps that text, so its
memo grows only with the distinct codes printed. Sums are written by one
term writer, `_write_sum`, the reader's inverse: the bracketed sum in u
of an element, `Poly.to_str` and the two sides of `Mobius.to_str`.

This module only knows field elements: every polynomial step it needs
runs on `poly`'s raw layer. Field construction is deterministic:
`make_field(p, m)` picks the lexicographically least monic irreducible
modulus of degree m over F_p, comparing coefficient sequences low degree
first, and tests each candidate with Rabin's test over F_p. Untabled
inversion is extended Euclid against the modulus over F_p. Embeddings
between fields send the source generator to the least root of the source
modulus in the target: one root comes from splitting the modulus there
(`poly._split_root`, whose splitters skip the prime field: they take one
value on the whole orbit), and the others are its Frobenius conjugates.
So embeddings are deterministic too.
"""

from __future__ import annotations

import functools
import re
from itertools import accumulate, product
from operator import itemgetter

from .errors import InputError

PRIME_LIMIT = 13
MAX_EXT_DEGREE = 12
MAX_EXPONENT = 1024
TABLE_LIMIT = 729


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Modulus search: Rabin's test on poly's raw layer over F_p. poly imports
# this module, so its functions are imported where they are called.


def _irreducible(p, coeffs):
    """Rabin test for a monic polynomial given by its full coefficient list."""
    from .poly import raw_gcd, raw_pow_mod, raw_sub
    P = _make_field_cached(p, 1)
    m = len(coeffs) - 1
    x = [0, 1]
    if raw_pow_mod(P, x, p ** m, coeffs) != x:
        return False
    for t in _prime_divisors(m):
        g = raw_gcd(P, raw_sub(P, raw_pow_mod(P, x, p ** (m // t), coeffs), x), coeffs)
        if len(g) != 1:
            return False
    return True


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _least_irreducible(p, m):
    """Lexicographically least monic irreducible of degree m over F_p."""
    # the constant term, which product() varies slowest, is nonzero: else
    # x divides the candidate
    for tail in product(range(1, p), *[range(p)] * (m - 1)):
        coeffs = list(tail) + [1]
        if _irreducible(p, coeffs):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# The term reader behind parse_element, Poly.parse and Cover.parse, and the
# term writer behind the printed forms; the grammar is in the module
# docstring.


def _int(text):
    """The reader's one integer conversion."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"expected an integer, got {text!r}") from None


@functools.lru_cache(maxsize=None)
def _pieces(seps):
    # from the start or a separator up to the next separator outside
    # [...]; a bracket outside a [...] pair ends a piece too
    seps = re.escape(seps)
    return re.compile(rf"(?:^|[{seps}])(?:[^][{seps}]|\[[^][]*\])*")


def _split_top(s, seps):
    """Cut s before each character of seps that stands outside [...]."""
    pieces = _pieces(seps).findall(s)
    if sum(map(len, pieces)) != len(s):
        raise InputError(f"unbalanced or nested brackets in {s!r}")
    return pieces


def _sum_terms(s, var):
    """(sign, coefficient text or None, exponent) for each term of the
    signed sum s in the one-character variable var. A var inside brackets
    is found too: no coefficient that holds one is well formed."""
    terms = _split_top(s, "+-")
    if len(terms) > 1 and not terms[0]:
        del terms[0]  # s opens with a sign
    for term in terms:
        sign = -1 if term[:1] == "-" else 1
        if term[:1] in ("+", "-"):
            term = term[1:]
        if not term:
            raise InputError(f"empty term in {s!r}")
        head, found, tail = term.partition(var)
        if not found:
            yield sign, term, 0
            continue
        if head and head[-1] != "*":
            raise InputError(f"malformed term {term!r} (use c*{var}^k)")
        if tail and tail[0] != "^":
            raise InputError(f"malformed term {term!r}")
        k = _int(tail[1:]) if tail else 1
        if k > MAX_EXPONENT:
            raise InputError(f"exponent {k} in {term!r} exceeds {MAX_EXPONENT}")
        yield sign, head[:-1] if head else None, k


def _write_sum(coeffs, text, var):
    """The sum of coeffs[k] var^k that _sum_terms reads back: the nonzero
    coefficients from the highest degree down, each written by text, as
    c, var, c*var or c*var^k, or "0" when there are none."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            c = text(c)
            if k:
                v = var if k == 1 else f"{var}^{k}"
                c = v if c == "1" else f"{c}*{v}"
            terms.append(c)
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------


def _pack(digits, bits):
    """The digits, lowest first, as one int, bits apart."""
    x = 0
    for d in reversed(digits):
        x = (x << bits) | d
    return x


class _Computed:
    """Read-only stand-in for the neg or inv table of a field too large to
    tabulate: t[a] computes op(a)."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __getitem__(self, a):
        return self.op(a)


class _ComputedPair:
    """Read-only stand-in for the add or mul table of a field too
    large to tabulate: t[a*q + b] computes op(a, b)."""

    __slots__ = ("op", "q")

    def __init__(self, op, q):
        self.op = op
        self.q = q

    def __getitem__(self, i):
        a, b = divmod(i, self.q)
        return self.op(a, b)


class _TextMemo(dict):
    """element_str's table for a field too large to list every code's
    text: a missing code's text is formatted once and kept."""

    __slots__ = ("fmt",)

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, code):
        text = self[code] = self.fmt(code)
        return text


class FieldSpec:
    """A concrete finite field F_{p^m}; construct via make_field."""

    __slots__ = ("p", "m", "modulus", "order", "_mul_t", "_add_t", "_neg_t",
                 "_inv_t", "_powers", "_embed_images", "_ppow", "_pack_bits",
                 "_chunk_order", "_chunks", "_chunk_shift", "_chunk_digits",
                 "_chunk_packs", "_red_digits", "_packed_red", "_strs", "__weakref__")

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.modulus = modulus  # tuple of m+1 ints over F_p, monic; None iff m == 1
        self.order = p ** m
        self._embed_images = {}
        self._strs = None  # element_str's table, built on its first call
        self._powers = None  # _primitive_powers, listed on its first call
        self._ppow = [p ** i for i in range(m)]
        # packing puts digits this many bits apart, which turns digit
        # convolution into one int multiply
        self._pack_bits = (2 * m * (p - 1) * (p - 1)).bit_length()
        # a code is read in chunks of c base-p digits, its base-p^c digits,
        # with c <= m the largest that keeps p^c <= TABLE_LIMIT (at least
        # 1); the chunk tables hold each chunk value's digits, constant
        # first (product() runs the last position fastest), and packing
        c = 1
        while c < m and p ** (c + 1) <= TABLE_LIMIT:
            c += 1
        self._chunk_order = p ** c
        self._chunks = -(-m // c)
        self._chunk_shift = c * self._pack_bits
        self._chunk_digits = [t[::-1] for t in product(range(p), repeat=c)]
        self._chunk_packs = [_pack(t, self._pack_bits) for t in self._chunk_digits]
        self._red_digits = []  # row k: x^(m+k) mod the modulus over F_p
        if m > 1:
            from .poly import raw_rem
            P, mod = _make_field_cached(p, 1), list(modulus)
            self._red_digits = [raw_rem(P, [0] * (m + k) + [1], mod) for k in range(m - 1)]
        self._packed_red = [_pack(r, self._pack_bits) for r in self._red_digits]
        # stand-ins that compute each entry; tables built on them replace them
        q = self.order
        self._add_t = _ComputedPair(self._add_slow, q)
        self._mul_t = _ComputedPair(self._mul_slow, q)
        self._neg_t = _Computed(self._neg_slow)
        self._inv_t = _Computed(self._inv_slow)
        if q <= TABLE_LIMIT:
            self._build_tables()

    @property
    def tabled(self) -> bool:
        """Whether the field got lookup tables when it was made."""
        return isinstance(self._mul_t, list)

    # -- encoding ----------------------------------------------------------

    def decode(self, code: int):
        """The m digits of code, constant first: its chunks' digit tuples,
        joined. A field of at most TABLE_LIMIT elements is one chunk."""
        r, table = self._chunk_order, self._chunk_digits
        digits = ()
        for _ in range(self._chunks):
            code, low = divmod(code, r)
            digits += table[low]
        return digits[:self.m]

    def _packed_code(self, code: int) -> int:
        """decode(code) packed _pack_bits apart: its chunks' packings,
        OR-ed into place."""
        r, table, step = self._chunk_order, self._chunk_packs, self._chunk_shift
        x = shift = 0
        while code:
            code, low = divmod(code, r)
            x |= table[low] << shift
            shift += step
        return x

    def encode(self, digits) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- arithmetic on codes -------------------------------------------------

    def _build_tables(self):
        p, q, n = self.p, self.order, self.order - 1
        codes = list(range(q))  # the one int object per code every entry shares
        exp = [codes[c] for c in self._primitive_powers()]
        log = [0] * q
        for k, c in enumerate(exp):
            log[c] = k
        # row a of mul reads exp[log a + log b] at column b != 0: slice the
        # doubled exp list at log a and gather at the logs; column 0 reads
        # the zero appended past the slice
        exp2 = exp + exp
        gather = itemgetter(n, *log[1:])
        mul = [0] * q
        for la in log[1:]:
            row = exp2[la:la + n]
            row.append(0)
            mul.extend(gather(row))
        inv = [0] + [exp[-k] for k in log[1:]]
        neg = mul[(p - 1) * q:p * q]  # the row of -1
        # add row a is row a - p^k translated by p^k, for the lowest nonzero
        # digit k of a; shift[k] gathers b + p^k at column b
        shift = []
        for pk in self._ppow:
            blk, perm = pk * p, []
            for lo in range(0, q, blk):
                perm += codes[lo + pk:lo + blk]
                perm += codes[lo:lo + pk]
            shift.append(itemgetter(*perm))
        add = codes[:]
        for a in range(1, q):
            k = 0
            while a % (self._ppow[k] * p) == 0:
                k += 1
            prev = (a - self._ppow[k]) * q
            add.extend(shift[k](add[prev:prev + q]))
        self._add_t, self._mul_t, self._neg_t, self._inv_t = add, mul, neg, inv

    def _primitive_powers(self):
        """[g^0, ..., g^(q-2)] for the least primitive element g of F_q^*,
        listed on the first call and kept: g is the first of 1, 2, ...
        with g^((q-1)/r) != 1 for every prime r dividing q-1."""
        if self._powers is None:
            n = self.order - 1
            exps = [n // r for r in _prime_divisors(n)]
            g = next(g for g in range(1, self.order)
                     if all(self.pow_code(g, e) != 1 for e in exps))
            self._powers = list(accumulate([g] * (n - 1), self.mul, initial=1))
        return self._powers

    def _mul_slow(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        prod = self._packed_code(a) * self._packed_code(b)
        bits = self._pack_bits
        mask = (1 << bits) - 1
        for k in range(2 * m - 2, m - 1, -1):
            c = (prod >> (k * bits)) & mask
            c %= p
            if c:
                prod += c * self._packed_red[k - m]
        code = 0
        for i in range(m - 1, -1, -1):
            code = code * p + ((prod >> (i * bits)) & mask) % p
        return code

    def _inv_slow(self, a: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return pow(a, -1, p)
        # extended Euclid on (modulus, a) over F_p, keeping only the
        # cofactor s_i of a in r_i = s_i*a mod modulus
        from .poly import raw_divrem, raw_mul, raw_scale, raw_sub, raw_trim
        P = _make_field_cached(p, 1)
        r0, r1 = list(self.modulus), raw_trim(list(self.decode(a)))
        s0, s1 = [], [1]
        while r1:
            quo, rem = raw_divrem(P, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, raw_sub(P, s0, raw_mul(P, quo, s1))
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible")
        return self.encode(raw_scale(P, s0, P.inv(r0[0])))

    def _add_slow(self, a: int, b: int) -> int:
        p = self.p
        return self.encode([(x + y) % p for x, y in zip(self.decode(a), self.decode(b))])

    def _neg_slow(self, a: int) -> int:
        p = self.p
        return self.encode([(-x) % p for x in self.decode(a)])

    def add(self, a: int, b: int) -> int:
        return self._add_t[a * self.order + b]

    def sub(self, a: int, b: int) -> int:
        return self._add_t[a * self.order + self._neg_t[b]]

    def neg(self, a: int) -> int:
        return self._neg_t[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul_t[a * self.order + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero field element")
        return self._inv_t[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frob_code(self, a: int) -> int:
        return self.pow_code(a, self.p)

    def pth_root_code(self, a: int) -> int:
        # Frobenius is invertible on a finite field: a^(p^(m-1)) is the p-th root
        return self.pow_code(a, self.p ** (self.m - 1))

    # -- embeddings ----------------------------------------------------------

    def embed_image(self, source: "FieldSpec") -> int:
        """Code of the image of source's generator u in this field."""
        key = (source.p, source.m)
        img = self._embed_images.get(key)
        if img is not None:
            return img
        # the roots of the source modulus are one root's Frobenius
        # conjugates over F_p, so the split skips F_p's codes 0..p-1;
        # F_p coefficients double as codes here
        from .poly import _split_root
        r = _split_root(self, list(source.modulus), _make_field_cached(self.p, 1))
        conj = []
        for _ in range(source.m):
            conj.append(r)
            r = self.frob_code(r)
        root = min(conj)
        self._embed_images[key] = root
        return root

    def embed_code(self, code: int, source: "FieldSpec") -> int:
        if source is self or (source.p, source.m, source.modulus) == (self.p, self.m, self.modulus):
            return code
        if source.p != self.p:
            raise InputError("cannot embed between fields of different characteristic")
        if self.m % source.m != 0:
            raise InputError(
                f"no embedding of GF({source.p}^{source.m}) into GF({self.p}^{self.m}): "
                "degrees do not divide")
        if source.m == 1:
            return code
        w = self.embed_image(source)
        acc = 0
        for d in reversed(source.decode(code)):
            acc = self.add(self.mul(acc, w), d)
        return acc

    # -- presentation ---------------------------------------------------------

    def element_str(self, code: int) -> str:
        """The text of code, as the term reader reads it back. A field of at
        most TABLE_LIMIT elements reads it from a list of every code's
        text, built on the first call; a larger one from a memo that
        formats each code on its first print and keeps it."""
        strs = self._strs
        if strs is None:
            strs = self._strs = (_TextMemo(self._format) if self.order > TABLE_LIMIT
                                 else [self._format(c) for c in range(self.order)])
        return strs[code]

    def _format(self, code: int) -> str:
        """An integer in F_p, else a bracketed sum in u."""
        digits = self.decode(code)
        text = _write_sum(digits, str, "u")
        return f"[{text}]" if any(digits[1:]) else text

    def parse_element(self, text: str) -> "FieldElement":
        s = text.strip().replace(" ", "")
        if not s.startswith("["):
            return FieldElement(self, _int(s) % self.p)
        if self.m == 1:
            raise InputError("bracketed element given for a prime field")
        if not s.endswith("]"):
            raise InputError(f"unbalanced brackets in element {text!r}")
        digits = [0] * self.m
        for sign, coeff, k in _sum_terms(s[1:-1], "u"):
            if k >= self.m:
                raise InputError(f"term degree {k} too large for extension degree {self.m}")
            digits[k] = (digits[k] + sign * (1 if coeff is None else _int(coeff))) % self.p
        return FieldElement(self, self.encode(digits))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, value) -> "FieldElement":
        """The one checked conversion into this field: an element of it, an
        int (reduced mod p when m = 1, else a code 0 <= value < q) or text."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise InputError("element belongs to another field")
            return value
        if isinstance(value, int):
            if self.m == 1:
                return FieldElement(self, value % self.p)
            if 0 <= value < self.order:
                return FieldElement(self, value)
            raise InputError(f"code {value} out of range for {self!r}")
        if isinstance(value, str):
            return self.parse_element(value)
        raise InputError(f"cannot coerce {value!r} into {self!r}")

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))


class _PackedResidues:
    """F_q[x]/(h) on packed ints, for a monic h of degree k >= 1 over a field
    S above the table limit: digit j of coefficient i of a residue sits in
    slot i(2m-1) + j, `bits` wide, so the 2m-1 digits of a product of two
    coefficients fit in one coefficient's slots. A product of residues is
    one int multiply, then each coefficient t = k, ..., 2k-2, its digits
    reduced mod p and its u^(m+s) terms folded by the field's rows u^(m+s)
    mod the modulus, times the packed row x^t mod h, then one pass that
    reduces the k low coefficients the same way.

    No slot sum reaches 2km(p-1)^2: a low coefficient adds at most k digit
    convolutions from the multiply and k-1 from the rows x^t, each the sum
    of at most m products below p^2, and the fold adds at most m-1 more
    such products. `bits` is that bound's bit length, so no slot carries
    into the next."""

    __slots__ = ("S", "k", "bits", "width", "_mask", "_coef_mask", "_low_mask",
                 "_fold", "_digit_shifts", "_rows")

    def __init__(self, S, h):
        p, m, k = S.p, S.m, len(h) - 1
        self.S, self.k = S, k
        self.bits = bits = (2 * k * m * (p - 1) ** 2).bit_length()
        self.width = width = (2 * m - 1) * bits
        self._mask = (1 << bits) - 1
        self._coef_mask = (1 << width) - 1
        self._low_mask = (1 << k * width) - 1
        self._fold = [(s * bits, _pack(r, bits)) for s, r in enumerate(S._red_digits, m)]
        self._digit_shifts = [j * bits for j in range(m - 1, -1, -1)]
        # rows x^t mod h for t = k, ..., 2k-2; each is x times the last,
        # its coefficient k folded by the first
        rows = [self.pack([S.neg(c) for c in h[:-1]])]
        for _ in range(k - 2):
            last = rows[-1]
            rows.append(self._reduce((last << width & self._low_mask)
                                     + (last >> (k - 1) * width) * rows[0], k))
        self._rows = rows[:k - 1]

    def pack(self, codes) -> int:
        """The residue with coefficient codes `codes`, at most k of them."""
        S, bits, x = self.S, self.bits, 0
        for c in reversed(codes):
            x = (x << self.width) | _pack(S.decode(c), bits)
        return x

    def unpack(self, x):
        """The trimmed coefficient codes of x, each slot read mod p: x may
        be a sum of packed residues."""
        p, mask, width, out = self.S.p, self._mask, self.width, []
        for i in range(self.k):
            v = x >> i * width
            code = 0
            for s in self._digit_shifts:
                code = code * p + (v >> s & mask) % p
            out.append(code)
        while out and not out[-1]:
            out.pop()
        return out

    def _reduce(self, v, n):
        """The n lowest coefficients of v, each slot sums of a polynomial in
        u of degree below 2m-1, as field elements with digits below p."""
        p, mask, bits, width = self.S.p, self._mask, self.bits, self.width
        coef_mask, fold, shifts = self._coef_mask, self._fold, self._digit_shifts
        x = 0
        for i in range(n - 1, -1, -1):
            w = v >> i * width & coef_mask
            for s, row in fold:
                d = (w >> s & mask) % p
                if d:
                    w += d * row
            c = 0
            for s in shifts:
                c = (c << bits) | (w >> s & mask) % p
            x = (x << width) | c
        return x

    def mul(self, a: int, b: int) -> int:
        prod = a * b
        k, width, coef_mask = self.k, self.width, self._coef_mask
        high = self._reduce(prod >> k * width, k - 1)  # coefficients k, ..., 2k-2
        low = prod & self._low_mask
        for row in self._rows:
            low += (high & coef_mask) * row
            high >>= width
        return self._reduce(low, k)

    def pow(self, a: int, e: int) -> int:
        if not e:
            return 1
        x = a
        for bit in bin(e)[3:]:
            x = self.mul(x, x)
            if bit == "1":
                x = self.mul(x, a)
        return x


class FieldElement:
    """Immutable element of a FieldSpec, stored as its integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is self.spec or other.spec == self.spec:
                return other.code
            raise InputError(f"field mismatch: {self.spec!r} vs {other.spec!r}")
        if isinstance(other, int):
            return self.spec.element(other).code
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        if c == 0:
            raise ZeroDivisionError("division by zero field element")
        return FieldElement(self.spec, self.spec.div(self.code, c))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.div(c, self.code))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.code))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_code(self.code, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.code == other.code and self.spec == other.spec
        if isinstance(other, int):
            return self == FieldElement(self.spec, other % self.spec.p) if self.spec.m == 1 \
                else self.code == other
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.p, self.spec.m, self.code))

    def __bool__(self):
        return self.code != 0

    def __lt__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return self.code < c

    def __str__(self):
        return self.spec.element_str(self.code)

    def __repr__(self):
        return f"{self.spec.element_str(self.code)} in {self.spec!r}"

    def digits(self):
        return self.spec.decode(self.code)


@functools.lru_cache(maxsize=None)
def _make_field_cached(p: int, m: int) -> FieldSpec:
    modulus = _least_irreducible(p, m) if m > 1 else None
    return FieldSpec(p, m, modulus)


def make_field(p: int, m: int = 1) -> FieldSpec:
    """Deterministically construct F_{p^m}.

    The modulus (for m > 1) is the lexicographically least monic
    irreducible of degree m, coefficient sequences compared low degree
    first; two calls with equal (p, m) return the same interned spec.
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise InputError(f"characteristic {p!r} is not prime")
    if p > PRIME_LIMIT:
        raise InputError(f"characteristic {p} exceeds the configured limit {PRIME_LIMIT}")
    if not isinstance(m, int) or not 1 <= m <= MAX_EXT_DEGREE:
        raise InputError(f"extension degree {m!r} out of bounds 1..{MAX_EXT_DEGREE}")
    return _make_field_cached(p, m)


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """add | sub | mul | div on two elements of the same field."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise InputError(f"unknown field operation {op!r}")


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power map a -> a^p; fixes the prime field pointwise."""
    return FieldElement(a.spec, a.spec.frob_code(a.code))


def embed(a: FieldElement, target: FieldSpec) -> FieldElement:
    """Canonical embedding of a into a target extension field.

    Sends the source generator to the least root of the source modulus
    in the target, so repeated calls agree; requires the source degree
    to divide the target degree.
    """
    return FieldElement(target, target.embed_code(a.code, a.spec))


def elements(spec: FieldSpec):
    """All p^m elements in the fixed order (constant digit fastest)."""
    return [FieldElement(spec, c) for c in range(spec.order)]
