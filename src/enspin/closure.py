"""Lie subalgebra closure inside the Clifford algebra, on blade masks.

The bracket of two basis blades is zero or +-2 times a single blade, so
the subalgebra generated by blades is spanned by blades, and the closure
is the least mask set that holds the XOR of every anticommuting pair it
contains.  blade_closure keeps that set as one Python int of 2^n bits,
bit x set iff mask x is in it, and relaxes it one generator step at a
time, in tiles that stay in cache.  CPython works on an int word by
word, so each step is a few passes over 2^n/8 bytes (2 MiB at n = 24),
with no Python object per blade and no numpy.  Its proof certifies that
the result is bracket-closed.  How that set is stored is decided here
alone: ClosureBasis answers membership, one mask or a batch, the
complement flip and the masks tile by tile, and no other module reads
the int as bytes or shifts into it.  _parity_pattern is the one pattern
builder: it gives the anticommute patterns, the delta-swap masks of
_xor_translate and, doubled once more by _negative_square_pattern, the
lemma check's predicted set, the blades that square to -1.  The rules
behind the patterns, the commutation form q in its row form
_commutation_vector and the square rule squares_to_minus_one, live in
enspin.clifford; the analysis reads only those n-bit rows and builds no
pattern.  One ceiling, MAX_AMBIENT, bounds n for every caller, and
check_ambient tests it before anything is built.  The lemma check's
counts come from enspin.deltas.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence

from .clifford import _commutation_vector, squares_to_minus_one

#: The one ceiling on the ambient dimension.  A bitset of 2^n bits is
#: 2 MiB at n = 24, and no stage holds more than a few dozen of them.
MAX_AMBIENT = 24

#: blade_closure relaxes the bitset in tiles of 2^_TILE_LOG bits (8 KiB).
_TILE_LOG = 16

_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(bits: int, start: int = 0) -> tuple[int, ...]:
    """The positions of the set bits of a non-negative int, ascending, plus start.

    bin() spells the int out, which is linear for a power-of-two base;
    reversed, its digits are the bits from position 0 up, translate
    turns them into 0/1 selector bytes, and compress picks the positions
    in C.  No Python loop runs per bit.  It spends one byte per bit up to
    the highest set one, whatever the density, which suits its dense
    readers: ClosureBasis.masks, and ClosureBasis.tile_masks, which lists
    one tile of the bitset at a time, each offset by its first position.
    """
    selectors = bin(bits)[:1:-1].encode().translate(_BIT_SELECTORS)
    return tuple(compress(range(start, start + len(selectors)), selectors))


class ClosureBasis:
    """Blade masks of a bracket-closed subalgebra, as a bitset.

    bits has bit x set iff mask x is in the closure.  The bitset's
    layout is this class's alone: a stage asks ``mask in basis``, held
    for a batch, flipped for the complement flip and tile_masks for the
    masks tile by tile, and none reads bits as bytes or shifts into it.
    held, flipped and tile_masks read the bitset through one byte view
    of 2^n/8 bytes, built afresh on each call and never kept, so it
    holds memory only while it is read.  masks, the ascending tuple, is
    built on first read.  Bases compare by identity."""

    def __init__(self, n: int, bits: int, provenance: tuple[int, ...]) -> None:
        self.n = n
        self.bits = bits
        self.provenance = provenance

    @property
    def dim(self) -> int:
        return self.bits.bit_count()

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return _set_bits(self.bits)

    def __contains__(self, mask: int) -> bool:
        """One probe: a shift of the bitset, short when mask is high, as the top blade is."""
        return self.bits >> mask & 1 == 1

    def _view(self) -> bytes:
        """The bitset as 2^n/8 bytes, or one, little-endian: mask x is bit x & 7 of byte x >> 3."""
        return self.bits.to_bytes(1 << self.n >> 3 or 1, "little")

    def held(self, masks: Iterable[int]) -> list[int]:
        """The masks that lie in the bitset, in their order: one byte view, one lookup each."""
        view = self._view()
        return [x for x in masks if view[x >> 3] >> (x & 7) & 1]

    def flipped(self) -> int:
        """The complement flip {m ^ full : m in bits}, full = 2^n - 1, as a bitset.

        For m <= full, m ^ full = full - m, so the flip is the mirror of
        the bitset: its 2^n bits read backwards, which is its bytes in
        reverse order, each bit-reversed by one lookup in a 256-entry
        table, built here so that importing this module builds none.
        Below n = 3 the one byte held its 2^n bits at its bottom, and
        the mirror leaves them at its top, so they are shifted down.
        """
        table = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))
        flipped = int.from_bytes(self._view()[::-1].translate(table), "little")
        return flipped >> 8 - (1 << self.n) if self.n < 3 else flipped

    def tile_masks(self) -> Iterator[tuple[int, ...]]:
        """The ascending masks of each 2^_TILE_LOG-bit tile that holds any, tile by tile.

        Each tile is 2^_TILE_LOG/8 bytes of the byte view, listed by
        _set_bits from its first position, so no tuple of dim ints is
        built.  An empty tile is skipped: a writer that joins the
        tuples would leave a separator alone.
        """
        view, step = self._view(), 1 << _TILE_LOG >> 3
        return filter(None, (_set_bits(int.from_bytes(view[k:k + step], "little"), 8 * k)
                             for k in range(0, len(view), step)))


def check_ambient(n: int) -> None:
    """Raise ValueError unless a closure in ambient dimension n may be built.

    n must be at least 1 and at most MAX_AMBIENT.  Nothing is allocated,
    so a caller can check the top of a range before any work starts.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if n > MAX_AMBIENT:
        raise ValueError(f"ambient dimension {n} exceeds hard ceiling {MAX_AMBIENT}")


# --- bitset kernels: patterns of 2^n bits, one bit per mask --------------

def _parity_pattern(h: int, k: int) -> int:
    """The masks x < 2^k with |x & h| odd, as a pattern.

    Built by doubling: the masks below 2^(b+1) are those below 2^b and,
    above them, the same masks with bit b set, whose parity flips when
    bit b is in h.  That is 2^k bits of work in all.
    """
    pattern, width = 0, 1
    for b in range(k):
        upper = pattern ^ ((1 << width) - 1) if h >> b & 1 else pattern
        pattern |= upper << width
        width <<= 1
    return pattern


def _xor_translate(bits: int, g: int, highs: Sequence[int]) -> int:
    """The bitset {x ^ g : x in bits}, for masks below 2^k, k = len(highs).

    One delta swap per set bit b of g (Warren, Hacker's Delight, ch. 7):
    XOR with 2^b swaps each mask x that has bit b set with x - 2^b, so
    the bits selected by highs[b], the masks with bit b set
    (_parity_pattern(1 << b, k)), trade places with the bits 2^b below.
    """
    b = 0
    while g:
        if g & 1:
            s, high = 1 << b, highs[b]
            bits = ((bits & high) >> s) | ((bits << s) & high)
        g >>= 1
        b += 1
    return bits


def _negative_square_pattern(k: int) -> int:
    """The masks x < 2^k whose blade squares to -1, |x| == 2, 3 mod 4, as a pattern.

    A grade-j blade squares to -1 iff bit 1 of j is set
    (squares_to_minus_one).  Doubling on _parity_pattern: the masks
    below 2^(b+1) are those below 2^b and, above them, the same masks
    with bit b set, one grade higher.  Bit 1 of |x| + 1 is bit 1 of |x|,
    flipped when |x| is odd, so the upper half is the lower one XOR the
    odd-grade masks below 2^b, _parity_pattern(2^b - 1, b).
    """
    pattern, width = 0, 1
    for b in range(k):
        pattern |= (pattern ^ _parity_pattern(width - 1, b)) << width
        width <<= 1
    return pattern


def blade_closure(n: int, generators: Iterable[int], *, allow_large: bool = False) -> ClosureBasis:
    """Least superset of the generator masks closed under XOR of anticommuting pairs.

    Its cardinality is the real dimension of the Lie subalgebra L that
    the generator blades G generate.  It is the set R of masks reached
    from G by steps x -> x ^ g, for g in G anticommuting with x:

    - L is spanned by the right-normed brackets [g_1, [g_2, ..., g_k]]
      with every g_i in G.  Their span V contains G and is closed under
      [g, .] for g in G, and [[g, u], v] = [g, [u, v]] - [u, [g, v]]
      shows by induction on the length of u that [u, V] lies in V for
      every right-normed u.  So V is a subalgebra, and V = L.
    - Such a bracket is +-2^(k-1) times the blade g_1 ^ ... ^ g_k when
      each g_i anticommutes with the blade of g_(i+1) ^ ... ^ g_k, and 0
      as soon as one step commutes.  So L is spanned by the blades of R.
    - Distinct blades are independent, so L closed under the bracket
      means R holds x ^ y for every anticommuting pair x, y in R, and
      R contains G.  Conversely every step of the walk stays inside any
      such superset of G.  So R is the least one.

    The bitset P starts at G and relaxes P |= (P & A_g) ^ g, where A_g
    is the anticommute pattern of g, _parity_pattern(h_g, n) for its
    row h_g = _commutation_vector(g, n), and ^ g is _xor_translate, for
    each generator in ascending order, until a whole sweep adds no bit.
    Every bit it sets is one step of the walk, so P stays inside R; it
    stops only when P holds every step from every member, and then R,
    the least such superset of G, lies inside P.  So P = R.  Each sweep
    only sets bits, so the loop ends; for the n spin generators it takes
    n - 1 or n sweeps of n steps each.

    Tiles: P is relaxed as 2^(n - c) tiles of 2^c bits, c = min(n,
    _TILE_LOG), so every pass stays in cache.  Tile i holds the masks
    x = i 2^c + y with y < 2^c.  Split g and h_g (_commutation_vector)
    the same way; then |x & h_g| = |y & h_low| + |i & h_high|, so the
    slice of A_g in tile i is the tile pattern of h_low or its
    complement, and x ^ g lands in tile i ^ g_high, translated within
    the tile by g_low.  allow_large is accepted for compatibility and
    ignored: MAX_AMBIENT is the only ceiling.
    """
    check_ambient(n)
    gens = sorted({int(g) for g in generators})
    if not gens:
        raise ValueError("generator list is empty")
    limit = 1 << n
    for g in gens:
        if g <= 0 or g >= limit:
            raise ValueError(f"generator mask {g:#x} not a nonzero mask within {n} bits")

    c = min(n, _TILE_LOG)
    low, tile_ones = (1 << c) - 1, (1 << (1 << c)) - 1
    highs = [_parity_pattern(1 << b, c) for b in range(c)]
    steps = []
    for g in gens:
        h = _commutation_vector(g, n)
        anti = _parity_pattern(h & low, c)
        steps.append((g & low, g >> c, h >> c, (anti, anti ^ tile_ones)))
    tiles = [0] * (1 << (n - c))
    for g in gens:
        tiles[g >> c] |= 1 << (g & low)
    while True:
        before = list(tiles)
        for g_low, g_high, h_high, anti in steps:
            for i in range(len(tiles)):
                hit = tiles[i] & anti[(i & h_high).bit_count() & 1]
                if hit:
                    tiles[i ^ g_high] |= _xor_translate(hit, g_low, highs)
        if tiles == before:
            break
    size = (1 << c) // 8 or 1  # a tile of under 8 bits is the only tile
    bits = int.from_bytes(b"".join(t.to_bytes(size, "little") for t in tiles), "little")
    return ClosureBasis(n=n, bits=bits, provenance=tuple(gens))


class LemmaContainment(NamedTuple):
    """Outcome of comparing a computed closure against the predicted mask set."""

    n: int
    all_expected_present: bool
    full_mask_present: bool
    full_mask_expected: bool
    missing_masks: int
    extra_masks: int
    exactly_predicted: bool
    least_missing: int | None = None  # on failure, the least predicted mask not in the closure
    least_extra: int | None = None  # and the least mask of the closure not predicted

    @property
    def passed(self) -> bool:
        return self.exactly_predicted

    def to_json(self) -> dict:
        return self._asdict()


def lemma_containment_check(n: int, basis: ClosureBasis) -> LemmaContainment:
    """Check a spin-generator closure against the predicted grade-(2,3 mod 4) span.

    One popcount of the bitset against _negative_square_pattern(n), in
    O(2^n): a mask is predicted when it has at most n bits, its grade
    is 2 or 3 mod 4, and it is not the full mask where drops_top_blade
    excludes it.  That happens only for n == 3 mod 4, where the full mask
    lies in the pattern, so it is counted out of the hits; the full mask
    is expected when it squares to -1 (squares_to_minus_one) and it is
    not dropped.
    The predicted set has lower_bound_dim(n) elements, so missing =
    lower_bound_dim(n) - hits and extra = d - hits; a mask beyond n bits
    is never a hit, so it counts as extra.  Only when a count is not 0
    is the predicted set built, with the full mask taken out where it is
    dropped, to name the least mask on each side, as the split names its
    hole: the lowest set bit of want & ~bits and of bits & ~want, for the
    predicted set want.
    """
    from .deltas import drops_top_blade, lower_bound_dim

    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    full = (1 << n) - 1
    drop_full = drops_top_blade(n)
    have, full_present = basis.bits, full in basis
    hits = (have & _negative_square_pattern(n)).bit_count() - (full_present if drop_full else 0)
    missing, extra = lower_bound_dim(n) - hits, basis.dim - hits
    least = [None, None]
    if missing or extra:
        want = _negative_square_pattern(n) & ~(drop_full << full)
        least = [(x & -x).bit_length() - 1 if x else None for x in (want & ~have, have & ~want)]
    return LemmaContainment(
        n=n, all_expected_present=missing == 0, full_mask_present=full_present,
        full_mask_expected=squares_to_minus_one(full) and not drop_full,
        missing_masks=missing, extra_masks=extra, exactly_predicted=missing == 0 and extra == 0,
        least_missing=least[0], least_extra=least[1])
