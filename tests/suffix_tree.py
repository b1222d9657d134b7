"""The segment-tree suffix kernel that the exact-gain solvers once used,
kept as a test oracle for the entry-list solvers that replaced it."""

from feedalloc.core import discount_powers


class SuffixTree:
    """The occupied slots of an allocation, kept for suffix queries.

    A segment tree over slots 0..num_slots.  Each node covering slots
    [lo, lo + width) holds (count, sum of r * (1-q)^(slot - lo + rank)),
    where rank counts the node's occupied slots before ``slot``; a parent
    combines its children as  left + (1-q)^(width/2 + left.count) * right.
    Sums are relative to each node's first slot, so no node value underflows
    where the direct evaluation of the same suffix does not.  Insert, remove
    and ``suffix`` take O(log m).
    """

    def __init__(self, num_slots, q):
        size = 1 << (num_slots + 1).bit_length()  # a power of 2 > m + 1
        self._size = size
        self._count = [0] * (2 * size)
        self._value = [0.0] * (2 * size)
        self.powers = discount_powers(q, 2 * size + 1)

    def insert(self, slot, reward):
        """Occupy ``slot`` (which must be free) with ``reward``."""
        self._set(slot, 1, reward)

    def remove(self, slot):
        """Free the occupied ``slot``."""
        self._set(slot, 0, 0.0)

    def _set(self, slot, count, value):
        counts, values, powers = self._count, self._value, self.powers
        v = self._size + slot
        counts[v] = count
        values[v] = value
        half = 1
        v >>= 1
        while v:
            left = 2 * v
            c = counts[left]
            counts[v] = c + counts[left + 1]
            values[v] = values[left] + powers[half + c] * values[left + 1]
            half <<= 1
            v >>= 1

    def suffix(self, base):
        """(count, f_base): the number of occupied slots after ``base`` and
        the suffix objective over them, sum of r * (1-q)^(slot - base + rank)
        with rank counted among those slots (``suffix_value``'s fold)."""
        counts, values, powers = self._count, self._value, self.powers
        lo = base + 1          # first slot of node v
        v = self._size + lo
        end = 2 * self._size
        width = 1
        total = 0.0
        count = 0
        while v < end:
            if v & 1:
                c = counts[v]
                if c:
                    total += powers[lo - base + count] * values[v]
                    count += c
                v += 1
                lo += width
            v >>= 1
            end >>= 1
            width <<= 1
        return count, total
