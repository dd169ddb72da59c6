"""Self-contained dictionary compressors used as entropy-rate estimators.

Two reversible coders over an alphabet {0..N-1} share one stream format:

* ``lz78``  - incremental parsing.  Phrase k extends a previous phrase (its
  parent, one of the k phrases 0..k-1, 0 being the empty phrase) by one
  symbol.  The parent index is written in a phase-in (truncated binary) code
  over its k possible values.  The parse never extends a parent by a symbol
  it has already been extended by, so the extension symbol is written as its
  rank among the parent's m unused symbols, phase-in coded over m values:
  0 bits once only one symbol is left.  A final partial phrase is emitted as
  a bare parent index; the decoder recognizes it because the header carries
  the symbol count.

  The encoder works in two passes.  The parse grows the trie and nothing
  else; phrase k's trie edge is the k-th key inserted, so the edges give
  every phrase's (parent, symbol) pair in order.  The fields are then coded
  in numpy.  The parent's unused symbols at phrase k are all symbols but
  those of the earlier phrases with the same parent, so the symbol's rank
  among them is s - smaller[k] over N - older[k] values, where older[k]
  counts those earlier siblings and smaller[k] the ones with a symbol below
  s.  Neither needs the parse's state: a stable sort by parent gives older,
  and a merge sort of each sibling group by symbol gives smaller.

* ``castore`` - pair concatenation.  The dictionary is seeded with the N
  single symbols; each step greedily matches the longest dictionary word u,
  then the longest dictionary word v of the remainder, emits the two indices
  and adds u+v as a new word.  Index fields are ceil(log2(D+1)) bits for the
  current dictionary size D; index 0 is reserved to mark a final phrase with
  no second component.

  The encoder works in two passes as well.  The parse walks and grows the
  trie and records, per phrase, the nodes of u, v and the new word u+v.
  The u-walk runs on past u to where the trie ends, which is as far into v
  as u+v already exists, so the insert only adds nodes from there.  A
  word's index is the order in which its node became a word, so the
  indices and the records' widths, ceil(log2(N+k+1)) bits for phrase k,
  are then computed in numpy.

A phase-in code over n values with b = floor(log2 n) and u = 2**(b+1) - n
writes a value x < u in b bits and any other x as x + u in b + 1 bits.

Both encoders hand their records to :func:`_pack_fields` as (value, width)
arrays, which packs them all at once.

Stream layout: 16-byte little-endian header (magic ``EPSC``, version byte 2,
alphabet size as u16, symbol count as u64, algorithm id byte), then the
phrase records, then zero padding to a byte boundary.  Reported
``encoded_bits`` include the header.  These are estimators, not archivers:
there is no entropy-coding stage, by design.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import SymbolicSequence

MAGIC = b"EPSC"
VERSION = 2
HEADER_BYTES = 16
HEADER_BITS = HEADER_BYTES * 8
MAX_ALPHABET = 0xFFFF  # the header stores the alphabet size as u16
# longest sequence a stream may hold: a castore record can double the output,
# so a short forged stream would otherwise declare and expand to any length.
# It also bounds both dictionaries: each lz78 phrase and each new castore trie
# node consumes an input symbol, so neither holds more than n + N entries.
MAX_SYMBOLS = 1 << 24
# castore's walks read one symbol past the input; no trie key is negative
_SENTINEL = -(1 << 62)


class DecodeError(ValueError):
    """Malformed or truncated compressed stream."""


@dataclass(frozen=True)
class CompressionReport:
    """Summary of one encode: sizes and rate."""

    input_len: int
    phrase_count: int
    encoded_bits: int
    rate: float
    algorithm: str


def _bit_width(k: int) -> int:
    """Bits needed to address values 0..k-1 (0 when k == 1)."""
    return (k - 1).bit_length()


def _pack_fields(values: np.ndarray, widths: np.ndarray) -> bytes:
    """The fields (values[i], widths[i]) of 0 to 64 bits each, big-endian in
    order, zero-padded to a byte boundary."""
    values = np.asarray(values)
    widths = np.asarray(widths, dtype=np.int64)
    if values.shape != widths.shape:
        raise ValueError(f"{values.size} values for {widths.size} widths")
    bad = (widths < 0) | (widths > 64)
    if bad.any():
        raise ValueError(f"field width {widths[bad][0]} outside [0, 64]")
    wide = values.astype(np.uint64)
    shift = np.minimum(widths, 63).astype(np.uint64)
    bad = (values < 0) | ((wide >> shift != 0) & (widths < 64))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"value {values[i]} does not fit in {widths[i]} bits")
    ends = np.cumsum(widths)
    total = int(ends[-1]) if ends.size else 0
    # words[k] holds stream bits 64(k-1) .. 64k-1, big-endian; words[0] is
    # spare, for the 0 of a zero-width field at bit 0.  A field's last bit
    # lands in words[word], `shift` bits above its least significant bit
    shift = -ends & 63
    word = (ends + shift) >> 6
    words = np.zeros(((total + 63) >> 6) + 1, dtype=np.uint64)
    np.add.at(words, word, wide << shift.astype(np.uint64))
    # the high bits of a field that starts in the word before
    spill = widths > 64 - shift
    np.add.at(words, word[spill] - 1, wide[spill] >> (64 - shift[spill]).astype(np.uint64))
    return words[1:].astype(">u8").tobytes()[: (total + 7) >> 3]


class BitReader:
    """Reads back the fields :func:`_pack_fields` packed; errors carry byte offsets."""

    def __init__(self, data: bytes, start_byte: int = 0) -> None:
        self._data = data
        self._pos = start_byte * 8
        self._total = len(data) * 8

    def read(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        pos = self._pos
        end = pos + nbits
        if end > self._total:
            raise DecodeError(f"stream truncated at byte {pos // 8}")
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[pos >> 3 : last], "big")
        self._pos = end
        return (chunk >> ((last << 3) - end)) & ((1 << nbits) - 1)

    def read_phase_in(self, n: int) -> int:
        """Read one value of the phase-in code over n values (see module doc)."""
        b = n.bit_length() - 1
        u = (2 << b) - n
        pos = self._pos
        end = pos + b + 1
        last = (end + 7) >> 3
        # peek b + 1 bits; bits past the end of the stream read as 0
        chunk = int.from_bytes(self._data[pos >> 3 : last], "big")
        missing = last - len(self._data)
        if missing > 0:
            chunk <<= 8 * missing
        x = (chunk >> ((last << 3) - end)) & ((2 << b) - 1)
        if x >> 1 < u:
            x >>= 1
            end -= 1
        else:
            x -= u
        if end > self._total:
            raise DecodeError(f"stream truncated at byte {pos // 8}")
        self._pos = end
        return x

    def padding_is_clean(self) -> bool:
        """True iff only zero bits remain in the current final byte."""
        rest = self._total - self._pos
        if rest >= 8:
            return False
        # the unread bits are the low ``rest`` bits of the last byte
        return rest == 0 or not self._data[-1] & ((1 << rest) - 1)


def _pack_header(alphabet_size: int, input_len: int, algorithm: str) -> bytes:
    return struct.pack(
        "<4sBHQB", MAGIC, VERSION, alphabet_size, input_len, ALGORITHMS.index(algorithm)
    )


def _unpack_header(data: bytes) -> tuple[int, int, str]:
    if len(data) < HEADER_BYTES:
        raise DecodeError(f"stream shorter than the {HEADER_BYTES}-byte header")
    magic, version, alphabet_size, input_len, algo_id = struct.unpack(
        "<4sBHQB", data[:HEADER_BYTES]
    )
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r} at byte 0")
    if version != VERSION:
        raise DecodeError(
            f"unsupported version {version} at byte 4 (this decoder reads version {VERSION})"
        )
    if alphabet_size < 2:
        raise DecodeError(f"alphabet size {alphabet_size} invalid at byte 5")
    if input_len > MAX_SYMBOLS:
        raise DecodeError(f"symbol count {input_len} at byte 7 exceeds the limit of {MAX_SYMBOLS}")
    if algo_id >= len(ALGORITHMS):
        raise DecodeError(f"unknown algorithm id {algo_id} at byte 15")
    return alphabet_size, input_len, ALGORITHMS[algo_id]


def _as_symbols(seq: SymbolicSequence | Sequence[int] | np.ndarray, alphabet_size: int | None) -> tuple[np.ndarray, int]:
    """An encoder's input as int32 symbols and an alphabet size the stream can hold.

    The sizes are checked here; the symbols' dtype and range are checked by
    :class:`SymbolicSequence`.
    """
    if isinstance(seq, SymbolicSequence):
        symbols, alphabet_size = seq.symbols, seq.alphabet_size
    else:
        symbols = np.asarray(seq)
        if alphabet_size is None:
            alphabet_size = max(int(symbols.max()) + 1 if symbols.size else 2, 2)
    if not 2 <= alphabet_size <= MAX_ALPHABET:
        raise ValueError(f"alphabet size {alphabet_size} outside [2, {MAX_ALPHABET}]")
    if symbols.size > MAX_SYMBOLS:
        raise ValueError(f"{symbols.size} symbols exceed the stream limit of {MAX_SYMBOLS}")
    return SymbolicSequence(symbols, alphabet_size).symbols, alphabet_size


def _finish(
    values: np.ndarray, widths: np.ndarray, nsym: int, symbols: np.ndarray, algorithm: str
) -> tuple[bytes, CompressionReport]:
    """The stream (header + one record per phrase) and the report of one encode."""
    stream = _pack_header(nsym, symbols.size, algorithm) + _pack_fields(values, widths)
    encoded_bits = HEADER_BITS + int(widths.sum())
    report = CompressionReport(
        input_len=int(symbols.size),
        phrase_count=int(values.size),
        encoded_bits=encoded_bits,
        rate=encoded_bits / symbols.size if symbols.size else 0.0,
        algorithm=algorithm,
    )
    return stream, report


def _phase_in(x: np.ndarray | int, n: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """(code, bit count) of x in the phase-in code over n values, elementwise."""
    b = np.frexp(n)[1] - 1
    u = (2 << b) - n
    long = x >= u
    return x + u * long, b + long


def _earlier_siblings(parents: np.ndarray, syms: np.ndarray, nsym: int) -> tuple[np.ndarray, np.ndarray]:
    """Per phrase k: (older[k], smaller[k]) over the earlier phrases with k's parent.

    older counts them all, smaller those with a smaller extension symbol.
    Grouped by parent in phrase order, older is k's position in its sibling
    group.  smaller is summed level by level, as in a bottom-up merge sort
    of each group by symbol over blocks of B = 1, 2, 4, ... phrases: a phrase
    in the right half of a 2B-block has as many left-half siblings with a
    smaller symbol as its symbol rank rises from its B-block to its
    2B-block.  One argsort per level ranks all 2B-blocks at once.  Only
    groups larger than B stay live at level B; a group holds at most nsym
    phrases, so there are at most ceil(log2 nsym) levels.
    """
    count = parents.size
    sizes = np.bincount(parents)
    group = sizes[parents]
    # the stable order by parent; unique keys let the faster unstable sort do it
    grouped = np.argsort(parents.astype(np.int64) << 32 | np.arange(count))
    older = np.empty(count, dtype=np.int32)
    older[grouped] = np.arange(count) - (np.cumsum(sizes) - sizes)[parents[grouped]]
    smaller = np.zeros(count, dtype=np.int32)
    live = grouped[group[grouped] > 1]
    rank = np.zeros(live.size, dtype=np.int64)  # by symbol within the B-block
    block = 1
    while live.size:
        pos = older[live]
        at = np.arange(live.size)
        # a live phrase's 2B-block starts `offset` places before it in `live`;
        # sorting by (block start, symbol) keeps every block in its places
        offset = pos & (2 * block - 1)
        new_rank = np.empty_like(at)
        new_rank[np.argsort((at - offset) * nsym + syms[live])] = at
        new_rank += offset - at
        right = (pos & block) != 0
        smaller[live[right]] += (new_rank - rank)[right]
        block *= 2
        keep = group[live] > block
        live, rank = live[keep], new_rank[keep]
    return older, smaller


def lz78_encode(
    seq: SymbolicSequence | Sequence[int] | np.ndarray,
    alphabet_size: int | None = None,
) -> tuple[bytes, CompressionReport]:
    """Incremental-parse encode; returns the bitstream and its report."""
    symbols, nsym = _as_symbols(seq, alphabet_size)
    # pass 1, the parse: edge (phrase, symbol s) is keyed phrase * nsym + s
    # and maps to the child's own base key, child phrase * nsym
    trie: dict[int, int] = {}
    get = trie.get
    node = 0
    base = nsym  # base key of the next new phrase
    for s in memoryview(symbols):
        key = node + s
        node = get(key, 0)
        if not node:  # a new phrase; the next one starts at the root, key 0
            trie[key] = base
            base += nsym
    # phrase k's edge is the k-th key inserted
    edges = np.fromiter(trie, dtype=np.int64, count=len(trie))
    del trie, get
    parents, syms = (part.astype(np.int32) for part in np.divmod(edges, nsym))
    del edges

    # pass 2, the fields: phrase k's parent over k values, then its symbol's
    # rank among the parent's unused symbols
    older, smaller = _earlier_siblings(parents, syms, nsym)
    code, width = _phase_in(parents, np.arange(1, parents.size + 1, dtype=np.int32))
    rank, rank_width = _phase_in(syms - smaller, nsym - older)
    del older, smaller, parents, syms
    values = code.astype(np.uint64) << rank_width.astype(np.uint64) | rank.astype(np.uint64)
    widths = width + rank_width
    if node:  # a final partial phrase: its parent index alone
        last, last_width = _phase_in(node // nsym, base // nsym)
        values = np.append(values, np.uint64(last))
        widths = np.append(widths, last_width)
    return _finish(values, widths, nsym, symbols, "lz78")


def _lz78_decode_body(reader: BitReader, alphabet_size: int, input_len: int) -> np.ndarray:
    out = array("i")
    # phrase k was emitted as out[starts[k] : starts[k] + lengths[k]]; 0 is empty
    starts = [0]
    lengths = [0]
    # per phrase, the symbols it has been extended by in ascending order, or
    # None before its first extension
    children: list[list[int] | None] = [None]

    decoded = 0
    k = 1
    while decoded < input_len:
        parent = reader.read_phase_in(k)
        start, length = starts[parent], lengths[parent]
        if decoded + length >= input_len:
            if decoded + length > input_len:
                raise DecodeError(f"final phrase overruns declared length {input_len}")
            out.extend(out[start : start + length])
            break
        used = children[parent]
        if used is None:
            s = reader.read_phase_in(alphabet_size)
            children[parent] = [s]
        else:
            hi = len(used)
            if hi == alphabet_size:
                raise DecodeError(f"phrase {k} extends parent {parent}, which has no unused symbol")
            rank = reader.read_phase_in(alphabet_size - hi)
            # the rank-th unused symbol is rank + lo, where lo counts the used
            # symbols below it: those with at most rank unused symbols below
            # them.  used[i] - i, the unused count below used[i], never falls
            lo = 0
            while lo < hi:
                mid = (lo + hi) >> 1
                if used[mid] - mid <= rank:
                    lo = mid + 1
                else:
                    hi = mid
            s = rank + lo
            used.insert(lo, s)
        out.extend(out[start : start + length])
        out.append(s)
        starts.append(decoded)
        lengths.append(length + 1)
        decoded += length + 1
        children.append(None)
        k += 1
    return np.frombuffer(out, dtype=np.int32)


def castore_encode(
    seq: SymbolicSequence | Sequence[int] | np.ndarray,
    alphabet_size: int | None = None,
) -> tuple[bytes, CompressionReport]:
    """Pair-concatenation encode; returns the bitstream and its report."""
    symbols, nsym = _as_symbols(seq, alphabet_size)
    n = symbols.size
    # a sentinel past the end forms no key, so the walks need no bounds test
    syms = symbols.tolist()
    syms.append(_SENTINEL)
    # pass 1, the parse: edge (node, symbol s) is keyed node * nsym + s and
    # maps to the child's base key, child node * nsym, negated when the child
    # ends a dictionary word.  Nodes 1..nsym are the single symbols.
    trie = {s: -(s + 1) * nsym for s in range(nsym)}
    get = trie.get
    next_base = (nsym + 1) * nsym
    # per phrase, the base keys of u's node, v's node and the new word's node;
    # a final phrase with no v gives u's and 0
    nodes = array("q")
    put = nodes.append
    pos = 0
    while pos < n:
        # u: the longest word at pos; the walk goes on to where the trie ends
        base = 0
        j = pos
        while True:
            child = get(base + syms[j])
            if child is None:
                break
            j += 1
            if child < 0:
                base = u = -child
                u_end = j
            else:
                base = child
        if u_end == n:
            put(u)
            put(0)
            break
        stop, stop_base = j, base
        # v: the longest word after u
        base = 0
        j = u_end
        while True:
            child = get(base + syms[j])
            if child is None:
                break
            j += 1
            if child < 0:
                base = v = -child
                end = j
            else:
                base = child
        # insert u+v.  The u-walk already followed it up to `stop`, where the
        # trie ends, so past `stop` every node is new
        if end > stop:
            base = stop_base
            for j in range(stop, end - 1):
                trie[base + syms[j]] = next_base
                base = next_base
                next_base += nsym
            trie[base + syms[end - 1]] = -next_base
            word = next_base
            next_base += nsym
        else:  # u+v is an inner node: walk to it from u and make it a word
            # (no node between u and u+v is a word, or u would be longer)
            base = u
            for j in range(u_end, end - 1):
                base = trie[base + syms[j]]
            key = base + syms[end - 1]
            word = trie[key]
            trie[key] = -word
        put(u)
        put(v)
        put(word)
        pos = end
    del trie, get, syms

    # pass 2, the fields: a word's index is the order in which its node
    # became a word, and phrase k's two fields take (nsym + k).bit_length() bits
    nodes = np.frombuffer(nodes, dtype=np.int64) // nsym
    u, v, new = nodes[0::3], nodes[1::3], nodes[2::3]
    index = np.zeros(next_base // nsym, dtype=np.int64)
    index[1 : nsym + 1] = np.arange(1, nsym + 1)
    index[new] = np.arange(nsym + 1, nsym + 1 + new.size)
    width = np.frexp(np.arange(nsym, nsym + u.size, dtype=np.int64))[1]
    return _finish(index[u] << width | index[v], 2 * width, nsym, symbols, "castore")


def _castore_decode_body(reader: BitReader, alphabet_size: int, input_len: int) -> np.ndarray:
    # grown as the records arrive: the declared length is not trusted
    out = array("i")
    # words 1..N are the single symbols; word w > N was emitted as
    # out[starts[w] : starts[w] + lengths[w]]
    starts = [0] * (alphabet_size + 1)
    lengths = [1] * (alphabet_size + 1)
    dict_size = alphabet_size

    def emit(word: int) -> None:
        if word <= alphabet_size:
            out.append(word - 1)
        else:
            start = starts[word]
            out.extend(out[start : start + lengths[word]])

    decoded = 0
    while decoded < input_len:
        width = _bit_width(dict_size + 1)
        u = reader.read(width)
        if not 1 <= u <= dict_size:
            raise DecodeError(f"word index {u} outside dictionary of {dict_size}")
        v = reader.read(width)
        if v == 0:
            if decoded + lengths[u] != input_len:
                raise DecodeError("final phrase does not close the declared length")
            emit(u)
            break
        if v > dict_size:
            raise DecodeError(f"word index {v} outside dictionary of {dict_size}")
        n = lengths[u] + lengths[v]
        if decoded + n > input_len:
            raise DecodeError(f"phrase overruns declared length {input_len}")
        emit(u)
        emit(v)
        starts.append(decoded)
        lengths.append(n)
        decoded += n
        dict_size += 1
    return np.frombuffer(out, dtype=np.int32)


# each coder's encoder, by the name a caller looks up at call time, so a name
# rebound after import (a tracing wrapper, say) is the one that runs, and the
# decoder of its stream body
CODERS = {
    "lz78": ("lz78_encode", _lz78_decode_body),
    "castore": ("castore_encode", _castore_decode_body),
}
# the header's algorithm id is the index into this tuple
ALGORITHMS = tuple(CODERS)


def decode(stream: bytes) -> tuple[SymbolicSequence, str]:
    """Decode either algorithm's stream; returns (sequence, algorithm name)."""
    alphabet_size, input_len, algorithm = _unpack_header(stream)
    reader = BitReader(stream, start_byte=HEADER_BYTES)
    symbols = CODERS[algorithm][1](reader, alphabet_size, input_len)
    if not reader.padding_is_clean():
        raise DecodeError("trailing data after final phrase")
    return SymbolicSequence(symbols=symbols, alphabet_size=alphabet_size), algorithm

