"""RFC 1071 internet checksum (used by IPv4, UDP, TCP)."""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement internet checksum of ``data``.

    Odd-length input is implicitly padded with a zero byte, per RFC 1071.

    The one's-complement sum of the 16-bit words is taken as one
    remainder: ``2**16 ≡ 1 (mod 0xFFFF)``, so the whole buffer read as a
    big-endian integer is congruent to the sum of its words, and folding
    the carries back in (the end-around carry) keeps that residue. The
    folded sum is 0 only for an all-zero input; any other multiple of
    0xFFFF folds to 0xFFFF, one's-complement "negative zero".
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    folded = total % 0xFFFF
    if not folded and total:
        folded = 0xFFFF
    return 0xFFFF - folded


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (with its checksum field in place) sums to zero."""
    return internet_checksum(data) == 0


def pseudo_header_ipv4(src: int, dst: int, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header used by UDP/TCP checksums."""
    return (src.to_bytes(4, "big") + dst.to_bytes(4, "big")
            + b"\x00" + bytes([proto]) + length.to_bytes(2, "big"))
