"""The generator's burst matrices against its per-frame builders.

``ipv4_rows`` / ``ipv6_rows`` build a whole burst as one ``(count,
frame_len)`` uint8 matrix; ``random_ipv4_frame`` / ``random_ipv6_frame``
stay the per-frame oracle.  Same seed, same draws, same bytes — and the
burst bytes of seeds 1-3 are pinned, so a change in draw order or header
layout shows here before it moves a routed packet.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.gen.packetgen import PacketGenerator

#: sha256 of ``ipv4_burst(256)``, ``ipv6_burst(256)``, ``ipv4_burst(32,
#: 1514)``, ``ipv6_burst(32, 40)`` joined, drawn in that order from one
#: generator per seed — as the per-frame builders produced them.
PINNED = {
    1: ("2768c76b7a3a82413e80233b6014c3b7828198f4a9092b8752e7d420eb8ce751",
        "3dd0ccb042957fd2553b5a1eac3cb60db9bd2957fc92a2d223c38d0813f24017",
        "74c3238e29e236a7f0e6b5cb338b2f08059221a53a927b85422a93aa89ae8a92",
        "272e7c1bab815900aaa9c7120909a15182b66f5a0e83226d9c75e7a245c3312b"),
    2: ("4453c822ae1f34865e8bd0d6a965083b21b717ae7a98c106f350fd1911eab452",
        "8bafae7ea8943fc906304b02570bc51b8dfdc1d4311cab38fc7ffd175c467568",
        "e250b74b9ee18c3110d993ac1631520934eb9fb9a11c57434f842312ce481ab4",
        "d019ec748d77c4dc81bb177d08101456191dac2fba640582f25efcec478f5ac0"),
    3: ("a2f89d0f4cab06ec4915a03be0a11977170eedf01e536df9b6793e24307bfd60",
        "7a1f7c664f093c9c3e919b617933aecd6b4a31d8ad37238b9a7e19a5ae91e704",
        "e95a4d79064233059ab855c8f18a4bb589813a2cf81099e11508ed4dd55ced57",
        "8078e1c448345df2123c26a9dc3f2ffc13fb2a88a6063948f1c8f44903a5ec4c"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_burst_bytes_are_pinned(seed):
    generator = PacketGenerator(seed)
    bursts = (
        generator.ipv4_burst(256), generator.ipv6_burst(256),
        generator.ipv4_burst(32, 1514), generator.ipv6_burst(32, 40),
    )
    assert tuple(
        hashlib.sha256(b"".join(burst)).hexdigest() for burst in bursts
    ) == PINNED[seed]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family, frame_len", [
    ("ipv4", 64), ("ipv4", 42), ("ipv4", 1514),
    ("ipv6", 78), ("ipv6", 40), ("ipv6", 200),
])
def test_rows_equal_the_per_frame_builder(family, frame_len, seed):
    rows = getattr(PacketGenerator(seed), f"{family}_rows")(50, frame_len)
    builder = getattr(PacketGenerator(seed), f"random_{family}_frame")
    frames = [builder(frame_len) for _ in range(50)]
    assert rows.dtype == np.uint8
    assert rows.shape == (50, len(frames[0]))
    assert [bytes(row) for row in rows] == [bytes(f) for f in frames]


@pytest.mark.parametrize("family", ["ipv4", "ipv6"])
def test_a_burst_counts_once_by_its_size(family):
    generator = PacketGenerator(4)
    calls = []
    setattr(generator, f"_m_{family}", SimpleNamespace(inc=calls.append))
    rows = getattr(generator, f"{family}_rows")(7)
    empty = getattr(generator, f"{family}_rows")(0)
    assert calls == [7, 0]
    assert generator.generated == 7
    assert len(rows) == 7 and empty.shape == (0, rows.shape[1])


def test_invalid_bursts_rejected():
    with pytest.raises(ValueError):
        PacketGenerator().ipv4_rows(-1)
    with pytest.raises(ValueError):
        PacketGenerator().ipv6_rows(-1)
    with pytest.raises(ValueError):
        PacketGenerator().ipv4_rows(4, frame_len=41)
