"""Cryptographic substrate for the IPsec gateway (paper Section 6.2.4).

The paper's IPsec data path is AES-128-CTR for confidentiality and
HMAC-SHA1 for authentication, in ESP tunnel mode.  All three are
implemented from scratch here:

* :mod:`repro.crypto.aes` — table-based AES-128 and CTR mode at block
  granularity: every 16-byte block of every packet of a chunk goes
  through the rounds together, the paper's finest-grained GPU mapping
  ("we chop packets into AES blocks (16B) and map each block to one GPU
  thread");
* :mod:`repro.crypto.sha1_lanes` — SHA-1 and HMAC-SHA1 at packet
  granularity, a lane per packet in lockstep (on the GPU "SHA1 cannot be
  parallelized at the block level due to data dependency");
* :mod:`repro.crypto.sha1` — the same, one message at a time: the
  reference the lanes are tested against;
* :mod:`repro.crypto.esp` — RFC 4303 ESP tunnel-mode encapsulation and
  decapsulation with RFC 3686 AES-CTR and HMAC-SHA1-96, a chunk at a
  time (the gateway's kernel) and a packet at a time (its reference).

Correctness is pinned by FIPS-197 / RFC 3686 / FIPS-180 test vectors in
the test suite (stdlib ``hashlib`` is used only in tests, never here).
"""

from repro.crypto.aes import (
    AES128,
    aes_ctr_keystream,
    aes_ctr_xor,
    aes_ctr_xor_lanes,
)
from repro.crypto.sha1 import sha1, hmac_sha1, hmac_sha1_96
from repro.crypto.sha1_lanes import HmacSha1Lanes, sha1_lanes
from repro.crypto.esp import (
    SecurityAssociation,
    esp_decapsulate,
    esp_decapsulate_batch,
    esp_encapsulate,
    esp_encapsulate_batch,
    esp_overhead_bytes,
)

__all__ = [
    "AES128",
    "HmacSha1Lanes",
    "SecurityAssociation",
    "aes_ctr_keystream",
    "aes_ctr_xor",
    "aes_ctr_xor_lanes",
    "esp_decapsulate",
    "esp_decapsulate_batch",
    "esp_encapsulate",
    "esp_encapsulate_batch",
    "esp_overhead_bytes",
    "hmac_sha1",
    "hmac_sha1_96",
    "sha1",
    "sha1_lanes",
]
