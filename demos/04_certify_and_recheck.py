"""Walkthrough: certifying a weight range and rechecking the certificates.

Runs the batch driver over weights 12..120 into ./demo_out, shows one
certificate, rechecks the whole directory, and demonstrates that tampering
is caught.

Run:  python3 demos/04_certify_and_recheck.py
"""

from pathlib import Path

from maeda.certify import check_certificate
from maeda.cli import (
    RunConfig,
    certificate_path,
    cmd_check,
    cmd_verify,
    read_certificate,
)
from maeda.patterns import PrimeType

out = Path("demo_out")
print("=== verify 12..120 (random mode, seed 1) ===")
assert cmd_verify(RunConfig(k_min=12, k_max=120, out_dir=out, seed=1)) == 0

print("\n=== one certificate, as stored on disk ===")
print((certificate_path(out, 96)).read_text())

print("=== recheck the directory ===")
assert cmd_check(out) == 0

print("\n=== tampering is caught ===")
cert = read_certificate(certificate_path(out, 96))
witness = cert.witnesses[PrimeType.I]
fake = witness._replace(prime=witness.prime + 2)
bad = cert._replace(witnesses={**cert.witnesses, PrimeType.I: fake})
result = check_certificate(bad)
print(f"shifted kind-I witness {witness.prime} -> {fake.prime}:",
      "ACCEPTED" if result else f"rejected ({'; '.join(result.reasons)})")
