"""Simulated cryptography.

The paper assumes processes sign their messages so that nobody can debit
another process's account, and that Byzantine processes cannot subvert the
primitives.  Real asymmetric cryptography is unnecessary inside a simulator;
:mod:`repro.crypto.signatures` provides an HMAC-based scheme with the same
interface and the same unforgeability guarantee *within the simulation*
(only the holder of a key object can produce its signatures), and
:mod:`repro.crypto.hashing` provides stable content hashes used for transfer
and message identifiers.

The package re-exports nothing: import from the defining module.
"""
