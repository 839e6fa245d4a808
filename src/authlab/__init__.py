"""authlab: a dynamic-ID smartcard login scheme, its wire transport, and the
attack harness demonstrating that the scheme authenticates any password.

The protocol layer is pure and deterministic; transport and persistence are
thin shells around it. Nothing here is fit for protecting anything: the
point of the package is to make the scheme's password independence
reproducible at desk scale.
"""
