"""authlab: a dynamic-ID smartcard login scheme, its wire transport, and the
attack harness demonstrating that the scheme authenticates any password.

The protocol layer is pure and deterministic; transport and persistence are
thin shells around it. Nothing here is fit for protecting anything: the
point of the package is to make the scheme's password independence
reproducible at desk scale.
"""

from authlab.attack import Scenario, run_random_password_attack
from authlab.bits import Bits, hash_bits, hash_bytes
from authlab.clock import fixed_clock
from authlab.protocol import (
    AuthDecision,
    LoginRequest,
    Reason,
    ServerSecrets,
    authenticate,
    change_password,
    issue_card,
    make_login_request,
    register_user,
)
from authlab.storage import (
    CardFileError,
    ConfigError,
    ServerConfig,
    load_card,
    load_server_config,
    save_card,
    save_server_config,
)
from authlab.wire import client_login, serve
