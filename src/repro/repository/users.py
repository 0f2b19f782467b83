"""User-accounts database: authentication for the Application Editor.

Paper §3: "A user-accounts database is used to handle user
authentication.  In [the] user-accounts database, each VDCE user
account is represented by a 5-tuple: user name, password, user ID,
priority, and access domain type."

Passwords are stored salted-and-hashed (the paper predates that being
table stakes; a credible release cannot store plaintext).  Priority
feeds the Site Manager's admission queue; access domain controls which
sites a user's applications may be scheduled onto.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "AccessDomain",
    "AuthenticationError",
    "UnknownUserError",
    "UserAccount",
    "UserAccountsDB",
]


class AuthenticationError(RuntimeError):
    """Bad user name or password (message does not say which)."""


class UnknownUserError(KeyError):
    """No account with that user name exists.

    Subclasses :class:`KeyError` so existing ``except KeyError`` sites
    (and tests pinning that contract) keep working, while admission and
    the web editor can map it to a typed rejection instead of crashing.
    """

    def __init__(self, user_name: str):
        super().__init__(f"unknown user {user_name!r}")
        self.user_name = user_name

    def __str__(self) -> str:
        return f"unknown user {self.user_name!r}"


class AccessDomain(enum.Enum):
    """Which resources an account may schedule onto."""

    LOCAL = "local"       # local site only
    CAMPUS = "campus"     # local + nearest-neighbour sites
    GLOBAL = "global"     # any VDCE site


def _hash_password(password: str, salt: bytes) -> bytes:
    return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, 10_000)


#: bring-up cache: (user name, keyed digest of the password) -> (salt,
#: hash).  Federation bootstrap creates the same admin account at every
#: site, and PBKDF2 (by design) dominated deployment construction.
#: Reusing one salted hash per account and password makes an n-site
#: bring-up pay the key derivation once; distinct accounts never share a
#: salt.  The memo holds no password: its key is an HMAC under a random
#: per-process key.  Verification and authentication are unchanged.
_BRINGUP_HASHES: Dict[Tuple[str, bytes], Tuple[bytes, bytes]] = {}
_MEMO_KEY = os.urandom(32)


def _salted_hash(user_name: str, password: str) -> Tuple[bytes, bytes]:
    key = (user_name, hmac.digest(_MEMO_KEY, password.encode("utf-8"),
                                  "sha256"))
    cached = _BRINGUP_HASHES.get(key)
    if cached is None:
        salt = os.urandom(16)
        cached = _BRINGUP_HASHES[key] = (salt, _hash_password(password, salt))
    return cached


@dataclass(frozen=True)
class UserAccount:
    """The paper's 5-tuple (password kept only as salt+hash)."""

    user_name: str
    user_id: int
    priority: int
    access_domain: AccessDomain
    salt: bytes = field(repr=False)
    password_hash: bytes = field(repr=False)

    def verify(self, password: str) -> bool:
        return hmac.compare_digest(
            self.password_hash, _hash_password(password, self.salt)
        )


class UserAccountsDB:
    """Per-site account store with deterministic user-id allocation."""

    def __init__(self) -> None:
        self._accounts: Dict[str, UserAccount] = {}
        self._next_uid = 1000

    def add_user(
        self,
        user_name: str,
        password: str,
        priority: int = 1,
        access_domain: AccessDomain = AccessDomain.LOCAL,
        user_id: Optional[int] = None,
    ) -> UserAccount:
        if not user_name:
            raise ValueError("user name must be non-empty")
        if user_name in self._accounts:
            raise ValueError(f"user {user_name!r} already exists")
        if not password:
            raise ValueError("password must be non-empty")
        if priority < 0:
            raise ValueError("priority must be non-negative")
        if user_id is None:
            user_id = self._next_uid
            self._next_uid += 1
        salt, password_hash = _salted_hash(user_name, password)
        account = UserAccount(
            user_name=user_name,
            user_id=user_id,
            priority=priority,
            access_domain=access_domain,
            salt=salt,
            password_hash=password_hash,
        )
        self._accounts[user_name] = account
        return account

    def authenticate(self, user_name: str, password: str) -> UserAccount:
        """Return the account or raise :class:`AuthenticationError`."""
        account = self._accounts.get(user_name)
        if account is None or not account.verify(password):
            raise AuthenticationError("invalid user name or password")
        return account

    def get(self, user_name: str) -> UserAccount:
        try:
            return self._accounts[user_name]
        except KeyError:
            raise UnknownUserError(user_name) from None

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, user_name: str) -> bool:
        return user_name in self._accounts
