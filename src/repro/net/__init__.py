"""Real-socket substrate for the VDCE Data Manager (paper §4.2).

"The VDCE Data Manager is a socket-based, point-to-point communication
system for inter-task communications.  The Data Manager activates the
communication proxy and sends the resource allocation information,
including the socket number, IP address for target machine, etc., that
will be used for communication channel setup.  After the setup is
completed successfully, the communication proxy sends an
acknowledgment to the Application Controller.  The execution startup
signal is sent to start the task executions."

This package implements that protocol over genuine TCP sockets on
localhost: a wire format (:mod:`messages`), per-host communication
proxies with listener threads (:mod:`proxy`), and the channel
setup/ack/data exchange (:mod:`channel`).  The simulated runtime uses
the same protocol shape over virtual links; tests cross-check the two.

The wire format uses pickle and is therefore only suitable for the
trusted, single-machine research setting it targets (exactly like the
1997 prototype's campus network).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "messages": (
        "Ack", "ChannelSetup", "Data", "Fin", "Message", "read_message",
        "write_message",
    ),
    "proxy": ("CommunicationProxy", "ProxyError"),
    "rpc": ("ControlPlane", "RetryPolicy", "RpcError", "RpcTimeout"),
})

__all__ = [
    "Ack",
    "ChannelSetup",
    "CommunicationProxy",
    "ControlPlane",
    "Data",
    "Fin",
    "Message",
    "ProxyError",
    "RetryPolicy",
    "RpcError",
    "RpcTimeout",
    "read_message",
    "write_message",
]
