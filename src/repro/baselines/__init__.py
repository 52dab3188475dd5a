"""Baselines: whole-network verification and explicit-state checking."""

from .explicit import ConcretePacket, FixpointChecker, explicit_verdict
from .whole_network import verify_whole_network, whole_network_vmn

__all__ = [
    "ConcretePacket",
    "FixpointChecker",
    "explicit_verdict",
    "verify_whole_network",
    "whole_network_vmn",
]
