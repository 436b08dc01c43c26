from .model import RepresentationTuple, SyncKey, validate_tuple
from .codec import MAGIC, VERSION, decode, encode
from .gate import privacy_gate
from .reorder import DuplicateEvent, GapEvent, ReorderBuffer
from .replay import read_packets, write_packets

__all__ = [
    "DuplicateEvent",
    "GapEvent",
    "MAGIC",
    "ReorderBuffer",
    "RepresentationTuple",
    "SyncKey",
    "VERSION",
    "decode",
    "encode",
    "privacy_gate",
    "read_packets",
    "validate_tuple",
    "write_packets",
]
