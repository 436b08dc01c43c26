# the names perfbench/workloads.py imports from the package; every other
# caller imports from the module that defines the name
from .attack import build_gallery, identity_attack
from .independence import mask_independence_audit
from .leakscan import pixel_leak_scan
