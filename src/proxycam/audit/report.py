"""Full audit run: all three privacy probes plus pass/fail bounds."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import RunConfig
from ..runner import run_edge
from ..sim.generate import generate_scene
from ..sim.scripts import make_solo_scene
from ..transport.codec import decode
# every probe runs at the attack's frame size
from .attack import HEIGHT, WIDTH, AttackResult, build_gallery, identity_attack
from .attack import ATTACK_MARGIN, CONTROL_BOUND
from .independence import IndependenceResult, mask_independence_audit
from .leakscan import LeakScanResult, pixel_leak_scan

LEAK_BOUND = 0.9


@dataclass(frozen=True)
class AuditReport:
    independence: IndependenceResult
    attack: AttackResult
    leak_frames: tuple[LeakScanResult, ...]
    passed: bool
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        leak_max = max((r.max_correlation for r in self.leak_frames), default=0.0)
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "independence": {
                "trials": self.independence.trials,
                "failures": self.independence.failures,
                "first_failure_trial": self.independence.first_failure_trial,
            },
            "identity_attack": {
                "probes": self.attack.probes,
                "accuracy": self.attack.accuracy,
                "chance": self.attack.chance,
                "bound": self.attack.chance + ATTACK_MARGIN,
                "ci95": list(self.attack.ci95),
                "control_accuracy": self.attack.control_accuracy,
            },
            "leak_scan": {
                "bound": LEAK_BOUND,
                "max_correlation": leak_max,
                "frames": [
                    {
                        "max_correlation": r.max_correlation,
                        "location": list(r.location) if r.location else None,
                        "patches": r.patches_scanned,
                    }
                    for r in self.leak_frames
                ],
            },
        }


def _leak_scan_scene(seed: int) -> list[LeakScanResult]:
    """Stream a solo walking scene through `run_edge`, the shipped edge path
    with its privacy gate and wire codec, and scan every packet it emits."""
    scene = make_solo_scene(
        seed=seed, width=WIDTH, height=HEIGHT, frame_count=40, actions_pool=("walk",)
    )
    frames, gts = generate_scene(scene)
    results: list[LeakScanResult] = []

    def scan(packet: bytes) -> None:
        i = len(results)
        results.append(pixel_leak_scan(decode(packet), frames[i], gts[i].joint_mask()))

    run_edge(RunConfig(), scene, scan, pregenerated=(frames, gts))
    return results


def run_full_audit(
    seed: int = 0,
    independence_trials: int = 10_000,
    gallery_size: int = 8,
    probes: int = 400,
) -> AuditReport:
    independence = mask_independence_audit(
        independence_trials, seed=seed, width=WIDTH, height=HEIGHT
    )
    attack = identity_attack(build_gallery(gallery_size), probes, seed=seed + 1)
    leak_frames = tuple(_leak_scan_scene(seed + 2))

    failures: list[str] = []
    if not independence.passed:
        failures.append(
            f"independence: {independence.failures}/{independence.trials} trials leaked"
        )
    if not attack.control_valid:
        failures.append(
            f"audit-invalid: raw-frame control accuracy {attack.control_accuracy:.3f} "
            f"< {CONTROL_BOUND} (attacker is not competent)"
        )
    if not attack.at_chance:
        failures.append(
            f"identity-attack: accuracy {attack.accuracy:.3f} exceeds chance "
            f"{attack.chance:.3f} + {ATTACK_MARGIN}"
        )
    leak_max = max((r.max_correlation for r in leak_frames), default=0.0)
    if leak_max >= LEAK_BOUND:
        failures.append(f"leak-scan: peak masked-patch correlation {leak_max:.3f}")

    return AuditReport(
        independence=independence,
        attack=attack,
        leak_frames=leak_frames,
        passed=not failures,
        failures=tuple(failures),
    )
