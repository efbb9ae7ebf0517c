"""Time one fresh-process set-up; print its wall seconds and the host slowdown.

Set-up is what a process pays before its first verification: importing
tscale, parsing the workload's configs and building their scales.

    python3 benchmarks/setup_probe.py CONFIG.json [CONFIG.json ...]

A verify config is parsed as `tscale verify` parses it; a file holding
{"scales": [...]} has each scale descriptor parsed and built.  The slowdown
(calibration.py), measured right after the set-up, converts it to reference
seconds.
"""

import json
import sys
import time
from pathlib import Path


def main(paths: list[str]) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    from tscale.cli import ScenarioConfig
    from tscale.config import parse_scale

    for path in paths:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if "theorem" in raw:
            spec = ScenarioConfig.from_dict(raw).instance
            spec.scale1.build()
            spec.scale2.build()
        else:
            for desc in raw["scales"]:
                parse_scale(desc).build()
    elapsed = time.perf_counter() - start
    from calibration import slowdown

    print(repr(elapsed), repr(slowdown()))


if __name__ == "__main__":
    main(sys.argv[1:])
