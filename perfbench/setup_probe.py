"""Time one set-up in a fresh interpreter: import sbc, parse the config, build the model.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON
Prints {"setup_s": ..., "sbc_file": ...} as one JSON line.
"""

import json
import sys
import time

if __name__ == "__main__":
    src_dir, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src_dir)
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    started = time.perf_counter()
    import sbc

    config = sbc.config_from_dict(raw)
    sbc.model_from_dict(config.model)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "sbc_file": sbc.__file__}))
