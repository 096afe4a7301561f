"""Editing a saved artifact in place, as a damaged or hand-edited one would be."""

import hashlib


def rewrite(out, name, blob):
    """Replace one artifact file and its recorded checksum."""
    (out / name).write_bytes(blob)
    lines = []
    for line in (out / "sha256sums.txt").read_text().splitlines():
        digest, listed = line.split(None, 1)
        if listed == name:
            digest = hashlib.sha256(blob).hexdigest()
        lines.append(f"{digest}  {listed}")
    (out / "sha256sums.txt").write_text("\n".join(lines) + "\n")
