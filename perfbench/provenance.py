"""Which code a result came from: the git commit when there is one, and
always a digest of the library sources (a benchmark checkout need not be a
git repository)."""

import hashlib


def source_digest(root):
    """sha256 over the paths and bytes of every .py file under src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root):
    """HEAD of the repository at root, read from .git without running git;
    None outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None
