#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) with the Scala compiler that ships in
Spark's jars directory, into perfbench/.build/classes. A build is reused while
the sources, the compiler and this file are unchanged.

    python3 perfbench/build.py      # prints the runtime classpath
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".build")


class BuildError(Exception):
    pass


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return home


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found: set JAVA_HOME or put java on PATH")
    return exe


def scala_files(top):
    found = []
    for d, _, names in os.walk(top):
        found += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(found)


def sources():
    program = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(program):
        raise BuildError(f"program sources missing: {os.path.relpath(program, ROOT)}")
    files = scala_files(program) + scala_files(os.path.join(HERE, "src"))
    if not any(f.startswith(program) for f in files):
        raise BuildError("no program sources to build")
    return files


def digest(files, jars):
    h = hashlib.sha256()
    for f in files + [os.path.abspath(__file__)]:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    h.update(jars.encode())
    return h.hexdigest()


def build():
    """Compile if needed; return the runtime classpath."""
    jars = os.path.join(spark_home(), "jars")
    files = sources()
    stamp = digest(files, " ".join(sorted(os.listdir(jars))))
    classes = os.path.join(OUT, "classes")
    cp = os.pathsep.join([classes, os.path.join(jars, "*")])
    stamp_file = os.path.join(OUT, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return cp
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xmx1g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + files
    print(f"[perfbench] compiling {len(files)} Scala files", file=sys.stderr)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if proc.returncode != 0:
        raise BuildError("scalac failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
