#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src/main/scala) into perfbench/target/classes,
with the Scala compiler and the jars of the local Spark distribution
($SPARK_HOME, or the one `spark-submit` on PATH belongs to) -- the same jars
the root sbt build compiles against. Nothing is downloaded. The compile is
skipped when no input changed since the last build.

    python3 perfbench/build.py    # build, then print the runtime classpath
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSES = os.path.join(TARGET, "classes")
STAMP = os.path.join(TARGET, "classes.stamp")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(HERE, "src", "main", "scala")]
RESOURCES = os.path.join(HERE, "src", "main", "resources")


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = sorted(glob.glob(os.path.join(home or "", "jars", "*.jar")))
    if not jars:
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def inputs():
    """Every file the build reads from the repository, in a stable order."""
    files = []
    for d in SOURCE_DIRS + [RESOURCES]:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names]
    return sorted(files)


def fingerprint(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile if needed; return (classpath, fingerprint of the sources)."""
    if not os.path.isdir(SOURCE_DIRS[0]):
        raise BuildError(f"program sources not found at {os.path.relpath(SOURCE_DIRS[0])}")
    jars = spark_jars()
    files = inputs()
    fp = fingerprint(files)
    classpath = os.pathsep.join([CLASSES] + jars)
    if os.path.exists(STAMP) and open(STAMP).read() == fp:
        return classpath, fp

    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    if os.path.exists(STAMP):
        os.remove(STAMP)
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    sources = [f for f in files if f.endswith(".scala")]
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-d", CLASSES, "-classpath", os.pathsep.join(jars)] + sources
    print(f"build: compiling {len(sources)} Scala files", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with code {proc.returncode}")
    for f in files:
        if f.startswith(RESOURCES + os.sep):
            dst = os.path.join(CLASSES, os.path.relpath(f, RESOURCES))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(f, dst)
    with open(STAMP, "w") as fh:
        fh.write(fp)
    return classpath, fp


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
