"""Build file of the benchmark: compiles the program and the runner.

The program's sources (`src/main/scala`) and the runner's sources
(`perfbench/src`) are compiled together with the Scala 2.13 compiler that
ships in the Spark distribution, so no build tool or network is needed.
The classes are packed into one jar, and a short class-loading run writes
a JVM class-data archive for it, which saves every benchmark run some
seconds of class loading. Everything goes to `.bench_build/perfbench/`
under the checkout root and is rebuilt only when a source file or the
toolchain changes.

    python3 perfbench/build.py            # build the runner
    python3 perfbench/build.py --tests    # build the runner and its tests
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
JAR = os.path.join(OUT, "perfbench.jar")
ARCHIVE = os.path.join(OUT, "perfbench.jsa")

# One fixed heap, so that GC work does not depend on how the JVM sizes it.
HEAP = "4g"
JAVA_OPTS = [
    f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xss4m",
    # no hsperfdata files, which the JVM would write outside the checkout
    "-XX:-UsePerfData",
    # The module openings spark-submit passes to the JVM on Java 17.
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=" + m + "=ALL-UNNAMED" for m in [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar"]]


class BuildError(Exception):
    pass


def spark_home():
    """The Spark distribution: $SPARK_HOME, else the one `spark-submit` is in."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return home


def spark_classpath():
    return os.path.join(spark_home(), "jars", "*")


def _sources(*dirs):
    files = []
    for d in dirs:
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    return sorted(files)


def _stamp(files):
    h = hashlib.sha256()
    h.update(" ".join(JAVA_OPTS).encode())
    h.update(" ".join(sorted(os.listdir(os.path.join(spark_home(), "jars")))).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _compile(files, classpath, out):
    """Compiles `files` into `out`; returns False when it was up to date."""
    stamp_file = out + ".stamp"
    stamp = _stamp(files)
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return False
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = ["java", "-Xss16m", "-Xmx2g", "-XX:-UsePerfData", "-cp", spark_classpath(),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-classpath", os.pathsep.join(classpath), "-d", out] + files
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=800)
    if proc.returncode != 0:
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return True


def _package_and_archive():
    for f in (JAR, ARCHIVE):
        if os.path.exists(f):
            os.remove(f)
    with zipfile.ZipFile(JAR, "w") as z:
        for d in (classes_dir(), os.path.join(BENCH, "resources")):
            for base, _, names in os.walk(d):
                for n in names:
                    z.write(os.path.join(base, n), os.path.relpath(os.path.join(base, n), d))
    work = os.path.join(OUT, "work", "tmp")
    os.makedirs(work, exist_ok=True)
    cmd = (["java"] + JAVA_OPTS + [f"-XX:ArchiveClassesAtExit={ARCHIVE}",
                                   f"-Djava.io.tmpdir={work}", "-cp", runtime_classpath(),
                                   "perfbench.Warm"])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    if proc.returncode != 0 or not os.path.exists(ARCHIVE):
        raise BuildError("class-loading run failed:\n" + proc.stdout[-4000:])


def runtime_classpath():
    return os.pathsep.join([JAR, spark_classpath()])


def classes_dir():
    return os.path.join(OUT, "classes")


def test_classes_dir():
    return os.path.join(OUT, "test-classes")


def build(tests=False):
    """Compiles what is out of date; returns the JVM options and the
    classpath to run with."""
    program = _sources(PROGRAM_SOURCES)
    if not program:
        raise BuildError("no program sources under src/main/scala")
    changed = _compile(program + _sources(os.path.join(BENCH, "src")), [], classes_dir())
    if changed or not (os.path.exists(JAR) and os.path.exists(ARCHIVE)):
        _package_and_archive()
    if tests:
        _compile(_sources(os.path.join(BENCH, "test")), [classes_dir()], test_classes_dir())
        return JAVA_OPTS, os.pathsep.join([runtime_classpath(), test_classes_dir()])
    return JAVA_OPTS + [f"-XX:SharedArchiveFile={ARCHIVE}"], runtime_classpath()


if __name__ == "__main__":
    try:
        build(tests="--tests" in sys.argv[1:])
    except (BuildError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
