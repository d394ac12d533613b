#!/usr/bin/env bash
# Lists the user-written cxlmemo:: functions that the src libraries
# define and no program keeps, and fails unless every one of them is a
# test seam named in scripts/deadcode-allowlist.txt.
#
# Usage: scripts/deadcode.sh [BUILD_DIR]   (default: $TMPDIR/cxlmemo-deadcode)
#
# The repo and bench/e2e are built at -O0 with one section per function,
# every inline function emitted and the linker's section GC on, so a
# function survives in a binary exactly when something it runs can call
# it. A library function that no program keeps (memo, bench/*,
# examples/*, bench_e2e) is reported as "no caller", or as "tests only"
# when a test binary keeps it. Compiler-generated members (DWARF
# DW_AT_artificial), lambda bodies and template instances are not
# reported.
#
# Exit 0: no "no caller" function, and the "tests only" list equals the
# allowlist (one "function — reason" per line). Exit 1: a function is
# missing from the allowlist, or an allowlist line names a function that
# is no longer reported.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-${TMPDIR:-/tmp}/cxlmemo-deadcode}
FLAGS="-O0 -ffunction-sections -fdata-sections -fkeep-inline-functions"
JOBS=$(( $(nproc) < 4 ? $(nproc) : 4 ))

configure() {  # configure SRC DIR
    local gen=()
    if [[ ! -f $2/CMakeCache.txt ]] && command -v ninja >/dev/null; then
        gen=(-G Ninja)
    fi
    cmake -S "$1" -B "$2" "${gen[@]}" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
}
configure "$ROOT" "$BUILD/repo" >&2
cmake --build "$BUILD/repo" -j "$JOBS" >&2
configure "$ROOT/bench/e2e" "$BUILD/e2e" >&2
cmake --build "$BUILD/e2e" -j "$JOBS" --target bench_e2e >&2

exec python3 - "$BUILD" "$ROOT/scripts/deadcode-allowlist.txt" <<'EOF'
import glob, os, re, subprocess, sys

build, allow_path = sys.argv[1], sys.argv[2]

def run(*cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          check=True).stdout

def lines(*cmd):
    """Stream @p cmd's stdout (readelf warns on stderr about relocations
    it does not apply to the dump; the dump is still whole)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL) as p:
        yield from p.stdout

def executables(d):
    return [p for p in sorted(glob.glob(f"{d}/*"))
            if os.path.isfile(p) and os.access(p, os.X_OK)]

def functions(paths):
    """Mangled names of the functions defined in the given objects."""
    out = run("nm", "--defined-only", *paths)
    return {f[2] for f in (l.split() for l in out.splitlines())
            if len(f) == 3 and f[1] in "TtWw"}

def demangle(names):
    return run("c++filt", stdin="\n".join(names)).splitlines()

def artificial(lib):
    """Mangled names of the compiler-generated functions in @p lib: each
    emitted subprogram whose DIE, or the declaration it refers to, is
    DW_AT_artificial. Internal-linkage members carry no linkage name, so
    the name comes from the .text.<name> section its low_pc points at."""
    dies, relocs, member, die = {}, {}, None, None
    for line in lines("readelf", "--debug-dump=info", "--wide", lib):
        if line.startswith("File: "):
            member = line.strip()
        elif ": Abbrev Number" in line:
            off = int(line.split("<")[2].split(">")[0], 16)
            die = ({} if "DW_TAG_subprogram" in line else None)
            if die is not None:
                dies[member, off] = die
        elif die is not None:
            m = re.search(r"DW_AT_(artificial|specification|abstract_origin"
                          r"|low_pc)\s*:.*?(?:<0x([0-9a-f]+)>)?$", line)
            if m:
                at = line.split("<")[1].split(">")[0]
                die[m[1]] = int(m[2], 16) if m[2] else int(at, 16)
    in_info = False
    for line in lines("readelf", "-r", "--wide", lib):
        if line.startswith("File: "):
            member = line.strip()
        elif line.startswith("Relocation section"):
            in_info = "'.rela.debug_info'" in line
        elif in_info and ".text." in line:
            f = line.split()
            relocs[member, int(f[0], 16)] = f[4][len(".text."):]

    def is_artificial(key):
        for _ in range(8):
            die = dies.get(key)
            if die is None:
                return False
            if "artificial" in die:
                return True
            ref = die.get("specification", die.get("abstract_origin"))
            if ref is None:
                return False
            key = (key[0], ref)
        return False

    return {relocs[m, d["low_pc"]] for (m, off), d in dies.items()
            if "low_pc" in d and (m, d["low_pc"]) in relocs
            and is_artificial((m, off))}

libs = sorted(glob.glob(f"{build}/repo/src/**/libcxlmemo_*.a",
                        recursive=True))
programs = ([f"{build}/repo/src/memo/memo", f"{build}/e2e/bench_e2e"]
            + executables(f"{build}/repo/bench")
            + executables(f"{build}/repo/examples"))
kept, tested = functions(programs), functions(executables(f"{build}/repo/tests"))
generated = set(demangle(set().union(*map(artificial, libs))))

# cxlmemo's own functions: the nested name starts in the namespace (a
# function-local entity such as a lambda body starts with _ZZ instead).
own = re.compile(r"_ZN[rVK]*[RO]?7cxlmemo")
dead = sorted(m for m in functions(libs) - kept if own.match(m))

def short(name):
    for long_, s in (("std::__cxx11::basic_string<char, std::char_traits"
                      "<char>, std::allocator<char> >", "std::string"),
                     ("cxlmemo::", "")):
        name = name.replace(long_, s)
    return name

def instance(name):
    """Whether @p name is a template instance: the template is judged by
    its callers, and an instance only dead code uses dies with it."""
    return "<" in re.sub(r"operator<[<=>]*", "", name).split("(")[0]

report = {"no caller": set(), "tests only": set()}
for mangled, name in zip(dead, demangle(dead)):
    if not (name in generated or "{lambda(" in name or instance(name)):
        kind = "tests only" if mangled in tested else "no caller"
        report[kind].add(short(name))

allow = {}
for line in open(allow_path):
    line = line.strip()
    if line and not line.startswith("#"):
        fn, sep, reason = line.partition(" — ")
        if not sep or not reason.strip():
            sys.exit(f"deadcode: allowlist line has no reason: {line}")
        allow[fn.strip()] = reason.strip()

bad = 0
for kind, fns in report.items():
    print(f"{kind}: {len(fns)}")
    for fn in sorted(fns):
        mark = ("    <- delete it" if kind == "no caller"
                else "" if fn in allow else "    <- not allowlisted")
        bad += mark != ""
        print(f"  {fn}{mark}")
for fn in sorted(set(allow) - report["tests only"]):
    bad += 1
    print(f"stale allowlist entry: {fn}")
print(f"deadcode: {'FAIL' if bad else 'ok'}, {bad} problem(s)")
sys.exit(1 if bad else 0)
EOF
