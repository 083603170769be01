#!/usr/bin/env python3
"""Project-specific style gate (no external tools required).

Rules enforced over src/ (and, where noted, tests/):

  1. Header guards: every src header's include guard must be derived
     from its repo-relative path (src/sim/fifo.hpp ->
     BONSAI_SIM_FIFO_HPP), with matching #define and a trailing
     "#endif // GUARD" comment.
  2. Concurrency primitives: std::thread and std::this_thread are
     confined to common/thread_pool.hpp; everything else goes through
     bonsai::ThreadPool so the simulator has one choke point for
     threading behavior.
  3. Deterministic randomness: rand()/srand()/time() are banned
     outside common/random.hpp|.cpp; simulations must be reproducible
     from an explicit seed.
  4. No <iostream> in library headers: pulling the global stream
     objects into every translation unit costs init order and compile
     time; headers needing stream types use <ostream>/<istream>.
  5. No raw assert() in src/: contract macros (BONSAI_REQUIRE /
     ENSURE / INVARIANT) replace it, so checks can ride into
     optimized builds via -DBONSAI_CHECKED=ON.
  6. Raw std synchronization primitives (std::mutex,
     std::condition_variable, std::lock_guard, std::unique_lock,
     std::scoped_lock, ...) are confined to common/sync.hpp; all
     other code locks through the annotated bonsai::Mutex /
     ScopedLock / CondVar capabilities so Clang's -Wthread-safety
     analysis sees every critical section.
  7. Every bonsai::Mutex member must sit adjacent to at least one
     BONSAI_GUARDED_BY annotation: a mutex that guards nothing the
     analyzer can see is a mutex the analyzer cannot check.
  8. NOLINT discipline: every NOLINT/NOLINTNEXTLINE must name the
     suppressed check(s) and carry a reason after a colon, e.g.
     "// NOLINT(bugprone-empty-catch): error has no consumer".
     Bare or unexplained suppressions fail the gate; NOLINTBEGIN
     block suppressions are banned outright.
  9. Raw positioned-I/O syscalls (pread, pwrite, fdatasync) are
     confined to io/byte_io.cpp, so every transfer and every sync
     goes through ByteFile's fault seam and retry schedule.
     (syncDirectory's fsync of a directory is not covered.)
 10. Background transfers are posted in one place: only
     sorter/double_buffer.hpp may call TaskGate::arm or
     BackgroundWorker::post (their defining headers,
     io/buffer_pool.hpp and common/thread_pool.hpp, are exempt), so
     every streamed load, spill, prefetch and write-back goes through
     DoubleBuffer's wait-swap-post step and its error delivery.

Rule matching runs on text with comments AND string/character
literals neutralized (see strip_comments), so an error message
containing "assert(" or "std::mutex" cannot trip a rule.  NOLINT
markers live in comments, so rule 8 alone scans the raw text.

Run with --self-test to exercise the stripper and the rules against
embedded fixtures (the lint gate runs this first).

Exit status 0 when clean, 1 with a per-violation report otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

THREAD_ALLOWED = {"src/common/thread_pool.hpp"}
RANDOM_ALLOWED = {"src/common/random.hpp", "src/common/random.cpp"}
SYNC_ALLOWED = {"src/common/sync.hpp"}
RAW_IO_ALLOWED = {"src/io/byte_io.cpp"}
POST_ALLOWED = {"src/sorter/double_buffer.hpp", "src/io/buffer_pool.hpp",
                "src/common/thread_pool.hpp"}

THREAD_RE = re.compile(r"\bstd::(this_)?thread\b")
RANDOM_RE = re.compile(r"(?<![\w:.])(?:s?rand|time)\s*\(")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
IOSTREAM_RE = re.compile(r'#\s*include\s*[<"]iostream[>"]')
SYNC_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
SYNC_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:bonsai::)?Mutex\s+\w+_?\s*;")
RAW_IO_RE = re.compile(r"(?<![\w.>])(?:::\s*)?(?:pread|pwrite|fdatasync)\s*\(")
POST_RE = re.compile(r"(?:\.|->)\s*(?:arm|post)\s*\(")
NOLINT_RE = re.compile(r"NOLINT\w*")
NOLINT_OK_RE = re.compile(
    r"NOLINT(?:NEXTLINE)?\([A-Za-z0-9_.\-, ]+\):\s*\S")

# How many lines after a bonsai::Mutex member declaration may separate
# it from the first BONSAI_GUARDED_BY before rule 7 fires.  Guarded
# members conventionally follow their mutex immediately; the slack
# covers an interleaved condition variable or a doc comment.
GUARDED_BY_WINDOW = 12


def guard_for(rel: Path) -> str:
    """src/sim/fifo.hpp -> BONSAI_SIM_FIFO_HPP."""
    parts = rel.with_suffix("").parts[1:]  # drop leading "src"
    return "BONSAI_" + "_".join(p.upper() for p in parts) + "_HPP"


def strip_comments(text: str) -> str:
    """Neutralize comments AND string/character literals.

    Comments (// and /* */) are removed; string and character literal
    *contents* are blanked (the quotes stay, so the line still parses
    as "something string-shaped"), including raw strings.  Line
    structure is preserved throughout so violation line numbers match
    the file.  A single pass tracks which context it is in, so a //
    inside a string is not a comment and a quote inside a comment is
    not a string.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j  # keep the newline itself
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == '"' and _raw_prefix_at(text, i):
            i = _skip_raw_string(text, i, out)
        elif c == '"':
            i = _skip_quoted(text, i, '"', out)
        elif c == "'" and not (i > 0 and
                               (text[i - 1].isalnum()
                                or text[i - 1] == "_")):
            # A real character literal; ' after an alnum is a C++14
            # digit separator (1'000'000) or part of an identifier.
            i = _skip_quoted(text, i, "'", out)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _raw_prefix_at(text: str, i: int) -> bool:
    """True when the quote at text[i] opens a raw string (R"...)."""
    j = i - 1
    while j >= 0 and text[j] in "uUL8":
        j -= 1
    return j >= 0 and text[j] == "R" and (
        j == 0 or not (text[j - 1].isalnum() or text[j - 1] == "_"))


def _skip_raw_string(text: str, i: int, out: list) -> int:
    """Blank a raw string literal R"delim( ... )delim"."""
    open_paren = text.find("(", i)
    if open_paren == -1:  # malformed; treat as plain quote
        return _skip_quoted(text, i, '"', out)
    delim = text[i + 1:open_paren]
    close = text.find(")" + delim + '"', open_paren)
    end = len(text) if close == -1 else close + len(delim) + 2
    out.append('""')
    out.append("\n" * text.count("\n", i, end))
    return end


def _skip_quoted(text: str, i: int, quote: str, out: list) -> int:
    """Blank a quoted literal, honoring backslash escapes."""
    out.append(quote + quote)
    i += 1
    n = len(text)
    while i < n:
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == quote:
            return i + 1
        if text[i] == "\n":  # unterminated; keep line structure
            out.append("\n")
            return i + 1
        i += 1
    return n


def check_header_guard(rel: Path, text: str, problems: list) -> None:
    guard = guard_for(rel)
    if f"#ifndef {guard}" not in text:
        problems.append(f"{rel}: missing '#ifndef {guard}'")
        return
    if f"#define {guard}" not in text:
        problems.append(f"{rel}: missing '#define {guard}'")
    if f"#endif // {guard}" not in text:
        problems.append(f"{rel}: missing '#endif // {guard}' trailer")


def check_guarded_mutexes(rel_str: str, lines: list,
                          problems: list) -> None:
    """Rule 7: each bonsai::Mutex member needs a nearby GUARDED_BY."""
    for i, line in enumerate(lines, 1):
        if not MUTEX_MEMBER_RE.match(line):
            continue
        window = lines[i - 1:i - 1 + GUARDED_BY_WINDOW]
        if not any("BONSAI_GUARDED_BY(" in w for w in window):
            problems.append(
                f"{rel_str}:{i}: bonsai::Mutex member without an "
                "adjacent BONSAI_GUARDED_BY annotation (within "
                f"{GUARDED_BY_WINDOW} lines); an unguarded mutex is "
                "invisible to -Wthread-safety")


def check_nolint(rel_str: str, raw_lines: list, problems: list) -> None:
    """Rule 8: suppressions must name checks and carry a reason."""
    for i, line in enumerate(raw_lines, 1):
        markers = NOLINT_RE.findall(line)
        if not markers:
            continue
        if any(m.startswith("NOLINTBEGIN") or m.startswith("NOLINTEND")
               for m in markers):
            problems.append(
                f"{rel_str}:{i}: NOLINTBEGIN/END block suppression "
                "(suppress single lines, with named checks and a "
                "reason)")
            continue
        if not NOLINT_OK_RE.search(line):
            problems.append(
                f"{rel_str}:{i}: bare or unexplained NOLINT (use "
                "'NOLINT(<check>): <reason>')")


def scan_text(rel_str: str, raw: str, problems: list) -> None:
    """Run every rule against one file's content."""
    rel = Path(rel_str)
    text = strip_comments(raw)
    lines = text.splitlines()

    if rel.suffix == ".hpp":
        check_header_guard(rel, raw, problems)
        for i, line in enumerate(lines, 1):
            if IOSTREAM_RE.search(line):
                problems.append(
                    f"{rel_str}:{i}: <iostream> in a library header "
                    "(use <ostream>/<istream>)")

    for i, line in enumerate(lines, 1):
        if rel_str not in THREAD_ALLOWED and THREAD_RE.search(line):
            problems.append(
                f"{rel_str}:{i}: std::thread outside "
                "common/thread_pool.hpp (use bonsai::ThreadPool)")
        if rel_str not in RANDOM_ALLOWED and RANDOM_RE.search(line):
            problems.append(
                f"{rel_str}:{i}: rand()/srand()/time() outside "
                "common/random.* (use the seeded RNG)")
        if "static_assert" not in line and ASSERT_RE.search(line):
            problems.append(
                f"{rel_str}:{i}: raw assert() (use BONSAI_REQUIRE/"
                "ENSURE/INVARIANT from common/contract.hpp)")
        if rel_str not in RAW_IO_ALLOWED and RAW_IO_RE.search(line):
            problems.append(
                f"{rel_str}:{i}: raw pread/pwrite/fdatasync outside "
                "io/byte_io.cpp (use ByteFile, which retries and "
                "consults the fault policy)")
        if rel_str not in POST_ALLOWED and POST_RE.search(line):
            problems.append(
                f"{rel_str}:{i}: TaskGate::arm/BackgroundWorker::post "
                "outside sorter/double_buffer.hpp (run the transfer "
                "through a DoubleBuffer step)")
        if rel_str not in SYNC_ALLOWED:
            if SYNC_RE.search(line):
                problems.append(
                    f"{rel_str}:{i}: raw std sync primitive outside "
                    "common/sync.hpp (use bonsai::Mutex/ScopedLock/"
                    "CondVar so -Wthread-safety sees the lock)")
            if SYNC_INCLUDE_RE.search(line):
                problems.append(
                    f"{rel_str}:{i}: <mutex>/<condition_variable> "
                    "include outside common/sync.hpp (include "
                    "common/sync.hpp instead)")

    check_guarded_mutexes(rel_str, lines, problems)
    check_nolint(rel_str, raw.splitlines(), problems)


def scan(path: Path, problems: list) -> None:
    rel_str = path.relative_to(REPO).as_posix()
    scan_text(rel_str, path.read_text(encoding="utf-8"), problems)


def self_test() -> int:
    """Exercise the stripper and the rules on embedded fixtures."""
    failures = []

    def expect(name, cond):
        if not cond:
            failures.append(name)

    # --- strip_comments: comments go away, line structure survives.
    s = strip_comments("a; // std::mutex\n/* assert( */ b;\n")
    expect("line-comment removed", "std::mutex" not in s)
    expect("block-comment removed", "assert(" not in s)
    expect("line structure kept", s.count("\n") == 2)
    s = strip_comments("x = 1; /* multi\nline\ncomment */ y = 2;\n")
    expect("multiline comment keeps newlines", s.count("\n") == 3)
    expect("code after comment survives", "y = 2;" in s)

    # --- string literals are neutralized before rule matching.
    s = strip_comments('throw std::runtime_error("assert( fired");\n')
    expect("assert( inside string neutralized", "assert(" not in s)
    s = strip_comments('const char *m = "use std::mutex here";\n')
    expect("std::mutex inside string neutralized",
           "std::mutex" not in s)
    s = strip_comments('p("// not a comment"); q();\n')
    expect("// inside string is not a comment", "q();" in s)
    s = strip_comments('a("she said \\"assert(\\" loudly"); b();\n')
    expect("escaped quotes handled", "assert(" not in s and "b();" in s)
    s = strip_comments("R\"(raw assert( std::mutex)\" tail();\n")
    expect("raw string neutralized",
           "assert(" not in s and "tail();" in s)
    s = strip_comments("R\"xy(assert()xy\" tail();\n")
    expect("delimited raw string neutralized",
           "assert(" not in s and "tail();" in s)
    s = strip_comments("char c = '\"'; after();\n")
    expect("char literal quote does not open a string", "after()" in s)
    s = strip_comments("n = 1'000'000; time(0);\n")
    expect("digit separators are not char literals", "time(0)" in s)
    s = strip_comments('/* comment with " quote */ keep();\n')
    expect("quote inside comment is not a string", "keep();" in s)

    # --- rules on synthetic sources (virtual paths under src/).
    def violations(rel, content):
        probs = []
        scan_text(rel, content, probs)
        return probs

    hdr = ("#ifndef BONSAI_FOO_BAR_HPP\n#define BONSAI_FOO_BAR_HPP\n"
           "{}\n#endif // BONSAI_FOO_BAR_HPP\n")

    # Raw std::mutex outside common/sync.hpp is rejected...
    probs = violations("src/foo/bar.hpp", hdr.format("std::mutex m_;"))
    expect("std::mutex outside sync.hpp rejected",
           any("raw std sync primitive" in p for p in probs))
    # ... including via its include ...
    probs = violations("src/foo/bar.hpp", hdr.format("#include <mutex>"))
    expect("<mutex> include outside sync.hpp rejected",
           any("include outside common/sync.hpp" in p for p in probs))
    # ... but common/sync.hpp itself may hold the raw primitives,
    probs = violations(
        "src/common/sync.hpp",
        "#ifndef BONSAI_COMMON_SYNC_HPP\n#define BONSAI_COMMON_SYNC_HPP\n"
        "#include <mutex>\nstd::mutex raw_;\n"
        "#endif // BONSAI_COMMON_SYNC_HPP\n")
    expect("sync.hpp itself is exempt", probs == [])
    # and a std::mutex mentioned in an error-message string is fine.
    probs = violations(
        "src/foo/bar.hpp",
        hdr.format('void f() { fail("never use std::mutex, '
                   'assert( or std::thread"); }'))
    expect("primitives named in strings do not trip rules",
           probs == [])

    # bonsai::Mutex without an adjacent BONSAI_GUARDED_BY is rejected;
    probs = violations("src/foo/bar.hpp",
                       hdr.format("Mutex mutex_;\nint x_ = 0;"))
    expect("unguarded bonsai::Mutex rejected",
           any("BONSAI_GUARDED_BY" in p for p in probs))
    # with an adjacent guarded member it passes.
    probs = violations(
        "src/foo/bar.hpp",
        hdr.format("mutable Mutex mutex_;\n"
                   "int x_ BONSAI_GUARDED_BY(mutex_) = 0;"))
    expect("guarded bonsai::Mutex accepted", probs == [])

    # NOLINT discipline.
    probs = violations("src/foo/bar.hpp",
                       hdr.format("int x; // NOLINT"))
    expect("bare NOLINT rejected",
           any("bare or unexplained NOLINT" in p for p in probs))
    probs = violations("src/foo/bar.hpp",
                       hdr.format("int x; // NOLINT(foo-check)"))
    expect("reasonless NOLINT rejected",
           any("bare or unexplained NOLINT" in p for p in probs))
    probs = violations("src/foo/bar.hpp", hdr.format("// NOLINTBEGIN"))
    expect("NOLINTBEGIN rejected",
           any("NOLINTBEGIN" in p for p in probs))
    probs = violations(
        "src/foo/bar.hpp",
        hdr.format("int x; // NOLINT(foo-check): x is fine here"))
    expect("explained NOLINT accepted", probs == [])

    # Raw positioned-I/O syscalls bypass ByteFile's retry schedule...
    probs = violations("src/foo/bar.hpp",
                       hdr.format("void f() { ::pread(fd, p, n, 0); }"))
    expect("raw pread outside byte_io.cpp rejected",
           any("raw pread/pwrite/fdatasync" in p for p in probs))
    probs = violations("src/foo/bar.cpp", "rc = fdatasync(fd);\n")
    expect("raw fdatasync outside byte_io.cpp rejected",
           any("raw pread/pwrite/fdatasync" in p for p in probs))
    # ... but byte_io.cpp owns them, and member calls, comments and
    # strings that name them are fine.
    probs = violations("src/io/byte_io.cpp",
                       "rc = ::pwrite(fd, p, n, off);\n")
    expect("byte_io.cpp may issue raw syscalls", probs == [])
    probs = violations(
        "src/foo/bar.hpp",
        hdr.format('void f() { file.pread(x); /* pwrite( */ '
                   'fail("fdatasync( failed"); }'))
    expect("member calls, comments and strings do not trip the "
           "raw-I/O rule", probs == [])

    # Arming a gate or posting to a worker outside DoubleBuffer...
    probs = violations(
        "src/sorter/phase1_spill.hpp",
        hdr.format("void f() { gate_.arm(); worker->post(task); }"))
    expect("arm/post outside double_buffer.hpp rejected",
           sum("TaskGate::arm/BackgroundWorker::post" in p
               for p in probs) == 1)
    probs = violations("src/foo/bar.cpp", "lanes[0]->writer.post([] {});\n")
    expect("post through a member chain rejected",
           any("TaskGate::arm/BackgroundWorker::post" in p
               for p in probs))
    # ... but DoubleBuffer and the defining headers own them, and
    # comments, strings and unrelated names are fine.
    probs = violations(
        "src/sorter/double_buffer.hpp",
        "#ifndef BONSAI_SORTER_DOUBLE_BUFFER_HPP\n"
        "#define BONSAI_SORTER_DOUBLE_BUFFER_HPP\n"
        "gate_.arm(); worker_->post(task);\n"
        "#endif // BONSAI_SORTER_DOUBLE_BUFFER_HPP\n")
    expect("double_buffer.hpp may arm and post", probs == [])
    probs = violations(
        "src/common/thread_pool.hpp",
        "#ifndef BONSAI_COMMON_THREAD_POOL_HPP\n"
        "#define BONSAI_COMMON_THREAD_POOL_HPP\n"
        "void drain() { self.post(x); }\n"
        "#endif // BONSAI_COMMON_THREAD_POOL_HPP\n")
    expect("the defining header is exempt", probs == [])
    probs = violations(
        "src/foo/bar.hpp",
        hdr.format('void f() { /* gate.arm( */ fail("w.post( x"); '
                   'postpone(); disarm(); }'))
    expect("comments, strings and other names do not trip the "
           "arm/post rule", probs == [])

    # Pre-existing rules still fire on neutralized text.
    probs = violations("src/foo/bar.hpp",
                       hdr.format("std::thread t;"))
    expect("std::thread rule still fires",
           any("std::thread" in p for p in probs))
    probs = violations("src/foo/bar.cpp", "assert(x);\n")
    expect("assert rule still fires",
           any("raw assert()" in p for p in probs))

    if failures:
        print(f"check_style --self-test: {len(failures)} failure(s):")
        for f in failures:
            print(f"  FAIL: {f}")
        return 1
    print("check_style --self-test: all checks passed")
    return 0


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    problems: list = []
    files = sorted(
        p for p in SRC.rglob("*")
        if p.suffix in (".hpp", ".cpp") and p.is_file())
    if not files:
        print("check_style: no sources found under src/", file=sys.stderr)
        return 1
    for path in files:
        scan(path, problems)
    if problems:
        print(f"check_style: {len(problems)} violation(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"check_style: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
