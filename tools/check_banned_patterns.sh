#!/usr/bin/env bash
# Banned-pattern lint: greps src/ (*.cpp, *.hpp and *.inc, the jit's
# kernel prelude) for primitives the codebase has sanctioned wrappers
# for, so new code cannot quietly bypass them.
#
#   raw-mutex   std::mutex / std::recursive_mutex outside support/mutex —
#               bare mutexes skip the capability annotations and the
#               lock-order validator (docs/concurrency.md)
#   raw-getenv  getenv() outside support/env — env::* is the single
#               choke point for knob parsing and the knob inventory
#               (docs/service.md "Environment knobs")
#   raw-popen   popen() outside exec/jit — pipes without a deadline;
#               the jit's fork/exec pipeline is the sanctioned way to
#               run a subprocess with a timeout
#   raw-dlopen  dlopen()/dlsym()/dlclose() outside exec/jit — loading
#               code anywhere else skips the verifier gate, the
#               refcounted module lifecycle and the kernel cap; a sandbox
#               worker loads through jit::load_artifact too
#
# Exceptions live in tools/lint_allowlist.txt ("<rule> <path>"), one
# grant per file with a stated reason.  Run directly or via ctest
# (lint_banned_patterns); CI runs it inside tools/run_lint.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=tools/lint_allowlist.txt

allowed() {  # allowed <rule> <file>
  grep -vE '^[[:space:]]*(#|$)' "$ALLOWLIST" 2>/dev/null |
    grep -qxF "$1 $2"
}

fail=0
check() {  # check <rule> <extended-regex>
  local rule="$1" pattern="$2" hit file
  while IFS= read -r hit; do
    [[ -z "$hit" ]] && continue
    file="${hit%%:*}"
    if allowed "$rule" "$file"; then continue; fi
    echo "banned-pattern[$rule]: $hit" >&2
    fail=1
  done < <(grep -rnE --include='*.cpp' --include='*.hpp' --include='*.inc' \
              "$pattern" src || true)
}

check raw-mutex  'std::(recursive_)?mutex'
check raw-getenv '(std::)?getenv[[:space:]]*\('
check raw-popen  '(^|[^_[:alnum:]])popen[[:space:]]*\('
check raw-dlopen '(^|[^_[:alnum:]])dl(open|sym|close)[[:space:]]*\([^)]'

if [[ $fail -ne 0 ]]; then
  echo "check_banned_patterns.sh: FAILED — use the sanctioned wrapper or add" >&2
  echo "an allowlist grant (with a reason) to $ALLOWLIST" >&2
  exit 1
fi
echo "check_banned_patterns.sh: clean"
