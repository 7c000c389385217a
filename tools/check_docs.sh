#!/usr/bin/env bash
# Docs drift check: fail when a markdown doc (or an example's comments)
# references a repo path that no longer exists, or names a wire opcode /
# block-log format version that src/ no longer defines. Registered as the
# `docs_check` ctest, so renaming or deleting a source file — or an opcode
# or log version — without updating docs/, the READMEs, or examples/
# breaks CI.
#
# Checked files:  docs/*.md, README.md, bench/README.md, examples/*.cpp,
#                 tools/*.sh (their comments name source paths too)
# Checked tokens:
#   - anything shaped like <topdir>/<path> where <topdir> is a real source
#     tree root (src, bench, tests, examples, docs, tools). Brace
#     shorthand like src/ingest/mempool.{h,cc} expands to each
#     alternative. Paths under build/ (binary locations in usage
#     comments) are skipped.
#   - opcode / format-version names (kOp<Name>, kLogV<N>, kLogVersion,
#     kWireVersion — e.g. kOpBatchSubmit): each must still have a definition
#     (`<token> =`) somewhere under src/.
#   - version numbers in docs/*.md written beside kLogVersion or
#     kWireVersion ("version 6 (`kLogVersion`)", "`kWireVersion` (4)",
#     "= 6 (kLogVersion)"): the number must equal the constant's value in
#     src/.
#   - metric names in docs/OBSERVABILITY.md (txn.queue_wait_us,
#     chain.height, ...): each must appear as a string literal under
#     src/obs/, so the documented catalogue cannot drift from the
#     registered instruments; and the reverse: every instrument name
#     defined under src/obs/ as `constexpr char k...[] = "..."` must be
#     named in docs/OBSERVABILITY.md, so a new instrument cannot go
#     undocumented.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
status=0

check_path() {
  # $1 = candidate repo-relative path, $2 = doc it came from
  local p="$1"
  # Tolerate sentence punctuation glued onto the token.
  while [[ "$p" == *. || "$p" == *, || "$p" == *: || "$p" == *\) ]]; do
    p="${p%?}"
  done
  [[ -z "$p" ]] && return
  if [[ ! -e "$root/$p" ]]; then
    echo "stale reference in ${2#"$root"/}: $p" >&2
    status=1
  fi
}

for doc in "$root"/docs/*.md "$root"/README.md "$root"/bench/README.md \
           "$root"/examples/*.cpp "$root"/tools/*.sh; do
  [[ -f "$doc" ]] || continue
  while IFS= read -r tok; do
    if [[ "$tok" == *\{*\}* ]]; then
      pre="${tok%%\{*}"
      rest="${tok#*\{}"
      alts="${rest%%\}*}"
      post="${rest#*\}}"
      IFS=',' read -ra parts <<<"$alts"
      for a in "${parts[@]}"; do
        check_path "$pre$a$post" "$doc"
      done
    else
      check_path "$tok" "$doc"
    fi
  done < <(sed -E 's#\bbuild/[A-Za-z0-9_{},./-]*##g' "$doc" |
           grep -oE '\b(src|bench|tests|examples|docs|tools)/[A-Za-z0-9_{},./-]+' | sort -u)
done

# Opcode / format-version drift: docs/FORMATS.md (and friends) name wire
# opcodes and block log versions by their source constants; a doc token
# with no definition left in src/ is stale.
for doc in "$root"/docs/*.md "$root"/README.md "$root"/bench/README.md; do
  [[ -f "$doc" ]] || continue
  while IFS= read -r tok; do
    [[ -z "$tok" ]] && continue
    if ! grep -rqE "\b${tok}[[:space:]]*=" "$root/src"; then
      echo "stale token in ${doc#"$root"/}: $tok (no definition in src/)" >&2
      status=1
    fi
  done < <(grep -ohE '\bkOp[A-Za-z]+\b|\bkLogV[0-9]+\b|\bkLogVersion\b|\bkWireVersion\b' "$doc" | sort -u)
done

# Version-number drift: a number written next to kLogVersion/kWireVersion in
# docs/ (only spaces, backticks, parentheses, '=' or ',' between them; an
# optional 'v' prefix) must be the value src/ defines.
sep_before='[][ `(=]*'
sep_after='[][ `)(=,]*'
for const in kLogVersion kWireVersion; do
  want="$(grep -rhoE "\b${const} = [0-9]+" "$root/src" | head -1 | grep -oE '[0-9]+$')"
  if [[ -z "$want" ]]; then
    echo "no numeric definition of $const in src/" >&2
    status=1
    continue
  fi
  for doc in "$root"/docs/*.md; do
    while IFS= read -r hit; do
      [[ -z "$hit" ]] && continue
      got="$(grep -oE '[0-9]+' <<<"$hit" | head -1)"
      if [[ "$got" != "$want" ]]; then
        echo "stale version in ${doc#"$root"/}: '$hit' ($const is $want)" >&2
        status=1
      fi
    done < <(grep -ohE "\b[vV]?[0-9]+${sep_before}${const}\b|\b${const}${sep_after}[0-9]+\b" "$doc")
  done
done

# Metric-name drift: docs/OBSERVABILITY.md catalogues the registry's
# instruments by name; a documented metric with no literal definition in
# src/obs/ is stale (renames must update the catalogue).
obs_doc="$root/docs/OBSERVABILITY.md"
if [[ -f "$obs_doc" ]]; then
  while IFS= read -r tok; do
    [[ -z "$tok" ]] && continue
    if ! grep -rqF "\"$tok\"" "$root/src/obs"; then
      echo "stale metric in docs/OBSERVABILITY.md: $tok (no literal in src/obs/)" >&2
      status=1
    fi
  done < <(grep -ohE '\b(txn|block|ingest|net|chain|repl|storage)\.[a-z0-9_.]+\b' "$obs_doc" | sort -u)

  # The reverse: every instrument name src/obs/ defines must be a whole
  # dotted token of the catalogue. Definitions may wrap after the '='.
  doc_names="$(grep -ohE '\b[a-z][a-z0-9_]*(\.[a-z0-9_]+)+\b' "$obs_doc" | sort -u)"
  while IFS= read -r name; do
    [[ -z "$name" ]] && continue
    if ! grep -qxF "$name" <<<"$doc_names"; then
      echo "undocumented metric: $name (defined in src/obs/, missing from docs/OBSERVABILITY.md)" >&2
      status=1
    fi
  done < <(for f in "$root"/src/obs/*; do tr '\n' ' ' <"$f"; echo; done |
           grep -oE 'constexpr char k[A-Za-z0-9_]+\[\] =[[:space:]]*"[^"]+"' |
           sed -E 's/.*"([^"]+)"$/\1/' | sort -u)
fi

if [[ $status -eq 0 ]]; then
  echo "docs_check: all path references, opcode/format tokens and versions, and metric names resolve"
fi
exit $status
