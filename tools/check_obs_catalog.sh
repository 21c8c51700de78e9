#!/usr/bin/env sh
# Fails (exit 1) when the metric table in src/obs/catalog.hpp and the
# catalog table in docs/OBSERVABILITY.md disagree: a table row without
# exactly one docs row of the same kind and unit, or a docs row naming no
# table entry. Table rows are read one per line
# ({Metric::kX, "name", Kind::kY, "unit", ...}); docs rows are the
# | `name` | kind | unit | meaning | lines of the "### Catalog" section.
#
# Usage: tools/check_obs_catalog.sh [repo-root]   (default: cwd)
set -u
export LC_ALL=C  # sort and comm must agree on one collation

root="${1:-.}"
header="$root/src/obs/catalog.hpp"
doc="$root/docs/OBSERVABILITY.md"
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT

# "name kind unit" per table row.
sed -n 's/^[[:space:]]*{Metric::k[A-Za-z0-9]*, "\([^"]*\)", Kind::k\([A-Za-z]*\), "\([^"]*\)",.*/\1 \2 \3/p' \
  "$header" | awk '{ print $1, tolower($2), $3 }' | sort > "$tmp/table"
rows=$(grep -c '^[[:space:]]*{Metric::' "$header")
parsed=$(wc -l < "$tmp/table")
if [ "$rows" -eq 0 ] || [ "$rows" -ne "$parsed" ]; then
  echo "catalog.hpp: parsed $parsed of $rows metric rows; keep each row on one line"
  exit 1
fi

# "name kind unit" per docs row.
awk '/^### Catalog/ { on = 1; next } /^#/ { on = 0 } on' "$doc" \
  | sed -n 's/^| `\([^`]*\)` | \([a-z]*\) | \([^ |]*\) |.*/\1 \2 \3/p' | sort > "$tmp/docs"

status=0
dups=$(cut -d' ' -f1 "$tmp/docs" | uniq -d)
if [ -n "$dups" ]; then
  printf '%s\n' "$dups" | while IFS= read -r name; do
    echo "docs catalog lists $name more than once"
  done
  status=1
fi
sort -u "$tmp/docs" > "$tmp/docs_unique"
missing=$(comm -23 "$tmp/table" "$tmp/docs_unique")
extra=$(comm -13 "$tmp/table" "$tmp/docs_unique")
if [ -n "$missing" ]; then
  printf '%s\n' "$missing" | while IFS= read -r row; do
    echo "catalog.hpp row has no matching docs row: $row"
  done
  status=1
fi
if [ -n "$extra" ]; then
  printf '%s\n' "$extra" | while IFS= read -r row; do
    echo "docs row matches no catalog.hpp row: $row"
  done
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "metric catalog OK ($parsed metrics)"
fi
exit $status
