#!/usr/bin/env bash
# Asserts descend-cli's documented exit-code taxonomy:
#   0 ok, 1 internal error, 2 usage, 3 malformed input,
#   4 limit/deadline, 5 file I/O.
# Usage: cli_exit_codes.sh <path-to-descend-cli>
set -u

CLI="${1:?usage: cli_exit_codes.sh <path-to-descend-cli>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0
check() {
    local want="$1"; shift
    local label="$1"; shift
    "$@" >/dev/null 2>&1
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $label: expected exit $want, got $got ($*)" >&2
        fail=1
    else
        echo "ok: $label -> $got"
    fi
}

printf '{"a": {"b": 1}}' > "$WORK/ok.json"
printf '{"a": {"b": 1}' > "$WORK/truncated.json"
printf '{"a": [{"b": 1}, {"c": 2}, {"b": 3}], "b": 4}' > "$WORK/filter.json"
python3 -c "print('['*2000 + ']'*2000)" > "$WORK/deep.json" 2>/dev/null \
    || { printf '%0.s[' $(seq 2000); printf '%0.s]' $(seq 2000); } > "$WORK/deep.json"
printf '{"id":1}\n{"id":2}\n' > "$WORK/stream.ndjson"
printf '{"id":1}\n{"id": \n{"id":3}\n' > "$WORK/broken.ndjson"

# 0: success, single-document and NDJSON.
check 0 "well-formed document"        "$CLI" '$..b' "$WORK/ok.json"
check 0 "clean ndjson stream"         "$CLI" --ndjson '$..id' "$WORK/stream.ndjson"
check 0 "retry-scalar clean stream"   "$CLI" --ndjson --retry-scalar '$..id' "$WORK/stream.ndjson"
check 0 "generous deadline"           "$CLI" --deadline-ms 60000 '$..b' "$WORK/ok.json"
check 0 "projected slices"            "$CLI" --project slices '$..b' "$WORK/ok.json"
check 0 "projected ndjson stream"     "$CLI" --ndjson --project ndjson '$..id' "$WORK/stream.ndjson"

# 2: usage errors (bad flags, bad query, conflicting policies).
check 2 "unknown flag"                "$CLI" --no-such-flag '$..b' "$WORK/ok.json"
check 2 "missing query"               "$CLI"
check 2 "malformed query"             "$CLI" '$.[' "$WORK/ok.json"
check 2 "conflicting error policies"  "$CLI" --ndjson --fail-fast --retry-scalar '$..id' "$WORK/stream.ndjson"
check 2 "projection vs count"         "$CLI" --project slices --count '$..b' "$WORK/ok.json"
check 2 "unknown projection mode"     "$CLI" --project verbose '$..b' "$WORK/ok.json"

# 2: selector forms the grammar deliberately rejects (negative indices,
# stepped slices, descendant slices/unions/filters, non-final filters).
check 2 "negative index"              "$CLI" '$[-1]' "$WORK/ok.json"
check 2 "fractional index"            "$CLI" '$[1.5]' "$WORK/ok.json"
check 2 "negative slice bound"        "$CLI" '$[1:-1]' "$WORK/ok.json"
check 2 "stepped slice"               "$CLI" '$[1:4:2]' "$WORK/ok.json"
check 2 "descendant slice"            "$CLI" '$..[1:2]' "$WORK/ok.json"
check 2 "descendant union"            "$CLI" "\$..['a','b']" "$WORK/ok.json"
check 2 "descendant filter"           "$CLI" '$..[?(@.x)]' "$WORK/ok.json"
check 2 "non-final filter"            "$CLI" '$.a[?(@.x)].y' "$WORK/ok.json"
check 2 "malformed filter literal"    "$CLI" '$[?(@.x==01)]' "$WORK/ok.json"
check 2 "single-equals filter"        "$CLI" '$[?(@.x=1)]' "$WORK/ok.json"

# 0: a filter query runs inside a fused set; --fused is deprecated and
# ignored, so pinning a backend changes nothing. The fused count of the
# filter query equals the single engine's count.
check 0 "filter with --fused=product" "$CLI" --fused=product --count --query '$.a[?(@.b)]' --query '$..b' "$WORK/filter.json"
check 0 "filter under fused auto"     "$CLI" --count --query '$.a[?(@.b)]' --query '$..b' "$WORK/ok.json"
check 2 "unknown fused backend"       "$CLI" --fused=bogus --count --query '$.a' --query '$..b' "$WORK/ok.json"
single="$("$CLI" --count '$.a[?(@.b)]' "$WORK/filter.json" 2>/dev/null)"
fused="$("$CLI" --fused=product --count --query '$.a[?(@.b)]' --query '$..b' \
    "$WORK/filter.json" 2>/dev/null | sed -n 's/^query 0: //p')"
if [ -n "$single" ] && [ "$single" = "$fused" ]; then
    echo "ok: fused filter count $fused == single-engine count"
else
    echo "FAIL: fused filter count '$fused' != single-engine count '$single'" >&2
    fail=1
fi

# 3: malformed input.
check 3 "truncated document"          "$CLI" '$..b' "$WORK/truncated.json"
check 3 "broken ndjson record"        "$CLI" --ndjson '$..id' "$WORK/broken.ndjson"

# 4: resource limits and governance stops. ($.* has no head-skip label, so
# the depth limit is enforced on the full-document pipeline.)
check 4 "depth limit"                 "$CLI" '$.*' "$WORK/deep.json"
check 4 "depth limit (dom engine)"    "$CLI" --engine dom '$.*' "$WORK/deep.json"

# 5: file I/O.
check 5 "missing file"                "$CLI" '$..b' "$WORK/does-not-exist.json"

# Error messages for stream records carry absolute byte offsets.
msg="$("$CLI" --ndjson '$..id' "$WORK/broken.ndjson" 2>&1 >/dev/null)"
case "$msg" in
    *"record 1 at byte"*) echo "ok: absolute stream error position" ;;
    *) echo "FAIL: stream error lacks absolute position: $msg" >&2; fail=1 ;;
esac

exit $fail
