#!/usr/bin/env bash
# Pins descend-cli's stdout byte for byte on a small fixture: every
# single-document printing mode (values, --offsets, --project slices /
# ndjson / count, --limit, --count, the "file: " prefix of a multi-file
# run), the --query fanout, the --ndjson record modes, and the partial
# output of a run that fails part-way (exit 3: the matches reported before
# the failure, no trailing lines).
# Usage: cli_output.sh <path-to-descend-cli>
set -u

CLI="${1:?usage: cli_output.sh <path-to-descend-cli>}"
CLI="$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

fail=0
# expect LABEL EXIT ARGS... : stdout must equal the text on stdin.
expect() {
    local label="$1" want_exit="$2"
    shift 2
    cat > expected.txt
    "$CLI" "$@" > got.txt 2> /dev/null
    local got_exit=$?
    if [ "$got_exit" -ne "$want_exit" ]; then
        echo "FAIL: $label: expected exit $want_exit, got $got_exit ($*)" >&2
        fail=1
    elif ! cmp -s expected.txt got.txt; then
        echo "FAIL: $label: stdout differs ($*)" >&2
        diff expected.txt got.txt >&2
        fail=1
    else
        echo "ok: $label"
    fi
}

cat > doc.json <<'EOF'
{"a": {"b": [1, 2.5e3, "x y", {"c": "q\"z"}], "n": null},
 "list": [ {"b": true}, {"b": "\\"}, {"b": [ ] }, {"b": { "k" : "v w" }} ],
 "b": -17}
EOF
printf '{"b": [1, {"x": "y"}], "z": 3}\n{"b": "s"}\n\n{"q": {"b": false}}\n' \
    > stream.ndjson
printf '{"a": {"b": 1}}' > ok.json
printf '{"a": {"b": 1}' > truncated.json

expect "values" 0 '$..b' doc.json <<'EOF'
[1, 2.5e3, "x y", {"c": "q\"z"}]
true
"\\"
[ ]
{ "k" : "v w" }
-17
EOF
expect "slices" 0 --project=slices '$..b' doc.json <<'EOF'
[1, 2.5e3, "x y", {"c": "q\"z"}]
true
"\\"
[ ]
{ "k" : "v w" }
-17
EOF
expect "ndjson" 0 --project=ndjson '$..b' doc.json <<'EOF'
[1,2.5e3,"x y",{"c":"q\"z"}]
true
"\\"
[]
{"k":"v w"}
-17
EOF
expect "count projection" 0 --project=count '$..b' doc.json <<'EOF'
values=6 bytes=61
EOF
expect "offsets" 0 --offsets '$..b' doc.json <<'EOF'
12
75
88
101
114
140
EOF
expect "count" 0 --count '$..b' doc.json <<'EOF'
6
EOF
expect "count with stats" 0 --count --stats '$..b' doc.json <<'EOF'
6
EOF
expect "limit 1" 0 --limit 1 '$..b' doc.json <<'EOF'
[1, 2.5e3, "x y", {"c": "q\"z"}]
... (5 more)
EOF
expect "limit 1 ndjson" 0 --limit 1 --project=ndjson '$..b' doc.json <<'EOF'
[1,2.5e3,"x y",{"c":"q\"z"}]
... (5 more)
EOF
expect "two files" 0 --limit 2 --offsets '$..b' doc.json doc.json <<'EOF'
doc.json: 12
doc.json: 75
doc.json: ... (4 more)
doc.json: 12
doc.json: 75
doc.json: ... (4 more)
EOF
expect "two files, count projection" 0 --project=count '$..b' doc.json ok.json <<'EOF'
doc.json: values=6 bytes=61
ok.json: values=1 bytes=1
EOF
expect "query fanout" 0 --query '$..b' --query '$.a.*' doc.json <<'EOF'
query 0: [1, 2.5e3, "x y", {"c": "q\"z"}]
query 0: true
query 0: "\\"
query 0: [ ]
query 0: { "k" : "v w" }
query 0: -17
query 1: [1, 2.5e3, "x y", {"c": "q\"z"}]
query 1: null
EOF
expect "query fanout, ndjson + limit" 0 --project=ndjson --limit 1 \
    --query '$..b' --query '$.a.*' doc.json <<'EOF'
[1,2.5e3,"x y",{"c":"q\"z"}]
query 0: ... (5 more)
[1,2.5e3,"x y",{"c":"q\"z"}]
query 1: ... (1 more)
EOF
expect "query fanout count" 0 --count --query '$..b' --query '$.a.*' doc.json <<'EOF'
query 0: 6
query 1: 2
EOF
expect "ndjson records" 0 --ndjson '$..b' stream.ndjson <<'EOF'
record 0: [1, {"x": "y"}]
record 1: "s"
record 2: false
EOF
expect "ndjson records, ndjson projection" 0 --ndjson --project=ndjson \
    '$..b' stream.ndjson <<'EOF'
[1,{"x":"y"}]
"s"
false
EOF
expect "ndjson records, count projection" 0 --ndjson --project=count \
    '$..b' stream.ndjson <<'EOF'
values=3 bytes=23
EOF
expect "ndjson fanout offsets + limit" 0 --ndjson --limit 1 --offsets \
    --query '$..b' --query '$.*' stream.ndjson <<'EOF'
query 0 record 0: 6
... (6 more)
EOF
expect "ndjson fanout slices" 0 --ndjson --project=slices \
    --query '$..b' --query '$.z' stream.ndjson <<'EOF'
query 0 record 0: [1, {"x": "y"}]
query 1 record 0: 3
query 0 record 1: "s"
query 0 record 2: false
EOF
expect "ndjson fanout count" 0 --ndjson --count --query '$..b' --query '$.*' \
    stream.ndjson <<'EOF'
7
EOF

# A failed run (exit 3) leaves on stdout the lines of the matches reported
# before the failure: a prefix of the well-formed document's answer.
"$CLI" --project=ndjson '$..*' ok.json > whole.txt 2> /dev/null
"$CLI" --project=ndjson '$..*' truncated.json > partial.txt 2> /dev/null
partial_exit=$?
if [ "$partial_exit" -ne 3 ]; then
    echo "FAIL: truncated projection: expected exit 3, got $partial_exit" >&2
    fail=1
elif [ ! -s partial.txt ] ||
     ! cmp -s partial.txt <(head -c "$(wc -c < partial.txt)" whole.txt); then
    echo "FAIL: truncated projection: stdout is not a prefix of the answer" >&2
    fail=1
else
    echo "ok: truncated projection prints a prefix of the answer, exit 3"
fi

exit $fail
