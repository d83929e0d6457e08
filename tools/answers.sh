#!/usr/bin/env bash
# The answer battery: the commands whose output a change that claims
# byte-identical answers must leave alone, run under NETREL_FAKE_CLOCK=1
# (every timing prints as 0) at --jobs 1 and 2. For each estimate it
# writes the text report (NAME.jJ.txt), the --stats json document
# (NAME.jJ.json) and a jsonl trace (NAME.jJ.trace.jsonl); `bounds`
# prints text only, and `serve` writes its replies to a short stream.
# The same datasets also go through text files (`textfile`).
# Two builds give the same answers when `diff -r A B` of their
# directories is empty.
#
#   make answers OUT=DIR             this tree's build
#   NETREL=path/to/netrel tools/answers.sh DIR
#                                    another build's binary
#
# The exact BDD (-m bdd) runs on karate only: on DBLP1 and NYC it
# stops at its 4M-node budget after 25-40 s holding 2-4 GB.
set -u

out=${1:?usage: tools/answers.sh OUT}
root=$(cd "$(dirname "$0")/.." && pwd)
netrel=${NETREL:-}
if [ -z "$netrel" ]; then
  (cd "$root" && dune build bin/netrel_cli.exe) || exit 2
  netrel=$root/_build/default/bin/netrel_cli.exe
fi
case $netrel in /*) ;; */*) netrel=$PWD/$netrel ;; esac
export NETREL_FAKE_CLOCK=1
mkdir -p "$out" || exit 2

# NAME ARGS...: one estimate at both job counts, as text, as a stats
# document and as a trace. Each file ends with the command's exit code.
estimate() {
  local name=$1 j base
  shift
  for j in 1 2; do
    base=$out/$name.j$j
    "$netrel" estimate "$@" --jobs "$j" > "$base.txt" 2>&1
    echo "exit $?" >> "$base.txt"
    "$netrel" estimate "$@" --jobs "$j" --stats json \
      --trace "$base.trace.jsonl" --trace-format jsonl > "$base.json" 2>&1
    echo "exit $?" >> "$base.json"
  done
}

# NAME ARGS...: the proven bounds (no --jobs, stats or trace).
bounds() {
  local name=$1
  shift
  "$netrel" bounds "$@" > "$out/$name.txt" 2>&1
  echo "exit $?" >> "$out/$name.txt"
}

# NAME WIDTH SAMPLES GRAPH-ARGS...: every method on one terminal set.
battery() {
  local name=$1 w=$2 s=$3
  shift 3
  estimate "$name.pro" "$@" -w "$w" -s "$s"
  estimate "$name.pro-ht" "$@" -w "$w" -s "$s" --ht
  estimate "$name.pro-ci" "$@" -w "$w" -s "$s" --ci-width 0.05
  estimate "$name.pro-noext" "$@" -w "$w" -s "$s" --no-extension
  estimate "$name.mc-flat" "$@" -s "$s" -m sampling-mc --kernel flat
  estimate "$name.mc-bitsliced" "$@" -s "$s" -m sampling-mc --kernel bitsliced
  estimate "$name.ht" "$@" -s "$s" -m sampling-ht
  bounds "$name.bounds" "$@" -w "$w"
}

battery karate 64 3000 -d karate -t 0,33
estimate karate.bdd -d karate -t 0,33 -m bdd
battery dblp1 1000 2000 -d dblp1 -t 2358,193,2271,2247,133
battery nyc 1000 2000 -d nyc -t 4500,4501,4596,4597

# NAME TERMINALS WIDTH SAMPLES: the dataset written as a text file by
# `gen -o` and read back through the text reader: pro and sampling-mc
# estimates, a short serve session (a cold query, a warm one, a repeat,
# a sampling query, the counters), and a round trip through .nrb that
# must give back the file's bytes (cmp). Commands run in OUT, so the
# outputs name files, not paths.
textfile() {
  local name=$1 ts=$2 w=$3 s=$4 j
  local file=$name.graph.txt
  (cd "$out" && "$netrel" gen -d "$name" -o "$file") > "$out/$name.gen.txt" 2>&1
  echo "exit $?" >> "$out/$name.gen.txt"
  estimate "$name.file.pro" -g "$out/$file" -t "$ts" -w "$w" -s "$s"
  estimate "$name.file.mc" -g "$out/$file" -t "$ts" -s "$s" -m sampling-mc
  for j in 1 2; do
    printf '%s\n' \
      "t=$ts w=$w s=$s" \
      "t=$ts w=$w s=$s seed=2" \
      "t=$ts w=$w s=$s" \
      "t=$ts m=sampling-mc s=$s" \
      "stats" |
      "$netrel" serve -g "$out/$file" --jobs "$j" > "$out/$name.file.serve.j$j.txt" 2>&1
    echo "exit $?" >> "$out/$name.file.serve.j$j.txt"
  done
  (cd "$out" &&
    "$netrel" convert "$file" "$name.nrb" &&
    "$netrel" convert "$name.nrb" "$name.roundtrip.txt" &&
    cmp "$file" "$name.roundtrip.txt") > "$out/$name.convert.txt" 2>&1
  echo "exit $?" >> "$out/$name.convert.txt"
}

textfile karate 0,33 64 3000
textfile dblp1 2358,193,2271,2247,133 1000 2000
textfile nyc 4500,4501,4596,4597 1000 2000

# A short serve session on NYC: a cold pro query, a warm one (new
# seed), a repeat (memo hit), pro-ht, both samplers, an adaptive
# query, a malformed line and the engine counters.
for j in 1 2; do
  printf '%s\n' \
    "t=4500,4501,4596,4597 w=1000 s=1000" \
    "t=4500,4501,4596,4597 w=1000 s=1000 seed=2" \
    "t=4500,4501,4596,4597 w=1000 s=1000" \
    "t=4500,4503,4690 m=pro-ht w=1000 s=1000" \
    "t=4500,4503,4690 m=sampling-mc s=2000 kernel=bitsliced" \
    "t=4500,4503,4690 m=sampling-ht s=500" \
    "t=4500,4503,4690 ci-width=0.05 max-samples=4000" \
    "bogus" \
    "stats" |
    "$netrel" serve -d nyc --jobs "$j" > "$out/serve.j$j.txt" 2>&1
  echo "exit $?" >> "$out/serve.j$j.txt"
done
