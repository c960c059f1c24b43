#!/usr/bin/env bash
# Every listed argv as a whole process, through the installed console script:
# - on every golden argv (tests/test_golden.py), the console script and
#   python -m momentforge exit with its code and print the same;
# - every argv of tests/refusals.py is refused within 10 s, exit 1, its
#   message's last line holding each fragment of its row.
# Run from anywhere, after pip install -e '.[test]'; it stops at the first failure.
set -eo pipefail
cd "$(dirname "$0")/.."

python tests/test_golden.py > golden-argvs.txt
while read -r code args; do
  echo "exit $code: ${args:0:120}"
  status=0; momentforge $args > console.txt || status=$?; test "$status" -eq "$code"
  status=0; python -m momentforge $args > module.txt || status=$?; test "$status" -eq "$code"
  diff console.txt module.txt
done < golden-argvs.txt

python tests/refusals.py > refusals.tsv
while IFS=$'\t' read -r -a row; do
  code=0; timeout 10 momentforge ${row[0]} > /dev/null 2> err.txt || code=$?
  last=$(tail -n 1 err.txt)
  echo "exit $code: ${row[0]:0:120}"; echo "${last:0:300}"
  test "$code" -eq 1
  for fragment in "${row[@]:1}"; do [[ $last == *"$fragment"* ]]; done
done < refusals.tsv
